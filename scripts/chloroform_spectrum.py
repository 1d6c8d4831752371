"""Simulated spectrum of pseudopure chloroform after a hard y90 pulse.

Reports the four doublet line positions of the default `nmrqip spectrum`
run, found as local maxima of the absorption magnitude.
"""

import numpy as np

from nmrqip.cli import run


def main(duration=0.5, n_samples=2048):
    _, tables = run("spectrum", duration_s=duration, n_samples=n_samples)
    t = tables["spectrum.csv"]
    freqs, mag = t["freq_hz"], np.hypot(t["amp_re"], t["amp_im"])

    # local maxima above a tenth of the global peak
    inner = (mag[1:-1] > mag[:-2]) & (mag[1:-1] >= mag[2:])
    peaks = np.where(inner & (mag[1:-1] > 0.1 * mag.max()))[0] + 1
    print("# line positions (Hz), resolution", 1.0 / duration, "Hz")
    for k in sorted(peaks, key=lambda i: freqs[i]):
        print(f"{freqs[k]:+9.2f}  magnitude {mag[k]:.4f}")


if __name__ == "__main__":
    main()
