"""Simulated spectrum of pseudopure chloroform after a hard y90 pulse.

Reports the four doublet line positions found as local maxima of the
absorption magnitude.
"""

import numpy as np

from nmrqip.qop import collective_rotation
from nmrqip.spins import builtin_molecule, make_pps, simulate_fid, spectrum


def main(duration=0.5, n_samples=2048):
    sys2 = builtin_molecule("chloroform2")
    rho = make_pps(2, 1.0)
    u90 = collective_rotation("y", np.pi / 2, 2)
    rho = u90 @ rho @ u90.conj().T

    fid = simulate_fid(rho, sys2, duration, n_samples)
    freqs, amps = spectrum(fid, n_samples / duration)
    mag = np.abs(amps)

    # local maxima above a tenth of the global peak
    inner = (mag[1:-1] > mag[:-2]) & (mag[1:-1] >= mag[2:])
    peaks = np.where(inner & (mag[1:-1] > 0.1 * mag.max()))[0] + 1
    print("# line positions (Hz), resolution", 1.0 / duration, "Hz")
    for k in sorted(peaks, key=lambda i: freqs[i]):
        print(f"{freqs[k]:+9.2f}  magnitude {mag[k]:.4f}")


if __name__ == "__main__":
    main()
