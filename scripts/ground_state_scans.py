"""Ground-state scans: Ising magnetization plateaus and the XXZ GE jump.

Text-only output, suitable for piping into a notebook or gnuplot.
"""

import numpy as np

from nmrqip.experiments.ising import ising_ground, magnetization_steps
from nmrqip.experiments.xxz import ge_jump_location, xxz_scan


def ising_table(j=1.0):
    hs = np.linspace(-3.0, 3.0, 121)
    res = ising_ground(j, hs)
    print("# triangle Ising, j =", j)
    print("# h  magnetization  entropy_bits  degeneracy")
    for h, m, s, d in zip(res.h_values, res.magnetization,
                          res.entropy_bits, res.degeneracy):
        print(f"{h:+.3f}  {m:+.6f}  {s + 0.0:.6f}  {int(d)}")
    print("# plateau boundaries:", list(magnetization_steps(j)))


def xxz_table(n=4, restarts=8, seed=0):
    gammas = np.linspace(-2.0, 2.0, 41)
    rng = np.random.default_rng(seed)
    scan = xxz_scan(n, gammas, rng, n_restarts=restarts)
    print(f"# periodic XXZ ring, n = {n}")
    print("# gamma  ge_bits  ferro  equatorial  neel")
    for g, ge, f, e, nl in zip(scan.gammas, scan.ge, scan.ferro,
                               scan.equatorial, scan.neel):
        print(f"{g:+.3f}  {ge:.6f}  {f:.6f}  {e:.6f}  {nl:.6f}")
    print("# largest GE jump near gamma =", ge_jump_location(scan))


if __name__ == "__main__":
    ising_table()
    print()
    xxz_table()
