"""Ground-state scans: Ising magnetization plateaus and the XXZ GE jump.

Prints the default `nmrqip ising` and `nmrqip xxz` runs as text, suitable
for piping into a notebook or gnuplot.
"""

from nmrqip.cli import run


def ising_table():
    summary, tables = run("ising")
    t = tables["ising.csv"]
    print("# triangle Ising, j =", summary["j"])
    print("# h  magnetization  entropy_bits  degeneracy")
    for h, m, s, d in zip(t["h"], t["magnetization"], t["entropy_bits"], t["degeneracy"]):
        print(f"{h:+.3f}  {m:+.6f}  {s + 0.0:.6f}  {int(d)}")
    print("# plateau boundaries:", summary["steps"])


def xxz_table():
    summary, tables = run("xxz")
    t = tables["xxz.csv"]
    print(f"# periodic XXZ ring, n = {summary['n']}")
    print("# gamma  ge_bits  ferro  equatorial  neel")
    for g, ge, f, e, nl in zip(t["gamma"], t["ge_bits"], t["ferro_overlap"],
                               t["equatorial_overlap"], t["neel_overlap"]):
        print(f"{g:+.3f}  {ge:.6f}  {f:.6f}  {e:.6f}  {nl:.6f}")
    print("# largest GE jump near gamma =", summary["ge_jump_gamma"])


if __name__ == "__main__":
    ising_table()
    print()
    xxz_table()
