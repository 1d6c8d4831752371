"""Iterated relay transfer down a dipolar chain, then end-to-end entanglement.

Prints the default `nmrqip transfer` run and its `entangle` mode: the chain
evolves under the one-excitation relay Hamiltonian, and the sink spin is
read out after each application of the fixed-time propagator.
"""

from nmrqip.cli import DEFAULT_CONFIGS, run


def main():
    summary, tables = run("transfer")
    fids = tables["transfer.csv"]["fidelity"]
    defaults = DEFAULT_CONFIGS["transfer"]
    print(f"# n = {defaults['n']}, tau = {defaults['tau']}")
    for k in range(0, len(fids), 10):
        print(f"step {k:3d}  transfer fidelity {fids[k]:.6f}")
    print(f"final     transfer fidelity {summary['final_fidelity']:.6f}  "
          f"stalled: {summary['stalled']}")

    ent, _ = run("transfer", mode="entangle")
    print(f"end-to-end Bell fidelity {ent['final_fidelity']:.6f}  "
          f"extraction residual {ent['extraction_residual']:.2e}")


if __name__ == "__main__":
    main()
