"""Iterated relay transfer down a dipolar chain, then end-to-end entanglement.

The chain evolves under the one-excitation relay Hamiltonian; the sink spin
is read out after each application of the fixed-time propagator.
"""

import numpy as np

from nmrqip.experiments.transfer import (
    TransferChain, dipolar_couplings, entangle_ends, state_transfer,
)


def run(n=4, tau=0.4, iterations=100):
    chain = TransferChain(n, dipolar_couplings(n), tau)
    res = state_transfer(chain, iterations=iterations)
    print(f"# n = {n}, tau = {tau}")
    for k in range(0, len(res.fidelities), 10):
        print(f"step {k:3d}  transfer fidelity {res.fidelities[k]:.6f}")
    print(f"final     transfer fidelity {res.fidelity:.6f}  "
          f"stalled: {res.stalled}")

    ent = entangle_ends(chain, iterations)
    print(f"end-to-end Bell fidelity {ent.fidelities[-1]:.6f}  "
          f"extraction residual {ent.extraction_residual:.2e}")
    probs = np.abs(ent.final_amplitudes) ** 2
    print("site populations:", np.array2string(probs, precision=4))


if __name__ == "__main__":
    run()
