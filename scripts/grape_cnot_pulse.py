"""Design a CNOT pulse for the two-spin chloroform system with GRAPE.

Prints the accepted fidelity trace every 25 iterations and saves the final
pulse to grape_cnot.json in the working directory.
"""

from nmrqip.clifford import gate_tableau, unitaries
from nmrqip.control import (
    GrapeConfig, control_channels, grape_optimize, random_pulse, save_pulse,
)
from nmrqip.spins import builtin_molecule


def design(seed: int = 0, n_steps: int = 250, dt: float = 2e-5, u_max: float = 1.0e4,
           target_fidelity: float = 0.99):
    """GRAPE result for a CNOT on chloroform2.

    u_max is the amplitude cap in rad/s (nutation rate), unlike the CLI's
    `u_max_hz` key, which is in Hz: the default 1e4 rad/s is about 1.6 kHz.
    """
    sys2 = builtin_molecule("chloroform2")
    names, _ = control_channels(sys2)
    cfg = GrapeConfig(max_iters=2000, target_fidelity=target_fidelity)
    init = random_pulse(n_steps, dt, names, u_max, seed=seed, scale=0.01)
    return grape_optimize(sys2, unitaries(gate_tableau("CNOT", (1, 2), 2)), init, cfg)


if __name__ == "__main__":
    res = design()
    for i, f in enumerate(res.fidelities):
        if i % 25 == 0 or i == len(res.fidelities) - 1:
            print(f"iter {i:4d}  fidelity {f:.6f}")
    print("converged:", res.converged, " iterations:", res.iterations,
          " objective evaluations:", res.evaluations)
    save_pulse(res.pulse, "grape_cnot.json")
    print("pulse written to grape_cnot.json")
