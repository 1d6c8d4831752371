"""State-independent contextuality test on two spins.

Nine two-spin Pauli observables arranged in a 3x3 grid; each row and column
is a mutually commuting triple whose product is +/- identity.  Quantum
mechanics therefore fixes every one of the six correlation measurements
independently of the state, giving beta = 6, while any assignment of
deterministic +/-1 values to the nine observables caps beta at 4.

The meter method measures each triple the NMR way: three sequential
controlled couplings onto one pseudo-pure meter spin (the meter is modular,
so it records only the parity of the three outcomes), then an ensemble
readout of the meter's x magnetization.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from ..channels import Channel
from ..qop import (SIGMA_X, check_density, controlled, embed, expectation, pauli_entry,
                   pauli_matrices)

OBSERVABLE_GRID = (
    ("IZ", "ZI", "ZZ"),
    ("XI", "IX", "XX"),
    ("XZ", "ZX", "YY"),
)
# (triple, the multiple of I it multiplies to): the three rows, then the three columns
CONTEXTS = (*zip(OBSERVABLE_GRID, (1, 1, 1)), *zip(zip(*OBSERVABLE_GRID), (1, 1, -1)))

# Shrink per meter coupling that calibrates the noisy-run figure: with one
# depolarizing kick after each of the three couplings, beta = 6 (1-p)^3.
METER_DEPOLARIZING_52 = 0.046580498005590054


@dataclass(frozen=True)
class ContextualityResult:
    beta: float
    rows: tuple
    columns: tuple


def _direct_correlation(rho: np.ndarray, words) -> float:
    a, b, c = pauli_matrices(2, [pauli_entry(w) for w in words])
    return expectation(rho, a @ b @ c)


def _meter_correlation(rho: np.ndarray, words, noise: Channel | None) -> float:
    # meter is qubit 1, prepared along +x; system spins are qubits 2 and 3;
    # noise is the meter's channel lifted onto the register
    plus = np.full((2, 2), 0.5, dtype=complex)
    joint = np.kron(plus, rho)
    for word in words:
        coupling = controlled(pauli_matrices(2, pauli_entry(word))[0])
        joint = coupling @ joint @ coupling.conj().T
        if noise is not None:
            joint = noise.apply(joint)
    return expectation(joint, embed(SIGMA_X, [1], 3))


def contextuality_beta(
    state: np.ndarray,
    noise: Channel | None = None,
    method: str = "direct",
) -> ContextualityResult:
    """beta = r1 + r2 + r3 + c1 + c2 - c3 for the given two-spin state.

    direct: each correlation is the expectation of the dense product of the
    commuting triple; it takes no noise.
    meter: each correlation runs the three-coupling meter circuit; noise, if
    any, is a 1-spin channel applied to the meter after every coupling.
    """
    rho = check_density(np.asarray(state, dtype=complex))
    if rho.shape != (4, 4):
        raise ValueError("contextuality test is defined on exactly two spins")
    values = []
    if method == "direct":
        if noise is not None:
            raise ValueError("the direct method takes no noise; meter noise needs method='meter'")
        for words, _ in CONTEXTS:
            values.append(_direct_correlation(rho, words))
    elif method == "meter":
        lifted = None if noise is None else noise.on([1], 3)
        for words, _ in CONTEXTS:
            values.append(_meter_correlation(rho, words, lifted))
    else:
        raise ValueError(f"unknown method {method!r}")
    rows, cols = tuple(values[:3]), tuple(values[3:])
    beta = sum(rows) + cols[0] + cols[1] - cols[2]
    return ContextualityResult(float(beta), rows, cols)


def classical_max_beta() -> float:
    """Best beta over every deterministic +/-1 assignment to the grid."""
    best = -np.inf
    for bits in iproduct((1, -1), repeat=9):
        a = np.array(bits).reshape(3, 3)
        rows = a.prod(axis=1)
        cols = a.prod(axis=0)
        best = max(best, rows.sum() + cols[0] + cols[1] - cols[2])
    return float(best)

