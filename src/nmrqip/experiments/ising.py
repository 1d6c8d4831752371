"""Frustrated three-spin Ising triangle in a longitudinal field.

H = J (Z1 Z2 + Z2 Z3 + Z1 Z3) + h (Z1 + Z2 + Z3) with J > 0.  The
antiferromagnetic couplings frustrate the triangle, so the ground space
carries entropy even at zero temperature; the field sweeps the system
through magnetization plateaus +3, +1, -1, -3 with level crossings at
h = -2J, 0, +2J.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..qop import pauli_sum

_N = 3
# Z bits, qubit 1 the most significant: Z1 Z2, Z2 Z3, Z1 Z3, then Z1, Z2, Z3
_COUPLING_Z = (0b110, 0b011, 0b101)
_FIELD_Z = (0b100, 0b010, 0b001)


@dataclass(frozen=True)
class IsingResult:
    j: float
    h_values: np.ndarray
    magnetization: np.ndarray
    entropy_bits: np.ndarray
    degeneracy: np.ndarray

    def __post_init__(self):
        for name in ("h_values", "magnetization", "entropy_bits", "degeneracy"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def ising_hamiltonian(j: float, h: float) -> np.ndarray:
    return pauli_sum(_N, [(j, 0, z) for z in _COUPLING_Z] + [(h, 0, z) for z in _FIELD_Z])


def magnetization_operator() -> np.ndarray:
    return pauli_sum(_N, [(1.0, 0, z) for z in _FIELD_Z])


def _ground_point(j: float, h: float, rtol: float):
    energies, vectors = np.linalg.eigh(ising_hamiltonian(j, h))
    e0 = energies[0]
    sel = np.abs(energies - e0) <= rtol * max(1.0, abs(e0))
    deg = int(sel.sum())
    basis = vectors[:, sel]
    rho = basis @ basis.conj().T / deg
    mag = float(np.real(np.trace(rho @ magnetization_operator())))
    probs = np.linalg.eigvalsh(rho)
    probs = probs[probs > 1e-15]
    entropy = float(-(probs * np.log2(probs)).sum())
    return mag, entropy, deg


def ising_ground(j: float, h_values, rtol: float = 1e-9) -> IsingResult:
    """Uniform ground-space mixture per field value: magnetization, entropy.

    Entropy is von Neumann in bits, so a deg-fold degenerate point reads
    log2(deg) exactly.
    """
    if j <= 0:
        raise ValueError("couplings must be antiferromagnetic (j > 0)")
    h_values = np.atleast_1d(np.asarray(h_values, dtype=float))
    mags, ents, degs = [], [], []
    for h in h_values:
        mag, entropy, deg = _ground_point(j, h, rtol)
        mags.append(mag)
        ents.append(entropy)
        degs.append(deg)
    return IsingResult(j, h_values, np.array(mags), np.array(ents), np.array(degs, dtype=int))


def magnetization_steps(j: float, tol: float = 1e-6):
    """Field values in [-3j, 3j] where the ground magnetization jumps, located
    by bisection from a 121-point grid."""
    grid = np.linspace(-3 * j, 3 * j, 121)
    result = ising_ground(j, grid)
    steps = []
    for k in range(len(grid) - 1):
        lo, hi = grid[k], grid[k + 1]
        m_lo = result.magnetization[k]
        if np.isclose(m_lo, result.magnetization[k + 1]) and result.degeneracy[k] == result.degeneracy[k + 1]:
            continue
        while hi - lo > tol:
            mid = (lo + hi) / 2
            m_mid, _, deg_mid = _ground_point(j, mid, 1e-9)
            if np.isclose(m_mid, m_lo) and deg_mid == result.degeneracy[k]:
                lo = mid
            else:
                hi = mid
        steps.append((lo + hi) / 2)
    # collapse refinements that landed on the same crossing
    merged = []
    for s in steps:
        if not merged or abs(s - merged[-1]) > 10 * tol:
            merged.append(s)
    return merged
