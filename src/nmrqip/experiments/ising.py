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
# energies per chunk of field points: 2^16 points of 8 float64 levels
_CHUNK_BYTES = 1 << 22


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


def ising_ground(j: float, h_values, rtol: float = 1e-9) -> IsingResult:
    """Uniform ground-space mixture per field value: magnetization, entropy.

    H is diagonal, with energies E(h) = diag(H(j, 0)) + h diag(M).  The ground
    set is the levels within rtol max(1, |E_min|) of the minimum; the mixture's
    magnetization is the mean of diag(M) over it, and its von Neumann entropy
    is log2(deg) bits.
    """
    if j <= 0:
        raise ValueError("couplings must be antiferromagnetic (j > 0)")
    h_values = np.atleast_1d(np.asarray(h_values, dtype=float))
    e0 = np.diagonal(ising_hamiltonian(j, 0.0)).real
    m = np.diagonal(magnetization_operator()).real
    mags, degs = np.empty(len(h_values)), np.empty(len(h_values), dtype=int)
    step = _CHUNK_BYTES // e0.nbytes
    for at in range(0, len(h_values), step):
        energies = e0 + h_values[at:at + step, None] * m
        e_min = energies.min(axis=1, keepdims=True)
        ground = np.abs(energies - e_min) <= rtol * np.maximum(1.0, np.abs(e_min))
        degs[at:at + step] = ground.sum(axis=1)
        mags[at:at + step] = (ground * m).sum(axis=1) / degs[at:at + step]
    return IsingResult(j, h_values, mags, np.log2(degs), degs)


def magnetization_steps(j: float, tol: float = 1e-6):
    """Field values in [-3j, 3j] where the ground magnetization jumps, located
    by bisection from a 121-point grid."""
    grid = np.linspace(-3 * j, 3 * j, 121)
    result = ising_ground(j, grid)
    steps = []
    for k in range(len(grid) - 1):
        lo, hi = grid[k], grid[k + 1]
        m_lo, deg_lo = result.magnetization[k], result.degeneracy[k]
        if np.isclose(m_lo, result.magnetization[k + 1]) and deg_lo == result.degeneracy[k + 1]:
            continue
        while hi - lo > tol:
            mid = (lo + hi) / 2
            point = ising_ground(j, mid)
            if np.isclose(point.magnetization[0], m_lo) and point.degeneracy[0] == deg_lo:
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
