"""Weak measurement with ensemble post-selection.

A meter spin couples weakly (strength g) to one system observable, the
post-selection basis change is applied, and a second, strong meter coupling
dephases everything that failed post-selection.  The surviving meter x/y
magnetization, rescaled by the coupling and the success probability, read
out the weak value <phi|sigma|psi>/<phi|psi> with O(g) accuracy.  The value
may be complex and may sit far outside the observable's spectrum.
"""

from __future__ import annotations

import numpy as np

from ..qop import (
    KET0,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    embed,
    expectation,
    ket_density,
)


def _observable(axis: str) -> np.ndarray:
    letter = axis.upper()
    if letter not in ("X", "Y", "Z"):
        raise ValueError(f"unknown observable letter {axis!r}")
    return PAULIS[letter]


def _normalized_ket(psi) -> np.ndarray:
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.shape != (2,):
        raise ValueError("system states are single-spin kets")
    return v / np.linalg.norm(v)


def weak_value_exact(prep, axis, post) -> complex:
    """The textbook ratio <phi|sigma|psi>/<phi|psi>."""
    psi, phi = _normalized_ket(prep), _normalized_ket(post)
    return complex(np.vdot(phi, _observable(axis) @ psi) / np.vdot(phi, psi))


def weak_value(prep, axis, post, g: float, overlap_floor: float = 1e-6) -> complex:
    """Simulated meter estimate of the weak value at coupling strength g."""
    if g <= 0:
        raise ValueError("coupling strength must be positive")
    psi, phi = _normalized_ket(prep), _normalized_ket(post)
    overlap = np.vdot(phi, psi)
    if abs(overlap) <= overlap_floor:
        raise ValueError(
            f"post-selection overlap {abs(overlap):.2e} below floor {overlap_floor:.0e}; "
            "the diminished signal would sit under the numeric noise"
        )
    sigma = _observable(axis)

    # system is spin 1, meter spin 2 starting in |0>
    joint = ket_density(np.kron(psi, KET0))
    half = g / 2
    coupling = np.cos(half) * np.eye(4) - 1j * np.sin(half) * np.kron(sigma, SIGMA_Y)
    joint = coupling @ joint @ coupling.conj().T

    # rotate the post-selected state onto |0>, then dephase the failures:
    # averaging over a pi meter kick conditioned on system |1> kills every
    # meter coherence in the failed branch
    basis_change = np.array([[phi[0].conjugate(), phi[1].conjugate()], [-phi[1], phi[0]]])
    v = embed(basis_change, [1], 2)
    joint = v @ joint @ v.conj().T
    tag = np.kron(np.diag([1.0, 0.0]), np.eye(2)) + np.kron(np.diag([0.0, 1.0]), SIGMA_Z)
    joint = (joint + tag @ joint @ tag.conj().T) / 2

    p_success = expectation(joint, np.kron(np.diag([1.0, 0.0]), np.eye(2)))
    if p_success < 1e-12:
        raise ValueError("post-selection success probability vanished")
    mx = expectation(joint, embed(SIGMA_X, [2], 2))
    my = expectation(joint, embed(SIGMA_Y, [2], 2))
    return (mx + 1j * my) / (g * p_success)


def amplified_pair(target: float):
    """Pre/post single-spin states whose z weak value equals target (> 1).

    Uses psi = cos(t)|0> + sin(t)|1>, phi = cos(t)|0> - sin(t)|1>: the z
    weak value is 1/cos(2t), so t = arccos(1/target)/2.
    """
    if target <= 1:
        raise ValueError("amplification target must exceed the spectral edge 1")
    t = np.arccos(1 / target) / 2
    psi = np.array([np.cos(t), np.sin(t)], dtype=complex)
    phi = np.array([np.cos(t), -np.sin(t)], dtype=complex)
    return psi, phi
