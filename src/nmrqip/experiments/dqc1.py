"""One-clean-qubit trace estimation.

A single control spin with polarization eps (the one "clean" qubit) plus a
maximally mixed n-spin target suffice to estimate the normalized trace
Tr(U)/2^n: Hadamard the control, apply controlled-U, and read the control's
transverse magnetization.  The readout scales linearly with eps, so the
estimator divides the polarization back out; at eps = 1 the exact-expectation
mode returns Tr(U)/2^n to machine precision.

The block-trace variant adds a second pseudo-pure qubit whose preparation
angle sets the weights of the two diagonal blocks, turning the same circuit
into a weighted block-trace estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..qop import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    check_unitary,
    controlled,
    embed,
    expectation,
    haar_random_unitary,
    n_qubits,
)

_HADAMARD = (SIGMA_X + SIGMA_Z) / np.sqrt(2)


@dataclass(frozen=True)
class Dqc1Instance:
    """Trace-estimation problem: target unitary, control polarization, mode.

    shots = None means exact ensemble expectations; an integer runs the
    readout as two binomial samples (x and y magnetization separately).
    """

    u: np.ndarray
    epsilon: float = 1.0
    shots: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "u", check_unitary(np.asarray(self.u, dtype=complex)))
        if not 0 < self.epsilon <= 1:
            raise ValueError(f"control polarization {self.epsilon} not in (0, 1]")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be a positive integer")

    @property
    def n_target(self) -> int:
        return n_qubits(self.u.shape[0])


def dqc1_input_state(inst: Dqc1Instance) -> np.ndarray:
    """Control with polarization eps along z, target maximally mixed."""
    d = 2 ** inst.n_target
    control = np.diag([1 + inst.epsilon, 1 - inst.epsilon]) / 2
    return np.kron(control, np.eye(d)) / d


def _run_circuit(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Hadamard the leading (control) qubit of rho, then apply controlled-U."""
    h = embed(_HADAMARD, [1], n_qubits(rho.shape[0]))
    rho = h @ rho @ h.conj().T
    cu = controlled(u)
    return cu @ rho @ cu.conj().T


def _read_trace(rho: np.ndarray, epsilon: float, shots: int | None,
                rng: np.random.Generator | None) -> complex:
    """The control's x + i y magnetization over epsilon.

    With shots, the ensemble readout is emulated as a two-outcome experiment
    per axis, sampled binomially, x first.
    """
    n_total = n_qubits(rho.shape[0])
    sx, sy = (expectation(rho, embed(s, [1], n_total)) for s in (SIGMA_X, SIGMA_Y))
    if shots is not None:
        if rng is None:
            raise ValueError("sampled mode needs an rng")
        sx, sy = (2 * rng.binomial(shots, min(1.0, max(0.0, (1 + v) / 2))) / shots - 1
                  for v in (sx, sy))
    return (sx + 1j * sy) / epsilon


def dqc1_trace(inst: Dqc1Instance, rng: np.random.Generator | None = None) -> complex:
    """Estimate Tr(U)/2^n from the control's x/y magnetization."""
    rho = _run_circuit(dqc1_input_state(inst), inst.u)
    return _read_trace(rho, inst.epsilon, inst.shots, rng)


def control_target_ppt(inst: Dqc1Instance) -> float:
    """Smallest eigenvalue of the partial transpose over the target.

    Nonnegative output witnesses that the circuit never entangles the
    control with the target across this cut.
    """
    d = 2 ** inst.n_target
    rho = _run_circuit(dqc1_input_state(inst), inst.u)
    pt = rho.reshape(2, d, 2, d).transpose(0, 3, 2, 1).reshape(2 * d, 2 * d)
    return float(np.linalg.eigvalsh(pt)[0])


def _block_split(u: np.ndarray, atol: float = 1e-12):
    d = u.shape[0]
    if d < 4 or d % 2:
        raise ValueError("need at least two qubits for the block variant")
    half = d // 2
    off = max(np.abs(u[:half, half:]).max(), np.abs(u[half:, :half]).max())
    if off > atol:
        raise ValueError(f"unitary is not block diagonal in the leading qubit (offblock {off:.2e})")
    return u[:half, :half], u[half:, half:]


def haar_block_unitary(half: int, rng: np.random.Generator) -> np.ndarray:
    """diag(U0, U1) of two Haar-random half x half unitaries, U0 drawn first."""
    ub = np.zeros((2 * half, 2 * half), dtype=complex)
    ub[:half, :half] = haar_random_unitary(half, rng)
    ub[half:, half:] = haar_random_unitary(half, rng)
    return ub


def dqc1_block_trace(
    u: np.ndarray,
    theta: float = np.pi / 4,
    epsilon: float = 1.0,
    epsilon2: float = 1.0,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> complex:
    """Weighted sum of the two blocks' normalized traces.

    u must be block diagonal in the basis of its leading qubit.  That qubit
    is prepared pseudo-pure (polarization epsilon2) and rotated by theta, so
    the readout weights are

        w0 = eps2 cos^2(theta) + (1 - eps2)/2,   w1 likewise with sin^2,

    and the estimate is w0 Tr(U0)/2^{n-1} + w1 Tr(U1)/2^{n-1}.
    """
    u = check_unitary(np.asarray(u, dtype=complex))
    _block_split(u)
    if not 0 < epsilon2 <= 1:
        raise ValueError(f"block-qubit polarization {epsilon2} not in (0, 1]")
    m = n_qubits(u.shape[0])
    chi = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    selector = epsilon2 * np.outer(chi, chi.conj()) + (1 - epsilon2) * np.eye(2) / 2
    Dqc1Instance(u, epsilon=epsilon, shots=shots)  # checks epsilon and shots
    control = np.diag([1 + epsilon, 1 - epsilon]) / 2.0
    rest = np.eye(2 ** (m - 1)) / 2 ** (m - 1)
    rho = _run_circuit(np.kron(np.kron(control, selector), rest), u)
    return _read_trace(rho, epsilon, shots, rng)


def block_trace_direct(u: np.ndarray, theta: float = np.pi / 4, epsilon2: float = 1.0) -> complex:
    """Reference value for dqc1_block_trace computed straight from the blocks."""
    u0, u1 = _block_split(np.asarray(u, dtype=complex))
    half = u0.shape[0]
    w0 = epsilon2 * np.cos(theta) ** 2 + (1 - epsilon2) / 2
    w1 = epsilon2 * np.sin(theta) ** 2 + (1 - epsilon2) / 2
    return complex(w0 * np.trace(u0) / half + w1 * np.trace(u1) / half)
