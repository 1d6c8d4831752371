"""Iterative state transfer through a dipolar-coupled relay chain.

The relay Hamiltonian (pi/2) sum_{j<k<N} D_jk (2 Z_j Z_k - X_j X_k - Y_j Y_k)
conserves excitation number, so an input alpha|vac> + beta|one excitation>
stays inside the (N+1)-dimensional zero/one-excitation subspace and the
whole protocol is simulated there.  Each iteration evolves the relay for
time tau, then a two-spin end gate on (N-1, N) rotates whatever amplitude
reached the last relay spin into the sink spin, phase-aligned with beta.
The sink amplitude can only grow, so the transfer fidelity is monotone,
and the vacuum component's known phase theta per step is carried along.

Only the two end spins ever need individual control; the relay just evolves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TransferChain:
    """Relay of n spins: couplings (Hz) among spins 1..n-1, sink spin n."""

    n: int
    couplings: np.ndarray
    tau: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least a relay spin and a sink")
        if self.tau <= 0:
            raise ValueError("evolution time must be positive")
        d = np.array(self.couplings, dtype=float)
        if d.shape != (self.n, self.n):
            raise ValueError(f"couplings must be {self.n}x{self.n}")
        if np.abs(d - d.T).max() > 1e-12 or np.abs(np.diag(d)).max() > 0:
            raise ValueError("couplings must be symmetric with zero diagonal")
        if np.abs(d[self.n - 1]).max() > 0:
            raise ValueError("the sink spin is not part of the relay Hamiltonian")
        d.setflags(write=False)
        object.__setattr__(self, "couplings", d)

    @property
    def theta(self) -> float:
        """Phase the vacuum picks up per iteration."""
        return -self.tau * one_excitation_hamiltonian(self.couplings, self.n)[0, 0]

    def propagator(self) -> np.ndarray:
        # real symmetric: exp(-i tau H) = V diag(e^(-i tau w)) V^T
        w, v = np.linalg.eigh(one_excitation_hamiltonian(self.couplings, self.n))
        return (v * np.exp(-1j * self.tau * w)) @ v.T


def dipolar_couplings(n: int, strength: float = 1.0) -> np.ndarray:
    """1/r^3 couplings on a unit-spaced relay (sites 1..n-1), sink uncoupled."""
    d = np.zeros((n, n))
    for j in range(n - 1):
        for k in range(j + 1, n - 1):
            d[j, k] = d[k, j] = strength / (k - j) ** 3
    return d


def one_excitation_hamiltonian(couplings: np.ndarray, n: int) -> np.ndarray:
    """Relay Hamiltonian on span{|vac>, |site 1>, .., |site n>}.

    Index 0 is the all-up state; index i holds the excitation at spin i.
    The sink row stays diagonal: its energy matches the vacuum because
    flipping an uncoupled spin changes no relay bond.
    """
    ham = np.zeros((n + 1, n + 1))
    total = 0.0
    for j in range(n - 1):
        for k in range(j + 1, n - 1):
            d = couplings[j, k]
            total += d
            ham[1 + j, 1 + k] += (np.pi / 2) * (-2 * d)
            ham[1 + k, 1 + j] += (np.pi / 2) * (-2 * d)
            for m in range(n):
                sign = -1 if m in (j, k) else 1
                ham[1 + m, 1 + m] += (np.pi / 2) * 2 * d * sign
    ham[0, 0] = (np.pi / 2) * 2 * total
    return ham


def _end_gate(a: complex, b: complex, phase: complex):
    """Unitary on the (relay-end, sink) amplitudes sending (a, b) -> (0, r phase)."""
    r = np.hypot(abs(a), abs(b))
    if r < 1e-15:
        return None
    return np.array(
        [[-b / r, a / r], [phase * a.conjugate() / r, phase * b.conjugate() / r]]
    )


def _relay_step(u: np.ndarray, v: np.ndarray, phase: complex):
    """One iteration on the amplitudes v: the relay evolves by u, then the end
    gate moves what reached spin n-1 into the sink.  Returns the new
    amplitudes and the gate, None if nothing reached the two end spins."""
    v = u @ v
    gate = _end_gate(v[-2], v[-1], phase)
    if gate is not None:
        v[-2], v[-1] = gate @ v[-2:]
    return v, gate


@dataclass(frozen=True)
class TransferResult:
    fidelities: np.ndarray
    theta: float
    stalled: bool
    max_excitation_drift: float

    def __post_init__(self):
        arr = np.asarray(self.fidelities)
        arr.setflags(write=False)
        object.__setattr__(self, "fidelities", arr)

    @property
    def fidelity(self) -> float:
        return float(self.fidelities[-1])


# flat iterations in a row, short of the target, that mark a transfer stalled
_STALL_WINDOW = 10


def state_transfer(
    chain: TransferChain,
    iterations: int = 100,
    alpha: complex = 0.0,
    beta: complex = 1.0,
) -> TransferResult:
    """Move alpha|vac> + beta|spin 1> onto the sink spin.

    The fidelity trace entry k compares the state after k iterations against
    alpha e^{i k theta}|vac> + beta|sink>; entry 0 is the starting fidelity.
    """
    n = chain.n
    norm = np.hypot(abs(alpha), abs(beta))
    if norm < 1e-15:
        raise ValueError("input amplitudes vanish")
    alpha, beta = alpha / norm, beta / norm
    beta_phase = beta / abs(beta) if abs(beta) > 0 else 1.0

    u = chain.propagator()
    theta = chain.theta  # a property that rebuilds the Hamiltonian
    v = np.zeros(n + 1, dtype=complex)
    v[0] = alpha
    v[1] = beta
    excitation0 = abs(beta) ** 2

    def fidelity(vec: np.ndarray, k: int) -> float:
        target = np.zeros(n + 1, dtype=complex)
        target[0] = alpha * np.exp(1j * k * theta)
        target[n] = beta
        return float(abs(np.vdot(target, vec)) ** 2)

    fids = [fidelity(v, 0)]
    drift = 0.0
    flat = 0
    stalled = False
    for k in range(1, iterations + 1):
        v, _ = _relay_step(u, v, beta_phase)
        fids.append(fidelity(v, k))
        drift = max(drift, abs((1 - abs(v[0]) ** 2) - excitation0))
        if fids[-1] - fids[-2] < 1e-15 and fids[-1] < 1 - 1e-9:
            flat += 1
            if flat >= _STALL_WINDOW:
                stalled = True
        else:
            flat = 0
    return TransferResult(np.array(fids), theta, stalled, drift)


@dataclass(frozen=True)
class EntangleResult:
    fidelities: np.ndarray
    extraction_residual: float

    def __post_init__(self):
        arr = np.asarray(self.fidelities)
        arr.setflags(write=False)
        object.__setattr__(self, "fidelities", arr)


def entangle_ends(chain: TransferChain, iterations: int) -> EntangleResult:
    """Entangle the first and last spins through the relay.

    Two phases, `iterations` end-gate applications each.  A reference run
    first records the gate sequence that extracts (|spin 1> + |sink>)/sqrt2
    into the sink; running that sequence backwards on a transferred
    excitation then splits it coherently between the ends.  The fidelity trace is against the Bell-type target
    (|1 at spin 1> + |1 at spin n>)/sqrt2 and starts at 0.5.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration per phase")
    n = chain.n
    u = chain.propagator()
    bell = np.zeros(n + 1, dtype=complex)
    bell[1] = bell[n] = 1 / np.sqrt(2)

    # reference pass: extract the target superposition into the sink
    w = bell.copy()
    gates = []
    for _ in range(iterations):
        w, gate = _relay_step(u, w, 1.0)
        gates.append(np.eye(2, dtype=complex) if gate is None else gate)
    residual = float(1 - abs(w[n]) ** 2)

    # forward: plain transfer of the excitation to the sink
    v = np.zeros(n + 1, dtype=complex)
    v[1] = 1.0
    fids = [float(abs(np.vdot(bell, v)) ** 2)]
    for _ in range(iterations):
        v, _ = _relay_step(u, v, 1.0)
        fids.append(float(abs(np.vdot(bell, v)) ** 2))

    # backward: undo the recorded extraction, leaving the superposition
    for gate in reversed(gates):
        v[n - 1], v[n] = gate.conj().T @ np.array([v[n - 1], v[n]])
        v = u.conj().T @ v
        fids.append(float(abs(np.vdot(bell, v)) ** 2))
    return EntangleResult(np.array(fids), residual)
