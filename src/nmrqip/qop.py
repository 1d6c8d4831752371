"""Dense operator algebra for few-qubit density-matrix simulation.

Conventions used across the package:

* qubit labels are 1-based and qubit 1 is the leftmost (most significant)
  tensor factor, so basis index b = sum_i bit_i 2^(n-i);
* |0> is the +1 eigenstate of sigma_z ("spin up");
* spin operators are I_a = sigma_a / 2;
* rotations are R_n(theta) = exp(-i theta (n.sigma)/2) and propagators are
  exp(-i H t) with H in rad/s.

States are plain complex ndarrays (density operators unless noted), which
keeps the linear algebra composable; validators below enforce the contracts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

SIGMA_I = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"I": SIGMA_I, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)

# single-letter products: (a, b) -> (phase, letter) with a*b = phase*letter
_LETTER_PRODUCT = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("Y", "I"): (1, "Y"), ("Z", "I"): (1, "Z"),
    ("X", "X"): (1, "I"), ("Y", "Y"): (1, "I"), ("Z", "Z"): (1, "I"),
    ("X", "Y"): (1j, "Z"), ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"), ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"), ("X", "Z"): (-1j, "Y"),
}

_PHASES = (1 + 0j, -1 + 0j, 1j, -1j)


def tensor(*ops):
    """Kronecker product of the given operators, leftmost factor first."""
    return reduce(np.kron, ops)


def n_qubits(dim: int) -> int:
    n = int(round(np.log2(dim)))
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of 2")
    return n


@dataclass(frozen=True)
class PauliString:
    """Signed Pauli word, e.g. -1 * XZI, with phase restricted to +-1, +-i."""

    word: str
    phase: complex = 1 + 0j

    def __post_init__(self):
        if any(c not in "IXYZ" for c in self.word):
            raise ValueError(f"bad Pauli word {self.word!r}")
        ph = complex(self.phase)
        if not any(abs(ph - p) < 1e-12 for p in _PHASES):
            raise ValueError(f"phase {ph} not a fourth root of unity")
        # snap to the exact root so equality is exact
        object.__setattr__(self, "phase", min(_PHASES, key=lambda p: abs(ph - p)))

    @property
    def n(self) -> int:
        return len(self.word)

    @property
    def weight(self) -> int:
        return sum(c != "I" for c in self.word)

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise ValueError("length mismatch")
        phase = self.phase * other.phase
        letters = []
        for a, b in zip(self.word, other.word):
            p, c = _LETTER_PRODUCT[(a, b)]
            phase *= p
            letters.append(c)
        return PauliString("".join(letters), phase)

    def commutes(self, other: "PauliString") -> bool:
        clashes = sum(
            1
            for a, b in zip(self.word, other.word)
            if a != "I" and b != "I" and a != b
        )
        return clashes % 2 == 0

    def dense(self) -> np.ndarray:
        if self.phase == 1:
            return _pauli_dense_cached(self.word)
        return self.phase * _pauli_dense_cached(self.word)

    def __str__(self):
        tag = {1 + 0j: "+", -1 + 0j: "-", 1j: "+i", -1j: "-i"}[self.phase]
        return f"{tag}{self.word}"


_PAULI_DENSE_CACHE: dict[str, np.ndarray] = {}
# words on more qubits are rebuilt on each call; all 4^5 five-qubit words
# together take 16 MiB, one seven-qubit word 256 KiB
_PAULI_DENSE_CACHE_MAX_N = 5


def _pauli_dense_cached(word: str) -> np.ndarray:
    mat = _PAULI_DENSE_CACHE.get(word)
    if mat is None:
        mat = tensor(*(PAULIS[c] for c in word))
        mat.setflags(write=False)
        if len(word) <= _PAULI_DENSE_CACHE_MAX_N:
            _PAULI_DENSE_CACHE[word] = mat
    return mat


def pauli_dense(word: str) -> np.ndarray:
    """Dense matrix of an unsigned Pauli word such as 'XZI' (readonly view)."""
    return PauliString(word).dense()


def all_pauli_words(n: int):
    """All 4^n Pauli words on n qubits, identity first, lexicographic."""
    words = [""]
    for _ in range(n):
        words = [w + c for w in words for c in "IXYZ"]
    return words


def basis_ket(bits, n: int | None = None) -> np.ndarray:
    """Computational basis ket from a bit string like '010' or an int index."""
    if isinstance(bits, str):
        idx, n = int(bits, 2), len(bits)
    else:
        idx = int(bits)
        if n is None:
            raise ValueError("n required when bits is an index")
    ket = np.zeros(2**n, dtype=complex)
    ket[idx] = 1.0
    return ket


def ket_density(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def check_density(rho: np.ndarray, atol: float = 1e-10) -> np.ndarray:
    """Validate Hermiticity, unit trace, and positivity of a density operator."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density operator must be square")
    n_qubits(rho.shape[0])
    if np.max(np.abs(rho - rho.conj().T)) > atol:
        raise ValueError("not Hermitian")
    if abs(np.trace(rho) - 1.0) > atol:
        raise ValueError(f"trace {np.trace(rho)} != 1")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -atol:
        raise ValueError(f"negative eigenvalue {evals.min()}")
    return rho


def check_unitary(u: np.ndarray, atol: float = 1e-10) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("unitary must be square")
    d = u.shape[0]
    if np.max(np.abs(u.conj().T @ u - np.eye(d))) > atol:
        raise ValueError("not unitary")
    return u


def embed(op: np.ndarray, qubits, n: int) -> np.ndarray:
    """Place an m-qubit operator on the given 1-based qubit labels of n qubits.

    The operator's tensor factors map to `qubits` in the order given; all
    remaining qubits get identities.
    """
    qubits = list(qubits)
    m = n_qubits(op.shape[0])
    if len(qubits) != m:
        raise ValueError("qubit count does not match operator size")
    if len(set(qubits)) != m or any(q < 1 or q > n for q in qubits):
        raise ValueError(f"bad qubit labels {qubits} for n={n}")
    rest = [q for q in range(1, n + 1) if q not in qubits]
    full = np.kron(op, np.eye(2 ** len(rest), dtype=complex))
    order = qubits + rest  # current axis -> qubit label
    perm = [order.index(q) for q in range(1, n + 1)]
    t = full.reshape((2,) * (2 * n))
    t = np.transpose(t, perm + [n + p for p in perm])
    return np.ascontiguousarray(t.reshape(2**n, 2**n))


def partial_trace(rho: np.ndarray, keep, n: int | None = None) -> np.ndarray:
    """Trace out all qubits not in `keep` (1-based labels, order preserved)."""
    rho = np.asarray(rho, dtype=complex)
    if n is None:
        n = n_qubits(rho.shape[0])
    keep = sorted(set(keep))
    if not keep or any(q < 1 or q > n for q in keep):
        raise ValueError(f"bad keep set {keep} for n={n}")
    t = rho.reshape((2,) * (2 * n))
    cur_n = n
    labels = list(range(1, n + 1))
    for q in sorted((set(range(1, n + 1)) - set(keep)), reverse=True):
        ax = labels.index(q)
        t = np.trace(t, axis1=ax, axis2=ax + cur_n)
        labels.remove(q)
        cur_n -= 1
    d = 2 ** len(keep)
    return t.reshape(d, d)


def expectation(rho: np.ndarray, obs: np.ndarray) -> float:
    """Tr(rho * obs) for Hermitian obs, returned as a real number."""
    val = np.trace(rho @ obs)
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise ValueError(f"expectation has imaginary part {val.imag}")
    return float(val.real)


def controlled(u: np.ndarray, n_controls: int = 1) -> np.ndarray:
    """Controlled-U with the control qubits as the leading tensor factors."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    dc = 2**n_controls
    out = np.eye(dc * d, dtype=complex)
    out[-d:, -d:] = u
    return out


def gate_fidelity_hs(u_th: np.ndarray, u_exp: np.ndarray) -> float:
    """Squared Hilbert-Schmidt gate overlap |Tr(U_th U_exp^dag)|^2 / 4^n."""
    u_th = np.asarray(u_th, dtype=complex)
    u_exp = np.asarray(u_exp, dtype=complex)
    if u_th.shape != u_exp.shape:
        raise ValueError("shape mismatch")
    d = u_th.shape[0]
    n_qubits(d)
    return float(abs(np.trace(u_th @ u_exp.conj().T)) ** 2 / d**2)


def state_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clipped to [0, 1]."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    sq = (v * np.sqrt(w)) @ v.conj().T
    inner = sq @ sigma @ sq
    evals = np.linalg.eigvalsh(inner)
    f = np.sum(np.sqrt(np.clip(evals, 0.0, None))) ** 2
    return float(min(max(f.real, 0.0), 1.0))


def average_gate_fidelity_exact(kraus, u_target: np.ndarray) -> float:
    """Exact average gate fidelity of a Kraus channel against a target unitary.

    Uses F_avg = (d * F_e + 1)/(d + 1) with the entanglement fidelity
    F_e = sum_k |Tr(U^dag K_k)|^2 / d^2 of the target-twisted channel.
    """
    kraus = [np.asarray(k, dtype=complex) for k in kraus]
    u_target = np.asarray(u_target, dtype=complex)
    d = u_target.shape[0]
    fe = sum(abs(np.trace(u_target.conj().T @ k)) ** 2 for k in kraus) / d**2
    return float((d * fe + 1) / (d + 1))


def haar_random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def haar_random_state(d: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """(x, y, z) expectation triple of a single-qubit state."""
    if rho.shape != (2, 2):
        raise ValueError("bloch_vector is for one qubit")
    return np.array([np.trace(rho @ s).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])
