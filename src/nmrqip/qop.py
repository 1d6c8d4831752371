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

A Pauli i^k X^x Z^z on n qubits is one packed int entry
x << (n + 2) | z << 2 | k, with n passed beside it: x and z are the bit
masks of its X and Z parts with qubit 1 as the most significant bit
(X = (1, 0), Z = (0, 1), Y = (1, 1)), and k is the phase exponent mod 4.
Since Y = i X Z, the sign in front of its letters is i^(k - popcount(x & z));
hermitian_entries packs the phase +1 Paulis at keys x << n | z, one or an
array.  Products and commutation are integer operations on entries.
Generated Paulis are built from bits (spin_bits gives a one-qubit Pauli's),
never by joining letters: pauli_entry parses only literals and pauli_word
prints letters for CSVs.  Dense operators are built from the bits, with no
cache: pauli_matrices stacks those of entries (a tableau's encoding) and
pauli_sum adds up Pauli-sum operators such as Hamiltonians.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

SIGMA_I = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"I": SIGMA_I, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}

KET0 = np.array([1, 0], dtype=complex)

# i^e for e = 0..3
_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


def tensor(*ops):
    """Kronecker product of the given operators, leftmost factor first."""
    return reduce(np.kron, ops)


def n_qubits(dim: int) -> int:
    n = int(round(np.log2(dim)))
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of 2")
    return n


def pauli_entry(word: str) -> int:
    """Packed entry of a Pauli word such as "XZZXI", at phase +1."""
    x = z = 0
    for c in word:
        if c not in "IXYZ":
            raise ValueError(f"bad Pauli word {word!r}")
        x, z = x << 1 | (c in "XY"), z << 1 | (c in "YZ")
    return int(hermitian_entries(len(word), x << len(word) | z))


def pauli_word(n: int, entry) -> str:
    """The letters of a packed entry, qubit 1 first; its phase is not shown."""
    return "".join("IXZY"[(entry >> (n + 2 + s) & 1) | (entry >> (2 + s) & 1) << 1]
                   for s in range(n - 1, -1, -1))


def commutes(n: int, a, b) -> bool:
    """Whether the Paulis of packed entries a and b commute: their symplectic
    product x_a . z_b + z_a . x_b is even."""
    return ((a >> (n + 2) & b >> 2) ^ (a >> 2 & b >> (n + 2))).bit_count() % 2 == 0


def _pauli_entries(n: int, x, z, k):
    """(rows, values) of i^k X^x Z^z, one entry per column a = 0..2^n - 1.

    X^x Z^z |a> = (-1)^popcount(z & a) |a ^ x>, so column a holds
    i^k H[z, a] at row a ^ x, with H the Sylvester Hadamard matrix.
    x, z and k are ints or broadcastable int arrays.
    """
    return np.arange(2**n) ^ x, np.array(_PHASES)[k % 4] * sylvester_hadamard(n)[z]


def spin_bits(axis: str, spin: int, n: int) -> tuple:
    """(x, z) bits of sigma_axis (x, y or z, either case) on one 1-based qubit of n."""
    b = 1 << (n - spin)
    return {"x": (b, 0), "y": (b, b), "z": (0, b)}[axis.lower()]


def pauli_matrices(n: int, entries) -> np.ndarray:
    """(m, d, d) stack of the matrices i^k X^x Z^z of m packed entries
    x << (n + 2) | z << 2 | k."""
    e = np.asarray(entries, dtype=np.intp).reshape(-1, 1)
    d = 2**n
    out = np.zeros((len(e), d, d), dtype=complex)
    at, values = _pauli_entries(n, e >> (n + 2), e[:, 0] >> 2 & d - 1, e & 3)
    out[np.arange(len(e))[:, None], at, np.arange(d)] = values
    return out


def hermitian_entries(n: int, keys) -> np.ndarray:
    """Packed entries of the phase +1 Paulis at an int key x << n | z or an
    int array of them."""
    keys = np.asarray(keys)
    return keys << 2 | np.bitwise_count(keys >> n & keys) & 3  # k = popcount(x & z) mod 4


def pauli_sum(n: int, terms) -> np.ndarray:
    """Dense sum of c X^x Z^z i^popcount(x & z) over (c, x, z) terms.

    Each Pauli has phase +1 (its word's letters, e.g. Y = i X Z) and the
    terms are added in the order given, each to its 2^n nonzero entries.
    """
    d = 2**n
    out = np.zeros((d, d), dtype=complex)
    cols = np.arange(d)
    for c, x, z in terms:
        at, values = _pauli_entries(n, x, z, (x & z).bit_count())
        out[at, cols] += c * values
    return out


@lru_cache(maxsize=None)
def sylvester_hadamard(n: int) -> np.ndarray:
    """Read-only Sylvester Hadamard H[i, j] = (-1)^popcount(i & j) of size 2^n."""
    h = np.ones((1, 1))
    for _ in range(n):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


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


def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Trace out all qubits not in `keep` (1-based labels, order preserved)."""
    rho = np.asarray(rho, dtype=complex)
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


def controlled(u: np.ndarray) -> np.ndarray:
    """Controlled-U with the control qubit as the leading tensor factor."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    out = np.eye(2 * d, dtype=complex)
    out[-d:, -d:] = u
    return out


_AXES = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def rotation(axis: str, angle: float, qubit: int = 1, n: int = 1) -> np.ndarray:
    """exp(-i angle sigma_axis / 2) about axis 'x', 'y' or 'z', embedded on
    one 1-based qubit."""
    u = np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * _AXES[axis.lower()]
    return embed(u, [qubit], n) if n > 1 else u


def collective_rotation(axis: str, angle: float, n: int) -> np.ndarray:
    """exp(-i angle sum_q I_q^axis): one `rotation` per spin, as they commute."""
    return tensor(*[rotation(axis, angle)] * n)


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

