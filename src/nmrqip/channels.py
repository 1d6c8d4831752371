"""Pauli channels: rho -> sum_Q p_Q Q rho Q, as one probability vector.

A Channel is a Pauli channel on m qubits of an n-qubit register, stored as
its probability vector over the 4^m Paulis Q of those qubits and the tuple of
their labels.  Pauli noise is the form twirling reduces any noise to
(Flammia & Wallman, arXiv:1907.12976), and it is the only noise nmrqip
models.  The vector has 4^n entries at most, so channels act on seven spins,
where a Kraus set would need 4^7 matrices of 128 x 128.

A Pauli channel multiplies the coefficient of each Pauli P in rho by
lambda_P = sum_Q p_Q (+1 if [Q, P] = 0 else -1), the symplectic
Walsh-Hadamard transform of p.  The table of lambda on the whole register is
a channel's one computed form; apply() moves rho into the Pauli basis with
two real matrix products, scales it by the table and moves it back.
kraus() still materializes the Kraus set sqrt(p_Q) Q for n <= 5, as the
exact oracle; the Paulis are trace-orthogonal, so that set is minimal.

Pauli vectors are the only Pauli error format: entry x * 2^m + z is the
probability of X^x Z^z with the letters' phase (Y = i X Z), where x and z
are the bit masks of the Pauli's X and Z parts (qubit 1 most significant):
I = (0, 0), X = (1, 0), Z = (0, 1), Y = (1, 1).  The index's binary digits
are the symplectic bit vector, the (x, z) masks of qop.PauliString.
from_pauli_probs and pauli_probs_by_weight take and give such vectors; no
Pauli word is enumerated or parsed.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .qop import embed, pauli_matrices, sylvester_hadamard

_MATERIALIZE_LIMIT = 5  # qubits; up to 4^n Kraus matrices beyond this are too large


@lru_cache(maxsize=None)
def _xor_gather(n: int) -> np.ndarray:
    """Flat indices g[i, k] = i * d + (i ^ k): column k holds rho[i, i ^ k]."""
    idx = np.arange(2**n)
    g = idx[:, None] * 2**n + (idx[:, None] ^ idx[None, :])
    g.setflags(write=False)
    return g


def _pauli_eigenvalues(probs: np.ndarray, qubits, n: int) -> np.ndarray:
    """Table lam[z, x] of the Pauli eigenvalues of the channel with Pauli
    vector probs on the given qubits of the n-qubit register."""
    m = len(qubits)
    h = sylvester_hadamard(m)
    # (H p H)[c, k] = sum_{a, b} p[a, b] (-1)^(a.c + b.k): the eigenvalue of
    # the word with z part c and x part k
    local = h @ probs.reshape(2**m, 2**m) @ h
    idx = np.arange(2**n)
    loc = np.zeros(2**n, dtype=np.intp)
    for j, q in enumerate(qubits):
        loc |= ((idx >> (n - q)) & 1) << (m - 1 - j)
    return local[np.ix_(loc, loc)]


def _apply_pauli(rho: np.ndarray, lam_over_d: np.ndarray) -> np.ndarray:
    """sum_Q p_Q Q rho Q from the eigenvalue table lam[z, x] / d."""
    d = rho.shape[0]
    n = d.bit_length() - 1
    h, g = sylvester_hadamard(n), _xor_gather(n)
    # column k of t is the diagonal band rho[i, i ^ k], the X-part-k component
    # of rho; the Hadamard over i splits it into Z parts
    t = rho.ravel()[g]
    t = (h @ t.view(float)).view(complex)
    t *= lam_over_d
    t = (h @ t.view(float)).view(complex)
    out = np.empty(d * d, dtype=complex)
    out[g] = t
    return out.reshape(d, d)


class Channel:
    """Pauli channel on the given 1-based qubits of an n-qubit register.

    probs is the 1-D vector of the 4^m Pauli probabilities of its m qubits
    (see the module docstring for its index order).
    """

    def __init__(self, n: int, probs, qubits):
        self.n = int(n)
        self.dim = 2**self.n
        self.qubits = tuple(qubits)
        self.probs = np.array(probs, dtype=float)
        m = len(self.qubits)
        if self.probs.shape != (4**m,):
            raise ValueError(f"Pauli vector shape {self.probs.shape} is not "
                             f"(4^{m},) for {m} qubit labels")
        if self.probs.min() < 0:
            raise ValueError("negative Pauli probability")
        total = self.probs.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"Pauli probabilities sum to {total}, not 1")
        self.probs.setflags(write=False)
        if any(q < 1 or q > self.n for q in self.qubits):
            raise ValueError(f"channel qubits {self.qubits} outside register 1..{self.n}")
        if len(set(self.qubits)) != m:
            raise ValueError("duplicate qubit labels")
        self._lam = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_pauli_probs(cls, probs) -> "Channel":
        """Pauli channel from its probability vector of length 4^n, indexed
        x * 2^n + z (see the module docstring)."""
        probs = np.asarray(probs, dtype=float)
        n = (probs.size.bit_length() - 1) // 2
        if n < 1 or probs.shape != (4**n,):
            raise ValueError(f"Pauli vector shape {probs.shape} is not (4^n,) for n >= 1")
        return cls(n, probs, range(1, n + 1))

    @classmethod
    def depolarizing(cls, n: int, p: float) -> "Channel":
        """rho -> (1-p) rho + p I/2^n."""
        hi = 4**n / (4**n - 1)
        if not 0 <= p <= hi:
            raise ValueError(f"depolarizing strength {p} outside [0, {hi:.6g}]")
        vec = np.full(4**n, p / 4**n)
        vec[0] += 1 - p
        return cls(n, vec, range(1, n + 1))

    # -- structure ----------------------------------------------------------

    def on(self, qubits, n: int) -> "Channel":
        """Lift this channel onto the given 1-based qubits of an n-qubit register."""
        qubits = tuple(qubits)
        if len(qubits) != self.n:
            raise ValueError(f"{len(qubits)} qubit labels for a {self.n}-qubit channel")
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate qubit labels")
        return Channel(n, self.probs, (qubits[q - 1] for q in self.qubits))

    def kraus(self):
        """Full-register Kraus list sqrt(p_Q) Q, one per Pauli Q with p_Q > 0
        (guarded for n > 5).  The Paulis are trace-orthogonal, so no smaller
        Kraus set gives the channel."""
        if self.n > _MATERIALIZE_LIMIT:
            raise ValueError(
                f"refusing to materialize Kraus set for n={self.n} (> {_MATERIALIZE_LIMIT})"
            )
        m = len(self.qubits)
        at = np.flatnonzero(self.probs)
        xz = [divmod(i, 2**m) for i in at.tolist()]
        ops = np.sqrt(self.probs[at])[:, None, None] * pauli_matrices(
            m, [(x, z, (x & z).bit_count()) for x, z in xz])
        return [embed(k, self.qubits, self.n) for k in ops]

    # -- application --------------------------------------------------------

    def eigenvalues(self) -> np.ndarray:
        """Read-only table lam[z, x], computed on first use: this channel maps
        the Pauli X^x Z^z to lam[z, x] X^x Z^z."""
        if self._lam is None:
            self._lam = _pauli_eigenvalues(self.probs, self.qubits, self.n)
            self._lam.setflags(write=False)
        return self._lam

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValueError(f"state dim {rho.shape} does not match channel dim {self.dim}")
        return _apply_pauli(rho, self.eigenvalues() / self.dim)


def pauli_probs_by_weight(n: int, weight_masses: dict) -> np.ndarray:
    """Pauli error vector (indexed x * 2^n + z) spreading each weight
    class's mass uniformly.

    weight_masses maps error weight -> total probability of that class; each
    Pauli of weight w = popcount(x | z) gets mass / (C(n, w) 3^w), and the
    remainder lands on the identity, so Pr(no error) = 1 - sum(masses).
    """
    idx = np.arange(4**n)
    support = (idx >> n | idx) & (2**n - 1)  # x | z
    weights = sum(support >> q & 1 for q in range(n))
    probs = np.zeros(4**n)
    total = 0.0
    for w, mass in weight_masses.items():
        w = int(w)
        if not 1 <= w <= n:
            raise ValueError(f"error weight {w} outside 1..{n}")
        if mass < 0:
            raise ValueError("class masses must be nonnegative")
        probs[weights == w] += mass / (math.comb(n, w) * 3**w)
        total += mass
    if total > 1 + 1e-12:
        raise ValueError(f"class masses sum to {total} > 1")
    probs[0] = 1 - total
    return probs

