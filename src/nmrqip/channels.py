"""Pauli channels: CPTP maps as products of Pauli-noise factors.

A Channel is an ordered sequence of factors, each acting on a subset of the
register.  A factor is a Pauli channel rho -> sum_Q p_Q Q rho Q on its m
qubits, stored as its probability vector over the 4^m Paulis Q.  Pauli
noise is the form twirling reduces any noise to (Flammia & Wallman,
arXiv:1907.12976), and it is the only noise nmrqip models.  Keeping the
factors unexpanded lets channels act on seven spins, where the materialized
tensor product would need 4^7 Kraus matrices.

A Pauli channel multiplies the coefficient of each Pauli P in rho by
lambda_P = sum_Q p_Q (+1 if [Q, P] = 0 else -1), the symplectic
Walsh-Hadamard transform of p.  The table of lambda on the whole register,
the product of the factors' tables, is a channel's one computed form; apply()
moves rho into the Pauli basis with two real matrix products, scales it by
the table and moves it back.  kraus() still materializes the full Kraus set
for n <= 5, as the exact oracle.

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

from .qop import PauliString, embed, pauli_matrices, sylvester_hadamard

_MATERIALIZE_LIMIT = 5  # qubits; full Kraus tensor beyond this is too large


def _check_pauli_probs(probs):
    if probs.min() < 0:
        raise ValueError("negative Pauli probability")
    total = probs.sum()
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"Pauli probabilities sum to {total}, not 1")


def compress_kraus(kraus, tol=1e-12):
    """Minimal Kraus set via the Choi-matrix spectrum (rank <= d^2)."""
    d = kraus[0].shape[0]
    choi = np.zeros((d * d, d * d), dtype=complex)
    for k in kraus:
        v = k.reshape(-1)
        choi += np.outer(v, v.conj())
    w, vecs = np.linalg.eigh(choi)
    out = []
    for lam, vec in zip(w, vecs.T):
        if lam > tol:
            out.append(np.sqrt(lam) * vec.reshape(d, d))
    return out


# ---------------------------------------------------------------------------
# Pauli factors


@lru_cache(maxsize=None)
def _xor_gather(n: int) -> np.ndarray:
    """Flat indices g[i, k] = i * d + (i ^ k): column k holds rho[i, i ^ k]."""
    idx = np.arange(2**n)
    g = idx[:, None] * 2**n + (idx[:, None] ^ idx[None, :])
    g.setflags(write=False)
    return g


def _pauli_eigenvalues(probs: np.ndarray, qubits, n: int) -> np.ndarray:
    """Table lam[z, x] of the Pauli eigenvalues of a factor on the n-qubit register."""
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
    """Pauli channel as ordered factors on qubit subsets of an n-qubit register.

    Each factor is (probs, qubits): probs is the 1-D vector of the 4^m Pauli
    probabilities of its m qubits (see the module docstring for its index
    order).
    """

    def __init__(self, n: int, factors):
        self.n = int(n)
        self.dim = 2**self.n
        norm_factors = []
        for probs, qubits in factors:
            qubits = tuple(qubits)
            probs = np.array(probs, dtype=float)
            if probs.shape != (4 ** len(qubits),):
                raise ValueError(f"Pauli vector shape {probs.shape} is not "
                                 f"(4^{len(qubits)},) for {len(qubits)} qubit labels")
            _check_pauli_probs(probs)
            probs.setflags(write=False)
            if any(q < 1 or q > self.n for q in qubits):
                raise ValueError(f"factor qubits {qubits} outside register 1..{self.n}")
            if len(set(qubits)) != len(qubits):
                raise ValueError("duplicate qubit labels")
            norm_factors.append((probs, qubits))
        self.factors = tuple(norm_factors)
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
        return cls(n, [(probs, tuple(range(1, n + 1)))])

    @classmethod
    def depolarizing(cls, n: int, p: float) -> "Channel":
        """rho -> (1-p) rho + p I/2^n."""
        hi = 4**n / (4**n - 1)
        if not 0 <= p <= hi:
            raise ValueError(f"depolarizing strength {p} outside [0, {hi:.6g}]")
        vec = np.full(4**n, p / 4**n)
        vec[0] += 1 - p
        return cls(n, [(vec, tuple(range(1, n + 1)))])

    # -- structure ----------------------------------------------------------

    def on(self, qubits, n: int) -> "Channel":
        """Lift this channel onto the given 1-based qubits of an n-qubit register."""
        qubits = tuple(qubits)
        if len(qubits) != self.n:
            raise ValueError(f"{len(qubits)} qubit labels for a {self.n}-qubit channel")
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate qubit labels")
        factors = []
        for probs, local in self.factors:
            factors.append((probs, tuple(qubits[q - 1] for q in local)))
        return Channel(n, factors)

    def kraus(self):
        """Materialized full-register Kraus list (guarded for n > 5).

        A factor contributes sqrt(p_Q) Q for each Pauli Q with p_Q > 0.
        """
        if self.n > _MATERIALIZE_LIMIT:
            raise ValueError(
                f"refusing to materialize Kraus tensor for n={self.n} (> {_MATERIALIZE_LIMIT})"
            )
        out = [np.eye(self.dim, dtype=complex)]
        for probs, qubits in self.factors:
            m = len(qubits)
            at = np.flatnonzero(probs)
            xz = [divmod(i, 2**m) for i in at.tolist()]
            ops = np.sqrt(probs[at])[:, None, None] * pauli_matrices(
                m, [(x, z, (x & z).bit_count()) for x, z in xz])
            lifted = [embed(k, qubits, self.n) for k in ops]
            out = [lk @ o for o in out for lk in lifted]
            if len(out) > self.dim**2:
                out = compress_kraus(out)
        return compress_kraus(out)

    # -- application --------------------------------------------------------

    def eigenvalues(self) -> np.ndarray:
        """Read-only table lam[z, x], computed on first use: this channel maps
        the Pauli X^x Z^z to lam[z, x] X^x Z^z."""
        if self._lam is None:
            lam = np.ones((self.dim, self.dim))
            for probs, qubits in self.factors:
                lam *= _pauli_eigenvalues(probs, qubits, self.n)
            lam.setflags(write=False)
            self._lam = lam
        return self._lam

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValueError(f"state dim {rho.shape} does not match channel dim {self.dim}")
        return _apply_pauli(rho, self.eigenvalues() / self.dim)

    def pauli_eigenvalue(self, p: PauliString) -> float:
        """lambda_P with P -> lambda_P P under this channel."""
        return float(self.eigenvalues()[p.z, p.x])


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

