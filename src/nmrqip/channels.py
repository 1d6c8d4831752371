"""Pauli channels: rho -> sum_Q p_Q Q rho Q, as one probability vector.

A Channel is a Pauli channel on an n-qubit register, stored as its
probability vector over the register's 4^n Paulis Q; Channel(probs) is its
one constructor, and n comes from the vector's length.  Pauli noise is the
form twirling reduces any noise to (Flammia & Wallman, arXiv:1907.12976),
and it is the only noise nmrqip models.  The vector has 4^n entries, so
channels act on seven spins, where a Kraus set would need 4^7 matrices of
128 x 128.  on() scatters a channel's vector onto chosen qubits of a larger
register, moving each key's x and z bits to those qubits.

A Pauli channel multiplies the coefficient of each Pauli P in rho by
lambda_P = sum_Q p_Q (+1 if [Q, P] = 0 else -1), the symplectic
Walsh-Hadamard transform of p.  The vector of lambda, in the index order of
p, is a channel's one computed form; apply() moves rho into the Pauli basis
with two real matrix products, scales it by lambda and moves it back.
kraus() still materializes the Kraus set sqrt(p_Q) Q for n <= 5, as the
exact oracle; the Paulis are trace-orthogonal, so that set is minimal.

Pauli vectors are the only Pauli error format: entry x << n | z is the
probability of X^x Z^z with the letters' phase (Y = i X Z), where x and z
are the bit masks of the Pauli's X and Z parts (qubit 1 most significant):
I = (0, 0), X = (1, 0), Z = (0, 1), Y = (1, 1).  The index's binary digits
are the symplectic bit vector: the key x << n | z of a packed Pauli entry
(nmrqip.qop) and of a Clifford tableau's table.  Channel and
pauli_probs_by_weight take and give such vectors; no Pauli word is
enumerated or parsed.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .qop import hermitian_entries, pauli_matrices, sylvester_hadamard

_MATERIALIZE_LIMIT = 5  # qubits; up to 4^n Kraus matrices beyond this are too large


@lru_cache(maxsize=None)
def _xor_gather(n: int) -> np.ndarray:
    """Flat indices g[i, k] = i * d + (i ^ k): column k holds rho[i, i ^ k]."""
    idx = np.arange(2**n)
    g = idx[:, None] * 2**n + (idx[:, None] ^ idx[None, :])
    g.setflags(write=False)
    return g


def _apply_pauli(rho: np.ndarray, lam_over_d: np.ndarray) -> np.ndarray:
    """sum_Q p_Q Q rho Q from the table lam_over_d[z, x] of eigenvalues / d."""
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
    """Pauli channel on an n-qubit register, from the 1-D vector of its 4^n
    Pauli probabilities (see the module docstring for its index order)."""

    def __init__(self, probs):
        self.probs = np.array(probs, dtype=float)
        self.n = (self.probs.size.bit_length() - 1) // 2
        if self.n < 1 or self.probs.shape != (4**self.n,):
            raise ValueError(f"Pauli vector shape {self.probs.shape} is not (4^n,) for n >= 1")
        if not self.probs.min() >= 0:  # NaN fails too
            raise ValueError("Pauli probabilities must be nonnegative")
        total = self.probs.sum()
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"Pauli probabilities sum to {total}, not 1")
        self.probs.setflags(write=False)
        self._lam = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def depolarizing(cls, n: int, p: float) -> "Channel":
        """rho -> (1-p) rho + p I/2^n."""
        hi = 4**n / (4**n - 1)
        if not 0 <= p <= hi:
            raise ValueError(f"depolarizing strength {p} outside [0, {hi:.6g}]")
        vec = np.full(4**n, p / 4**n)
        vec[0] += 1 - p
        return cls(vec)

    # -- structure ----------------------------------------------------------

    def on(self, qubits, n: int) -> "Channel":
        """This channel on the given 1-based qubits of an n-qubit register:
        each probability moves to the register key whose qubit qubits[j]
        carries the x and z bits of local qubit j + 1."""
        qubits = tuple(qubits)
        if len(qubits) != self.n:
            raise ValueError(f"{len(qubits)} qubit labels for a {self.n}-qubit channel")
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate qubit labels")
        if any(q < 1 or q > n for q in qubits):
            raise ValueError(f"channel qubits {qubits} outside register 1..{n}")
        m, local = self.n, np.arange(4**self.n)
        keys = np.zeros_like(local)
        for j, q in enumerate(qubits):
            keys |= (local >> (2 * m - 1 - j) & 1) << (2 * n - q)  # x bit
            keys |= (local >> (m - 1 - j) & 1) << (n - q)  # z bit
        return Channel(np.bincount(keys, self.probs, 4**n))  # keys are distinct

    def kraus(self):
        """Kraus list sqrt(p_Q) Q, one per Pauli Q with p_Q > 0 in key order
        (guarded for n > 5).  The Paulis are trace-orthogonal, so no smaller
        Kraus set gives the channel."""
        if self.n > _MATERIALIZE_LIMIT:
            raise ValueError(
                f"refusing to materialize Kraus set for n={self.n} (> {_MATERIALIZE_LIMIT})"
            )
        at = np.flatnonzero(self.probs)
        paulis = pauli_matrices(self.n, hermitian_entries(self.n, at))
        return list(np.sqrt(self.probs[at])[:, None, None] * paulis)

    # -- application --------------------------------------------------------

    def eigenvalues(self) -> np.ndarray:
        """Read-only vector lam[x << n | z], in the order of probs, computed
        on first use: this channel maps the Pauli X^x Z^z to lam X^x Z^z."""
        if self._lam is None:
            d, h = 2**self.n, sylvester_hadamard(self.n)
            # (H P H)[c, k] = sum_{a, b} p[a << n | b] (-1)^(a.c + b.k) is the
            # eigenvalue of the Pauli with z part c and x part k
            self._lam = (h @ self.probs.reshape(d, d) @ h).T.ravel()
            self._lam.setflags(write=False)
        return self._lam

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        d = 2**self.n
        if rho.shape != (d, d):
            raise ValueError(f"state dim {rho.shape} does not match channel dim {d}")
        return _apply_pauli(rho, self.eigenvalues().reshape(d, d).T / d)


def pauli_probs_by_weight(n: int, weight_masses: dict) -> np.ndarray:
    """Pauli error vector (indexed x * 2^n + z) spreading each weight
    class's mass uniformly.

    weight_masses maps error weight -> total probability of that class; each
    Pauli of weight w = popcount(x | z) gets mass / (C(n, w) 3^w), and the
    remainder lands on the identity, so Pr(no error) = 1 - sum(masses).
    """
    idx = np.arange(4**n)
    weights = np.bitwise_count((idx >> n | idx) & (2**n - 1))  # popcount(x | z)
    probs = np.zeros(4**n)
    total = 0.0
    for w, mass in weight_masses.items():
        w = int(w)
        if not 1 <= w <= n:
            raise ValueError(f"error weight {w} outside 1..{n}")
        if not mass >= 0:  # NaN fails too
            raise ValueError("class masses must be nonnegative")
        probs[weights == w] += mass / (math.comb(n, w) * 3**w)
        total += mass
    if not total <= 1 + 1e-12:
        raise ValueError(f"class masses sum to {total} > 1")
    probs[0] = 1 - total
    return probs

