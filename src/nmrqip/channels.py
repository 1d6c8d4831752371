"""CPTP channels: Kraus factors, Pauli noise, relaxation, gradient crush.

A Channel is an ordered sequence of factors, each acting on a subset of the
register.  A factor is either a list of Kraus matrices or a Pauli channel
rho -> sum_Q p_Q Q rho Q, stored as its probability vector over the 4^m
Pauli words of its m qubits.  Keeping per-spin factors unexpanded lets
relaxation channels scale to seven spins, where the materialized tensor
product would need 4^7 Kraus matrices.

A Pauli channel multiplies the coefficient of each Pauli P in rho by
lambda_P = sum_Q p_Q (+1 if [Q, P] = 0 else -1), the symplectic
Walsh-Hadamard transform of p (Flammia & Wallman, arXiv:1907.12976).  apply()
moves rho into that basis with two real matrix products, scales it by lambda
and moves it back; no Kraus matrix is built.  When lambda is the same on
every non-identity word (depolarizing noise) the closed form
(1 - p) rho + p tr(rho) I/d is used instead.  kraus() still materializes the
full Kraus set for n <= 5, as the exact oracle.

Pauli vectors are indexed x * 2^m + z, where x and z are the bit masks of
the word's X and Z parts (qubit 1 most significant): I = (0, 0),
X = (1, 0), Z = (0, 1), Y = (1, 1).  The index's binary digits are the
word's symplectic bit vector in nmrqip.clifford.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.linalg import hadamard

from .clifford import _from_bits, _to_bits
from .qop import SIGMA_I, SIGMA_Z, PauliString, all_pauli_words, embed, n_qubits, pauli_dense

_MATERIALIZE_LIMIT = 5  # qubits; full Kraus tensor beyond this is too large
# Eigenvalue spread below which a Pauli channel is applied as depolarizing.
# The transform's rounding spreads a depolarizing channel's eigenvalues by
# up to about 6e-15 at n = 7.
_DEPOLARIZING_ATOL = 1e-12


def _check_completeness(kraus, atol=1e-10):
    d = kraus[0].shape[0]
    s = sum(k.conj().T @ k for k in kraus)
    if np.max(np.abs(s - np.eye(d))) > atol:
        raise ValueError("Kraus set is not trace preserving")


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


def _is_pauli(op) -> bool:
    return isinstance(op, np.ndarray)


def _xz_index(word: str) -> int:
    """Index of a Pauli word in a Pauli probability vector."""
    return int("".join(map(str, _to_bits(PauliString(word)))), 2)


def _xz_word(index: int, m: int) -> str:
    return _from_bits([index >> s & 1 for s in range(2 * m - 1, -1, -1)], m).word


@lru_cache(maxsize=None)
def _hadamard(n: int) -> np.ndarray:
    """Sylvester Hadamard H[i, j] = (-1)^popcount(i & j) of size 2^n."""
    h = hadamard(2**n, dtype=float)
    h.setflags(write=False)
    return h


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
    h = _hadamard(m)
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
    h, g = _hadamard(n), _xor_gather(n)
    # column k of t is the diagonal band rho[i, i ^ k], the X-part-k component
    # of rho; the Hadamard over i splits it into Z parts
    t = rho.ravel()[g]
    t = (h @ t.view(float)).view(complex)
    t *= lam_over_d
    t = (h @ t.view(float)).view(complex)
    out = np.empty(d * d, dtype=complex)
    out[g] = t
    return out.reshape(d, d)


def _apply_step(op, qubits, n: int):
    """(kind, data) for applying one factor on the n-qubit register.

    kind is "kraus" (stacked full-register Kraus matrices), "pauli" (the
    eigenvalue table over d) or "depolarizing" (the strength p).
    """
    if not _is_pauli(op):
        return "kraus", np.stack([embed(k, qubits, n) for k in op])
    lam = _pauli_eigenvalues(op, qubits, n)
    rest = lam.ravel()[1:]
    if np.ptp(rest) <= _DEPOLARIZING_ATOL:
        return "depolarizing", 1.0 - float(rest.mean())
    return "pauli", lam / 2**n


class Channel:
    """CPTP map as ordered factors on qubit subsets of an n-qubit register.

    Each factor is (op, qubits): op is a sequence of Kraus matrices, or a
    1-D array of Pauli probabilities (see the module docstring for its index
    order).
    """

    def __init__(self, n: int, factors, check: bool = True):
        self.n = int(n)
        self.dim = 2**self.n
        norm_factors = []
        for op, qubits in factors:
            qubits = tuple(qubits)
            if _is_pauli(op):
                op = np.array(op, dtype=float)
                if op.size != 4 ** len(qubits):
                    raise ValueError("factor qubit labels do not match Pauli vector size")
                if check:
                    _check_pauli_probs(op)
                op.setflags(write=False)
            else:
                op = tuple(np.asarray(k, dtype=complex) for k in op)
                if n_qubits(op[0].shape[0]) != len(qubits):
                    raise ValueError("factor qubit labels do not match Kraus size")
                if check:
                    _check_completeness(op)
            if any(q < 1 or q > self.n for q in qubits):
                raise ValueError(f"factor qubits {qubits} outside register 1..{self.n}")
            norm_factors.append((op, qubits))
        self.factors = tuple(norm_factors)
        self._plan = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Channel":
        return cls(n, [([np.eye(2**n, dtype=complex)], tuple(range(1, n + 1)))], check=False)

    @classmethod
    def from_kraus(cls, kraus, n: int | None = None) -> "Channel":
        kraus = [np.asarray(k, dtype=complex) for k in kraus]
        if n is None:
            n = n_qubits(kraus[0].shape[0])
        return cls(n, [(kraus, tuple(range(1, n + 1)))])

    @classmethod
    def unitary(cls, u: np.ndarray) -> "Channel":
        u = np.asarray(u, dtype=complex)
        return cls.from_kraus([u])

    @classmethod
    def from_pauli_probs(cls, probs: dict, n: int | None = None) -> "Channel":
        """Pauli channel from a word -> probability map."""
        if n is None:
            n = len(next(iter(probs)))
        vec = np.zeros(4**n)
        for word, p in probs.items():
            if len(word) != n:
                raise ValueError(f"Pauli word {word!r} is not on {n} qubits")
            vec[_xz_index(word)] += p
        return cls(n, [(vec, tuple(range(1, n + 1)))])

    @classmethod
    def depolarizing(cls, n: int, p: float) -> "Channel":
        """rho -> (1-p) rho + p I/2^n."""
        if not 0 <= p <= 4**n / (4**n - 1):
            raise ValueError(f"depolarizing strength {p} out of range")
        vec = np.full(4**n, p / 4**n)
        vec[0] += 1 - p
        return cls(n, [(vec, tuple(range(1, n + 1)))])

    @classmethod
    def bit_flip(cls, p: float) -> "Channel":
        return cls.from_pauli_probs({"I": 1 - p, "X": p})

    @classmethod
    def phase_flip(cls, p: float) -> "Channel":
        return cls.from_pauli_probs({"I": 1 - p, "Z": p})

    @classmethod
    def amplitude_damping(cls, gamma: float) -> "Channel":
        if not 0 <= gamma <= 1:
            raise ValueError("gamma must be in [0, 1]")
        k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
        k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
        return cls.from_kraus([k0, k1])

    # -- structure ----------------------------------------------------------

    def on(self, qubits, n: int) -> "Channel":
        """Lift this channel onto the given 1-based qubits of an n-qubit register."""
        qubits = tuple(qubits)
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate qubit labels")
        factors = []
        for op, local in self.factors:
            factors.append((op, tuple(qubits[q - 1] for q in local)))
        return Channel(n, factors, check=False)

    def then(self, nxt: "Channel") -> "Channel":
        """Composite channel: apply self first, then nxt."""
        if nxt.n != self.n:
            raise ValueError("dim mismatch")
        return Channel(self.n, self.factors + nxt.factors, check=False)

    def tensor(self, other: "Channel") -> "Channel":
        n = self.n + other.n
        factors = list(self.factors)
        factors += [(op, tuple(q + self.n for q in qs)) for op, qs in other.factors]
        return Channel(n, factors, check=False)

    def kraus(self):
        """Materialized full-register Kraus list (guarded for n > 5).

        A Pauli factor contributes sqrt(p_Q) Q for each word Q with p_Q > 0.
        """
        if self.n > _MATERIALIZE_LIMIT:
            raise ValueError(
                f"refusing to materialize Kraus tensor for n={self.n} (> {_MATERIALIZE_LIMIT})"
            )
        out = [np.eye(self.dim, dtype=complex)]
        for op, qubits in self.factors:
            if _is_pauli(op):
                m = len(qubits)
                op = [np.sqrt(op[i]) * pauli_dense(_xz_word(i, m)) for i in np.flatnonzero(op)]
            lifted = [embed(k, qubits, self.n) for k in op]
            out = [lk @ o for o in out for lk in lifted]
            if len(out) > self.dim**2:
                out = compress_kraus(out)
        return compress_kraus(out)

    # -- application --------------------------------------------------------

    def _steps(self):
        if self._plan is None:
            self._plan = [_apply_step(op, qubits, self.n) for op, qubits in self.factors]
        return self._plan

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        d = self.dim
        if rho.shape != (d, d):
            raise ValueError(f"state dim {rho.shape} does not match channel dim {d}")
        out = rho
        for kind, data in self._steps():
            if kind == "depolarizing":
                out = (1 - data) * out + data * np.trace(out).real * np.eye(d) / d
            elif kind == "pauli":
                out = _apply_pauli(out, data)
            elif data.shape[0] == 1:
                k = data[0]
                out = k @ out @ k.conj().T
            else:
                out = np.tensordot(data @ out, data.conj(), axes=([0, 2], [0, 2]))
        return out

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return self.apply(rho)


def apply_channel(ch: Channel, rho: np.ndarray) -> np.ndarray:
    return ch.apply(rho)


def pauli_probs_by_weight(n: int, weight_masses: dict) -> dict:
    """Pauli error distribution spreading each weight class's mass uniformly.

    weight_masses maps error weight -> total probability of that class; the
    remainder lands on the identity, so Pr(no error) = 1 - sum(masses).
    """
    probs = {}
    total = 0.0
    words = all_pauli_words(n)
    weights = [n - word.count("I") for word in words]
    for w, mass in weight_masses.items():
        w = int(w)
        if not 1 <= w <= n:
            raise ValueError(f"error weight {w} outside 1..{n}")
        if mass < 0:
            raise ValueError("class masses must be nonnegative")
        share = mass / (math.comb(n, w) * 3**w)
        for word, weight in zip(words, weights):
            if weight == w:
                probs[word] = probs.get(word, 0.0) + share
        total += mass
    if total > 1 + 1e-12:
        raise ValueError(f"class masses sum to {total} > 1")
    probs["I" * n] = 1 - total
    return probs


def pauli_transfer_eigenvalue(probs: dict, word: str) -> float:
    """Eigenvalue of a Pauli channel on a Pauli-string observable.

    A Pauli channel maps P -> lambda_P P with
    lambda_P = sum_Q p_Q * (+1 if [Q, P] = 0 else -1).
    """
    p_ref = PauliString(word)
    lam = 0.0
    for q, p in probs.items():
        lam += p if PauliString(q).commutes(p_ref) else -p
    return lam


def t1t2_channel(sys, t: float) -> Channel:
    """Per-spin relaxation for time t: amplitude damping toward |0> plus the
    extra pure dephasing that brings transverse decay to exp(-t/T2*)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    factors = []
    for q in range(1, sys.n + 1):
        t1, t2 = sys.t1[q - 1], sys.t2star[q - 1]
        if t2 > t1:
            raise ValueError(f"spin {q}: T2* {t2} exceeds T1 {t1}")
        gamma = 1.0 - np.exp(-t / t1)
        rate = 1.0 / t2 - 1.0 / (2.0 * t1)  # leftover pure-dephasing rate
        p = 0.5 * (1.0 - np.exp(-rate * t))
        ad = Channel.amplitude_damping(gamma)
        deph = [np.sqrt(1 - p) * SIGMA_I, np.sqrt(p) * SIGMA_Z]
        one = compress_kraus([kd @ ka for ka in ad.factors[0][0] for kd in deph])
        factors.append((one, (q,)))
    return Channel(sys.n, factors, check=False)


def depolarize_via_gradient(rho: np.ndarray, targets) -> np.ndarray:
    """Rotate targets into the transverse plane, then crush their coherences.

    The crush zeroes every element off-diagonal in the targets' z-basis,
    the dense-matrix equivalent of dephasing under a strong field gradient.
    """
    from .control import rotation

    targets = sorted(set(targets))
    if not targets:
        raise ValueError("need at least one target")
    rho = np.asarray(rho, dtype=complex)
    n = n_qubits(rho.shape[0])
    for q in targets:
        r = rotation("y", np.pi / 2, q, n)
        rho = r @ rho @ r.conj().T
    return crush_coherences(rho, targets)


def crush_coherences(rho: np.ndarray, targets) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    n = n_qubits(rho.shape[0])
    idx = np.arange(rho.shape[0])
    mask = 0
    for q in targets:
        mask |= 1 << (n - q)
    tgt_bits = idx & mask
    keep = tgt_bits[:, None] == tgt_bits[None, :]
    return np.where(keep, rho, 0.0)


def interleave(unitary_steps, ch_per_step: Channel) -> Channel:
    """Channel applying U_m then the noise step, for each m in order."""
    n = ch_per_step.n
    factors = []
    for u in unitary_steps:
        factors.append(([np.asarray(u, dtype=complex)], tuple(range(1, n + 1))))
        factors.extend(ch_per_step.factors)
    if not factors:
        return Channel.identity(n)
    return Channel(n, factors, check=False)
