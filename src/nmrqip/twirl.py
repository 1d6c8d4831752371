"""Twirling-based certification: memory fidelity, Clifford-gate fidelity, RB.

Memory and Clifford-gate certification share one primitive: prepare a
deviation state whose traceless part is a random non-identity Pauli M, push
it through the noisy process, and read out the coefficient of the expected
output Pauli.  All shots are drawn in one call, as a uniform index into the
4^n - 1 non-identity Paulis and a uniform sign.  A memory shot reads the
channel's eigenvalue lambda_M at M's key, whatever the sign of M.  A noisy
Clifford gate is its Pauli noise followed by the dense unitary U of its
target's table; its shot reads lambda_M tr(T(M) U M U^dag)/d for the image
T(M) of M's packed entry in that table, one trace per distinct signed Pauli,
all in one batched product.  A finite-shot binomial readout, if asked for,
is drawn for all shots in one call.  The mean coefficient maps affinely to
Pr(no error), and the average gate fidelity follows as
fbar = (2^n Pr0 + 1)/(2^n + 1).

A gate set for randomized benchmarking is one (m, 4^n) stack of Clifford
tables from one nmrqip.clifford.circuit_tableaux call.  Under Pauli noise
its phases are shifted out: row g holds gate g's image key x' << n | z' of
every Pauli key x << n | z, up to sign.  All sequences of one length advance
at once: each step gathers every sequence's next key at its drawn gate index
and multiplies its survival by the noise's eigenvalue there, so no density
matrix or per-gate Pauli object is formed.  The decay A p^m + B is fitted by
variable projection in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel
from .clifford import circuit_tableaux, compose, unitaries
from .qop import hermitian_entries, pauli_matrices


@dataclass(frozen=True)
class TwirlEstimate:
    pr0_hat: float
    n_samples: int
    stderr: float = 0.0
    n: int = 1
    fbar: float = field(init=False)

    def __post_init__(self):
        d = 2**self.n
        object.__setattr__(self, "fbar", (d * self.pr0_hat + 1) / (d + 1))


def recommended_samples(n: int, delta: float, confidence: float = 0.05) -> int:
    """Hoeffding sample count: |pr0_hat - Pr0| <= delta except with the given
    failure probability, assuming per-shot range 1."""
    return math.ceil(math.log(2 * n / confidence) / (2 * delta**2))


def _sample_paulis(n: int, count: int, rng, with_replacement: bool):
    """(index, sign) int arrays of count non-identity Paulis: index in
    1..4^n - 1 of the x << n | z order, sign 1 for -P.

    With replacement every signed Pauli is equally likely; without, the
    indices are distinct and every sign is +.
    """
    if with_replacement:
        return rng.integers(1, 4**n, size=count), rng.integers(2, size=count)
    total = 4**n - 1
    if count > total:
        raise ValueError(f"cannot draw {count} distinct Paulis from {total}")
    # index i + 1 of the x << n | z order skips the identity at 0
    return rng.choice(total, size=count, replace=False) + 1, np.zeros(count, dtype=np.int64)


def _shot_values(noise: Channel, idx, sign, target, readout_shots, rng) -> np.ndarray:
    """Per-shot survival coefficients of the drawn input Paulis
    M = (-1)^sign P_idx under the noise, then, with a target, its dense
    unitary U and a readout of the tableau image T(M).

    With readout_shots, every shot then gets its own binomial readout, drawn
    in shot order in one call.
    """
    lam = noise.eigenvalues()
    if target is None:
        chis = lam[idx]
    else:
        n = noise.n
        keys = np.flatnonzero(np.bincount(idx << 1 | sign))  # distinct, sorted, in O(shots)
        p = keys >> 1
        entries = hermitian_entries(n, p) ^ 2 * (keys & 1)  # packed (-1)^sign P
        u = unitaries(target)
        conj = u @ pauli_matrices(n, entries) @ u.conj().T
        t = pauli_matrices(n, compose(entries, target))
        chis = np.empty(2 * 4**n)  # per key, then gathered per shot
        chis[keys] = lam[p] * np.einsum("kij,kji->k", t, conj).real / 2**n
        chis = chis[idx << 1 | sign]
    if readout_shots:
        q = np.clip((1 + chis) / 2, 0.0, 1.0)
        # doubles the fraction, not the counts, which overflow int64 past 2^62
        chis = 2 * (rng.binomial(readout_shots, q) / readout_shots) - 1
    return chis


def _twirl(noise: Channel, target, delta, rng, n_samples, readout_shots,
           with_replacement) -> TwirlEstimate:
    """Survival estimate over random input Paulis M, each sent through the
    noise (and the target's unitary) and read out as M (or T(M))."""
    if not 0 < delta < 0.5:
        raise ValueError("delta must be in (0, 0.5)")
    n = noise.n
    count = n_samples if n_samples is not None else recommended_samples(n, delta)
    idx, sign = _sample_paulis(n, count, rng, with_replacement)
    chis = _shot_values(noise, idx, sign, target, readout_shots, rng)
    scale = (4**n - 1) / 4**n
    pr0 = scale * float(np.mean(chis)) + 1 / 4**n
    stderr = scale * float(np.std(chis)) / math.sqrt(count)
    return TwirlEstimate(pr0, count, stderr, n)


def twirl_estimate_memory(
    noise: Channel,
    delta: float,
    rng: np.random.Generator,
    n_samples: int | None = None,
    readout_shots: int | None = None,
    with_replacement: bool = True,
) -> TwirlEstimate:
    """Estimate Pr(no error) and average fidelity of a memory channel.

    Each shot measures the survival coefficient of one random Pauli, which
    for a Pauli channel is its eigenvalue.
    """
    return _twirl(noise, None, delta, rng, n_samples, readout_shots, with_replacement)


def certify_clifford(
    noise: Channel,
    target: np.ndarray,
    delta: float,
    rng: np.random.Generator,
    n_samples: int | None = None,
    readout_shots: int | None = None,
) -> TwirlEstimate:
    """Average-fidelity estimate of the Pauli noise in a noisy Clifford gate.

    Models the gate as the noise followed by the dense unitary U of the
    target's table; the readout Pauli is the table's image of the input, so
    the survival coefficient falls below 1 only through the noise, or where
    the table and U disagree.
    """
    if target.shape != (4**noise.n,):
        raise ValueError("target size does not match noise")
    return _twirl(noise, target, delta, rng, n_samples, readout_shots, with_replacement=True)


# ---------------------------------------------------------------------------
# randomized benchmarking


@dataclass
class RBResult:
    lengths: list
    survivals: list
    amplitude: float
    offset: float
    decay: float  # per-gate depolarizing parameter p
    error_rate: float  # r = (1 - p)(1 - 1/2^n)
    ok: bool
    message: str


def default_rb_sampler(n: int):
    """Clifford generating set as (stack of tables, probabilities): 2/3
    uniform over the single-qubit {H, S H S^dag}, 1/3 uniform over the
    directed nearest-neighbour CNOTs, and all on the singles at n = 1."""
    singles = [[(g, (q,)) for g in word] for q in range(1, n + 1) for word in ("H", "SSSHS")]
    cnots = [[("CNOT", pair)] for q in range(1, n) for pair in ((q, q + 1), (q + 1, q))]
    tables = circuit_tableaux(singles + cnots, n)
    if not cnots:
        return tables, np.full(len(singles), 1 / len(singles))
    return tables, np.repeat([2 / 3 / len(singles), 1 / 3 / len(cnots)],
                             [len(singles), len(cnots)])


# +pi/2, -pi/2 and pi rotations about x, y and z up to phase, as gate words
# whose first letter acts first
_ROTATIONS = ("HSH", "SHS", "X", "HX", "HZ", "Y", "S", "SZ", "Z")


def rotation_clifford_sampler():
    """Single-qubit set as (stack of tables, probabilities): +-pi/2 and pi
    rotations about x, y, z, uniformly."""
    tables = circuit_tableaux([[(g, (1,)) for g in word] for word in _ROTATIONS], 1)
    return tables, np.full(len(tables), 1 / len(tables))


# bytes of gate indices drawn per block of steps (at least one step); the
# draw is in C order, so the stream does not depend on it
_DRAW_BYTES = 1 << 18


def _survivals(table, probs, lam, m: int, shots: int, rng) -> np.ndarray:
    """Per-sequence survivals of Z_1 through `shots` random length-m
    sequences under Pauli noise with eigenvalue lam[x << n | z]: each step
    gathers every sequence's next key at its drawn gate and multiplies by
    lambda there, and the exact recovery to +Z_1 by lambda_Z1 (Flammia &
    Wallman, arXiv:1907.12976).  Gate indices are drawn in blocks of steps."""
    n_gates, n_keys = table.shape
    z1 = math.isqrt(n_keys) // 2  # x = 0, z = qubit 1's bit
    flat, q, surv = table.ravel(), np.full(shots, z1), np.ones(shots)
    block = max(1, _DRAW_BYTES // (8 * shots))
    for start in range(0, m, block):
        offsets = rng.choice(n_gates, size=(min(block, m - start), shots), p=probs) * n_keys
        for off in offsets:
            q = flat[off + q]
            surv *= lam[q]
    return surv * lam[z1]


_GOLDEN = (math.sqrt(5) - 1) / 2
# golden-section steps that shrink the decay's bracket [0, 1] below 1e-15
_GOLDEN_STEPS = math.ceil(math.log(1e-15) / math.log(_GOLDEN))


def _fit_decay(lengths, surv: np.ndarray):
    """Least-squares (A, p, B) of A p^m + B with all three in [0, 1].

    Variable projection: for fixed p the model is linear in (A, B), and the
    box-constrained two-variable least squares is solved exactly (the
    unconstrained optimum if it lies in the box, else the best point on the
    box's four edges); golden-section search over p minimizes what is left.
    """
    m = np.asarray(lengths, dtype=float)
    y = np.asarray(surv, dtype=float)

    def clip(v):
        return min(max(v, 0.0), 1.0)

    def projected(p):
        """(residual sum of squares, A, B) at the best (A, B) for this p."""
        u = p**m
        uu = float(u @ u)
        # the best point on each edge of the box: A = 0, A = 1, B = 0, B = 1
        cands = [(a, clip(float(np.mean(y - a * u)))) for a in (0.0, 1.0)]
        cands += [(clip(float(u @ (y - b)) / uu) if uu > 0 else 0.0, b) for b in (0.0, 1.0)]
        du = u - u.mean()
        if du @ du > 0:  # the unconstrained optimum, when it lies in the box
            a = float(du @ (y - y.mean())) / float(du @ du)
            b = float(y.mean()) - a * float(u.mean())
            if 0 <= a <= 1 and 0 <= b <= 1:
                cands.append((a, b))
        return min((float(np.sum((y - a * u - b) ** 2)), a, b) for a, b in cands)

    g = _GOLDEN
    lo, hi = 0.0, 1.0
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = projected(c), projected(d)
    for _ in range(_GOLDEN_STEPS):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = projected(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = projected(d)
    (_, a, b), p = (fc, c) if fc <= fd else (fd, d)
    return a, p, b


def randomized_benchmarking(
    gate_set,
    noise_model: Channel,
    seq_lengths,
    shots: int,
    rng: np.random.Generator,
) -> RBResult:
    """Survival-decay benchmarking with exact tableau-inverted recovery.

    gate_set is (stack of tables, probabilities).  For each length, `shots` random
    sequences are applied to a deviation state Z_1; noise acts after every
    gate including the recovery.  The mean survival is fitted to A p^m + B.
    """
    tableaux, probs = gate_set
    table = tableaux >> 2  # gate g's image key of each key
    lam = noise_model.eigenvalues()
    lengths = list(seq_lengths)
    survivals = [float(_survivals(table, probs, lam, m, shots, rng).mean()) for m in lengths]
    surv = np.array(survivals)
    if np.all(np.abs(surv - 1) <= 1e-9):
        return RBResult(lengths, survivals, float(surv.mean()), 0.0, 1.0, 0.0,
                        True, "constant survival; no measurable decay")
    if surv.max() - surv.min() < 1e-9:
        return RBResult(lengths, survivals, float("nan"), float("nan"),
                        float("nan"), float("nan"), False,
                        "constant survival below 1; the decay cannot be resolved")
    if surv[-1] >= surv[0]:
        return RBResult(lengths, survivals, float("nan"), float("nan"),
                        float("nan"), float("nan"), False,
                        "survival does not decay with sequence length")
    a, p, b = _fit_decay(lengths, surv)
    r = (1 - p) * (1 - 1 / 2**noise_model.n)
    return RBResult(lengths, survivals, a, b, p, r, True, "ok")
