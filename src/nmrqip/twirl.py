"""Twirling-based certification: memory fidelity, Clifford-gate fidelity, RB.

All three protocols share one per-shot primitive: prepare a deviation state
whose traceless part is a random non-identity Pauli M (drawn as weight ->
permutation -> per-qubit Clifford), push it through the noisy process, and
read out the coefficient of the expected output Pauli.  The mean of that
coefficient maps affinely to Pr(no error), and the average gate fidelity
follows as fbar = (2^n Pr0 + 1)/(2^n + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channels import Channel
from .clifford import CliffordTableau, circuit_tableau, gate_tableau, sample_1q_clifford
from .qop import PauliString, all_pauli_words


@dataclass(frozen=True)
class TwirlEstimate:
    pr0_hat: float
    n_samples: int
    delta: float
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


@lru_cache(maxsize=None)
def _weight_probs(n: int) -> np.ndarray:
    """Probability of each weight 1..n among the 4^n - 1 non-identity Paulis."""
    weights = np.array([math.comb(n, w) * 3**w for w in range(1, n + 1)], dtype=float)
    probs = weights / weights.sum()
    probs.setflags(write=False)  # shared by every caller through the cache
    return probs


def _draw_pauli(n: int, rng: np.random.Generator) -> PauliString:
    """Uniform non-identity Pauli via weight draw, permutation, per-qubit C1.

    Each chosen qubit gets the image of Z under a random Clifford; the
    supports are disjoint, so the masks OR together and the phases add.
    """
    w = 1 + rng.choice(n, p=_weight_probs(n))
    positions = rng.permutation(n)[:w]
    x = z = k = 0
    for q in sorted(positions.tolist()):
        img = sample_1q_clifford(rng).z_images[0]
        s = n - 1 - q
        x, z, k = x | img.x << s, z | img.z << s, k + img.k
    return PauliString.from_bits(n, x, z, k)


def _sample_paulis(n: int, count: int, rng, with_replacement: bool):
    if with_replacement:
        return [_draw_pauli(n, rng) for _ in range(count)]
    total = 4**n - 1
    if count > total:
        raise ValueError(f"cannot draw {count} distinct Paulis from {total}")
    idx = rng.choice(total, size=count, replace=False)
    words = all_pauli_words(n)
    return [PauliString(words[i + 1]) for i in idx]


def _shot_value(channel: Channel, p_in: PauliString, p_out: PauliString,
                readout_shots, rng) -> float:
    d = 2**p_in.n
    rho = (np.eye(d, dtype=complex) + p_in.dense()) / d
    chi = float(np.einsum("ij,ji->", p_out.dense(), channel.apply(rho)).real)
    if readout_shots:
        q = min(max((1 + chi) / 2, 0.0), 1.0)
        chi = 2 * rng.binomial(readout_shots, q) / readout_shots - 1
    return chi


def _estimate(chis: np.ndarray, n: int, delta: float) -> TwirlEstimate:
    scale = (4**n - 1) / 4**n
    pr0 = scale * float(np.mean(chis)) + 1 / 4**n
    stderr = scale * float(np.std(chis)) / math.sqrt(len(chis))
    return TwirlEstimate(pr0, len(chis), delta, stderr, n)


def twirl_estimate_memory(
    noise: Channel,
    delta: float,
    rng: np.random.Generator,
    n_samples: int | None = None,
    readout_shots: int | None = None,
    with_replacement: bool = True,
) -> TwirlEstimate:
    """Estimate Pr(no error) and average fidelity of a memory channel.

    Each shot measures the survival coefficient of one random Pauli; the
    channel is never inspected beyond its action on states.
    """
    if not 0 < delta < 0.5:
        raise ValueError("delta must be in (0, 0.5)")
    n = noise.n
    count = n_samples if n_samples is not None else recommended_samples(n, delta)
    chis = np.array([
        _shot_value(noise, p, p, readout_shots, rng)
        for p in _sample_paulis(n, count, rng, with_replacement)
    ])
    return _estimate(chis, n, delta)


def certify_clifford(
    noisy_gate: Channel,
    target: CliffordTableau,
    delta: float,
    rng: np.random.Generator,
    n_samples: int | None = None,
    readout_shots: int | None = None,
    with_replacement: bool = True,
) -> TwirlEstimate:
    """Average-fidelity estimate of the noise in a noisy Clifford gate.

    Models the gate as (noise, then the ideal target); the readout Pauli is
    the tableau image of the input, so only the noise part degrades the
    survival coefficient.
    """
    if not 0 < delta < 0.5:
        raise ValueError("delta must be in (0, 0.5)")
    n = noisy_gate.n
    if target.n != n:
        raise ValueError("target size does not match gate")
    count = n_samples if n_samples is not None else recommended_samples(n, delta)
    chis = np.array([
        _shot_value(noisy_gate, p, target.conjugate(p), readout_shots, rng)
        for p in _sample_paulis(n, count, rng, with_replacement)
    ])
    return _estimate(chis, n, delta)


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
    """Clifford generating set: 2/3 single-qubit {H, S H S^dag}, 1/3
    nearest-neighbour CNOT (directed)."""
    singles = []
    for q in range(1, n + 1):
        h = gate_tableau("H", (q,), n)
        shs = circuit_tableau(
            [("S", (q,)), ("S", (q,)), ("S", (q,)), ("H", (q,)), ("S", (q,))], n
        )
        singles.append(h)
        singles.append(shs)
    cnots = []
    for q in range(1, n):
        cnots.append(gate_tableau("CNOT", (q, q + 1), n))
        cnots.append(gate_tableau("CNOT", (q + 1, q), n))

    def sampler(rng: np.random.Generator) -> CliffordTableau:
        if not cnots or rng.random() < 2 / 3:
            return singles[rng.integers(len(singles))]
        return cnots[rng.integers(len(cnots))]

    return sampler


def rotation_clifford_sampler():
    """Single-qubit set: +-pi/2 and pi rotations about x, y, z."""
    from .control import rotation

    gates = []
    for ax in "xyz":
        for angle in (np.pi / 2, -np.pi / 2, np.pi):
            gates.append(CliffordTableau.from_unitary(rotation(ax, angle)))

    def sampler(rng: np.random.Generator) -> CliffordTableau:
        return gates[rng.integers(len(gates))]

    return sampler


def randomized_benchmarking(
    gate_sampler,
    noise_model: Channel | None,
    seq_lengths,
    shots: int,
    rng: np.random.Generator,
) -> RBResult:
    """Survival-decay benchmarking with exact tableau-inverted recovery.

    For each length, `shots` random sequences are applied to a deviation
    state Z_1; noise acts after every gate including the recovery.  The mean
    survival is fitted to A p^m + B.
    """
    n = noise_model.n if noise_model is not None else None
    dense_cache: dict = {}

    def dense(tab: CliffordTableau) -> np.ndarray:
        u = dense_cache.get(tab)
        if u is None:
            u = tab.to_unitary()
            dense_cache[tab] = u
        return u

    lengths = list(seq_lengths)
    survivals = []
    for m in lengths:
        acc = 0.0
        for _ in range(shots):
            tabs = [gate_sampler(rng) for _ in range(m)]
            if n is None:
                n = tabs[0].n if tabs else 1
            d = 2**n
            z1 = PauliString("Z" + "I" * (n - 1))
            rho = (np.eye(d, dtype=complex) + z1.dense()) / d
            total = CliffordTableau.identity(n)
            for tab in tabs:
                u = dense(tab)
                rho = u @ rho @ u.conj().T
                if noise_model is not None:
                    rho = noise_model.apply(rho)
                total = total.then(tab)
            rec = dense(total.inverse())
            rho = rec @ rho @ rec.conj().T
            if noise_model is not None:
                rho = noise_model.apply(rho)
            acc += float(np.trace(z1.dense() @ rho).real)
        survivals.append(acc / shots)

    surv = np.array(survivals)
    if surv.max() - surv.min() < 1e-9:
        return RBResult(lengths, survivals, float(surv.mean()), 0.0, 1.0, 0.0,
                        True, "constant survival; no measurable decay")
    if surv[-1] >= surv[0]:
        return RBResult(lengths, survivals, float("nan"), float("nan"),
                        float("nan"), float("nan"), False,
                        "survival does not decay with sequence length")
    from scipy.optimize import curve_fit
    try:
        popt, _ = curve_fit(
            lambda m, a, p, b: a * p**m + b,
            np.array(lengths, dtype=float),
            surv,
            p0=(surv[0] - surv[-1], 0.99, surv[-1]),
            bounds=([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
            maxfev=20000,
        )
    except RuntimeError as exc:
        return RBResult(lengths, survivals, float("nan"), float("nan"),
                        float("nan"), float("nan"), False, f"fit failed: {exc}")
    a, p, b = (float(v) for v in popt)
    d = 2**n
    r = (1 - p) * (1 - 1 / d)
    return RBResult(lengths, survivals, a, b, p, r, True, "ok")
