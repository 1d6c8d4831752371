"""Pauli channels tested against explicit sum_k K rho K^dag loops."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmrqip.channels import Channel, pauli_probs_by_weight
from nmrqip.cli import DEFAULT_CONFIGS
from nmrqip.qop import commutes, embed, ket_density, pauli_entry

from conftest import (all_pauli_words, bit_flip, bloch_vector, composite_pauli_vector,
                      factor_kraus_sum, kraus_sum, phase_flip, random_density, word_matrix)


def pauli_vector(probs: dict) -> np.ndarray:
    """Oracle parse of a word -> probability fixture into the channel's
    probability vector, entry x * 2^n + z of each word's key."""
    n = len(next(iter(probs)))
    vec = np.zeros(4**n)
    for word, p in probs.items():
        vec[pauli_entry(word) >> 2] += p
    return vec


def word_channel(probs: dict) -> Channel:
    return Channel(pauli_vector(probs))


def transfer_eigenvalue(probs: dict, word: str) -> float:
    """Oracle for Channel.eigenvalues: a Pauli channel maps P -> lambda_P P
    with lambda_P = sum_Q p_Q * (+1 if [Q, P] = 0 else -1)."""
    n, p_ref = len(word), pauli_entry(word)
    lam = 0.0
    for q, p in probs.items():
        lam += p if commutes(n, pauli_entry(q), p_ref) else -p
    return lam


def word_probs_by_weight(n: int, weight_masses: dict) -> dict:
    """Oracle for pauli_probs_by_weight: the same spread over a word dict,
    each word's weight counted from its letters."""
    probs = {}
    total = 0.0
    words = all_pauli_words(n)
    weights = [n - word.count("I") for word in words]
    for w, mass in weight_masses.items():
        share = mass / (math.comb(n, int(w)) * 3 ** int(w))
        for word, weight in zip(words, weights):
            if weight == int(w):
                probs[word] = probs.get(word, 0.0) + share
        total += mass
    probs["I" * n] = 1 - total
    return probs


def random_factors(n: int, rng) -> list:
    """Random Pauli factors on random qubit subsets of an n-qubit register,
    composed in the tests by composite_pauli_vector."""
    factors = []
    for _ in range(1 + rng.integers(3)):
        m = 1 + rng.integers(n)
        qubits = tuple(int(q) + 1 for q in rng.permutation(n)[:m])
        factors.append((rng.dirichlet(np.ones(4**m)), qubits))
    return factors


def test_completeness_check_rejects():
    for bad in ([], np.ones(1), np.full(8, 1 / 8), np.full((4, 4), 1 / 16)):
        with pytest.raises(ValueError, match="is not"):
            Channel(bad)
    with pytest.raises(ValueError, match="sum to 0"):
        Channel(np.zeros(4))
    # non-finite vectors: NaN fails the sign check, inf the sum check
    nan, inf = float("nan"), float("inf")
    for bad in ([nan, 0, 0, 0], [nan, inf, 0, 0], [0.5, nan, 0.5, 0], [-inf, 1, 0, 0]):
        with pytest.raises(ValueError, match="nonnegative"):
            Channel(bad)
    with pytest.raises(ValueError, match="sum to inf"):
        Channel([inf, 0, 0, 0])
    with pytest.raises(ValueError, match="nonnegative"):
        pauli_probs_by_weight(2, {1: nan})
    with pytest.raises(ValueError, match="sum to inf"):
        pauli_probs_by_weight(2, {1: inf})


def test_factor_must_be_a_pauli_vector():
    # a 2 x 2 array has the size of a 1-qubit Pauli vector, but is not one;
    # nor is a Kraus list, whose stack has more entries than 4^n
    half = np.array([[0.5, 0.0], [0.0, 0.5]])
    for bad in (half, [half, half], np.full((1, 4), 0.25)):
        with pytest.raises(ValueError, match="is not"):
            Channel(bad)
    ch = Channel(np.full(4, 0.25))
    assert ch.n == 1 and ch.probs.shape == (4,) and not ch.probs.flags.writeable
    assert ch.on([2], 2).probs.shape == (16,)
    with pytest.raises(ValueError, match="negative"):
        Channel([-0.1, 0.5, 0.3, 0.3])
    with pytest.raises(ValueError, match="outside"):
        ch.on((3,), 2)


def test_factor_rejects_duplicate_qubit_labels():
    # a lift onto (1, 1) would put both local qubits' bits on qubit 1
    with pytest.raises(ValueError, match="duplicate qubit labels"):
        Channel(np.full(16, 1 / 16)).on((1, 1), 2)


def test_apply_matches_kraus_sum(rng):
    # a composite of random factors, as one Pauli vector, against the factors'
    # Kraus sums in turn
    for n in (1, 2, 3):
        d = 2**n
        factors = random_factors(n, rng)
        ch = Channel(composite_pauli_vector(factors, n))
        rho = random_density(d, rng)
        direct = factor_kraus_sum(factors, n, rho)
        assert np.allclose(ch.apply(rho), direct, rtol=0, atol=1e-12)
        assert np.allclose(kraus_sum(ch.kraus(), rho), direct, rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_apply_preserves_trace_and_positivity(seed):
    rng = np.random.default_rng(seed)
    ch = Channel(composite_pauli_vector(random_factors(2, rng), 2))
    rho = random_density(4, rng)
    out = ch.apply(rho)
    assert abs(np.trace(out) - 1.0) < 1e-10
    assert np.linalg.eigvalsh(out).min() > -1e-10


def test_depolarizing_shrinks_bloch_vector(rng):
    rho = random_density(2, rng)
    for p in (0.0, 0.25, 0.8, 1.0):
        out = Channel.depolarizing(1, p).apply(rho)
        assert np.allclose(bloch_vector(out), (1 - p) * bloch_vector(rho),
                           atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_depolarizing_apply_matches_kraus_sum(n, rng):
    # through the eigenvalue table, against the Kraus sum and the closed form
    # (1 - p) rho + p I/d; n = 5 has Paulis with popcount(x & z) >= 4
    d = 2**n
    rho = random_density(d, rng)
    for p in (0.0, 0.1, 0.5, 1.0, 4**n / (4**n - 1)):
        ch = Channel.depolarizing(n, p)
        out = ch.apply(rho)
        assert np.allclose(out, kraus_sum(ch.kraus(), rho), rtol=0, atol=1e-12)
        assert np.allclose(out, (1 - p) * rho + p * np.eye(d) / d, rtol=0, atol=1e-12)


def test_kraus_is_one_scaled_pauli_per_nonzero_probability(rng):
    # sqrt(p_Q) Q for each Q with p_Q > 0, placed on the channel's qubits:
    # trace-orthogonal, so the set is minimal (its Choi rank is its size)
    probs = random_pauli_probs(2, rng)
    vec = pauli_vector(probs)
    lifted = Channel(vec).on((3, 1), 3)
    kraus = lifted.kraus()

    def register_key(word):  # local word ab on qubits (3, 1) is the word bIa
        return pauli_entry(word[1] + "I" + word[0]) >> 2

    words = sorted(probs, key=register_key)
    want = [np.sqrt(probs[w]) * embed(word_matrix(w), (3, 1), 3) for w in words]
    assert len(kraus) == np.count_nonzero(vec) == len(want)
    assert np.allclose(kraus, want, rtol=0, atol=1e-15)
    gram = np.einsum("aij,bij->ab", np.conj(kraus), kraus)
    assert np.allclose(gram, 8 * np.diag(lifted.probs[lifted.probs > 0]), rtol=0, atol=1e-14)


def test_depolarizing_multiqubit_mixes_to_identity():
    rho = ket_density(np.array([1, 0, 0, 0], dtype=complex))
    out = Channel.depolarizing(2, 1.0).apply(rho)
    assert np.allclose(out, np.eye(4) / 4)


def test_bit_and_phase_flip():
    rho0 = ket_density(np.array([1, 0], dtype=complex))
    out = bit_flip(0.3).apply(rho0)
    assert out[0, 0] == pytest.approx(0.7) and out[1, 1] == pytest.approx(0.3)
    plus = ket_density(np.array([1, 1], dtype=complex) / np.sqrt(2))
    out = phase_flip(0.25).apply(plus)
    # coherence scales by 1 - 2p
    assert out[0, 1] == pytest.approx(0.5 * (1 - 0.5))


def test_on_embeds_like_kron(rng):
    flip = bit_flip(0.3)
    rho = random_density(8, rng)
    got = flip.on([2], 3).apply(rho)
    # reference: single-qubit Kraus embedded by hand
    direct = np.zeros_like(rho)
    for k in flip.kraus():
        big = np.kron(np.eye(2), np.kron(k, np.eye(2)))
        direct += big @ rho @ big.conj().T
    assert np.allclose(got, direct, atol=1e-12)


def test_on_matches_the_embedded_kraus_sum(rng):
    # random 1- to 3-qubit channels scattered onto shuffled labels of up to 4
    # qubits, against the Kraus sum of their Paulis placed with embed
    for m in (1, 2, 3):
        for n in range(m, 5):
            for _ in range(4):
                probs = rng.dirichlet(np.ones(4**m))
                qubits = tuple(int(q) + 1 for q in rng.permutation(n)[:m])
                rho = random_density(2**n, rng)
                got = Channel(probs).on(qubits, n).apply(rho)
                want = factor_kraus_sum([(probs, qubits)], n, rho)
                assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_on_rejects_a_label_count_other_than_n():
    dep = Channel.depolarizing(2, 0.1)
    for qubits in ([1, 2, 3], [1]):  # one label too many would drop qubit 3
        with pytest.raises(ValueError, match="qubit labels for a 2-qubit channel"):
            dep.on(qubits, 3)
    with pytest.raises(ValueError, match="duplicate"):
        dep.on([2, 2], 3)


def test_then_and_tensor(rng):
    # the vector of "a then b" is the channel a then b, and the vector of
    # factors on disjoint qubits is the tensor product
    a, b = bit_flip(0.2).probs, phase_flip(0.1).probs
    rho = random_density(2, rng)
    got = Channel(composite_pauli_vector([(a, (1,)), (b, (1,))], 1)).apply(rho)
    assert np.allclose(got, phase_flip(0.1).apply(bit_flip(0.2).apply(rho)), atol=1e-12)
    rho2 = random_density(4, rng)
    tensor = composite_pauli_vector([(a, (1,)), (b, (2,))], 2)
    joint = Channel(tensor).apply(rho2)
    ref = bit_flip(0.2).on([1], 2).apply(phase_flip(0.1).on([2], 2).apply(rho2))
    assert np.allclose(joint, ref, atol=1e-12)


def test_pauli_channel_transfer_eigenvalues(rng):
    probs = {"II": 0.7, "XI": 0.1, "IZ": 0.12, "YY": 0.08}
    ch = word_channel(probs)
    for word in ("XI", "ZZ", "IY", "XX"):
        p = word_matrix(word)
        rho = (np.eye(4) + p) / 4
        out = ch.apply(rho)
        survival = np.trace(p @ out).real
        assert survival == pytest.approx(transfer_eigenvalue(probs, word), abs=1e-12)


def test_pauli_eigenvalue_accessor(rng):
    # every word's table entry, against the transfer eigenvalue and the
    # applied channel, for one Pauli vector, the depolarizing closed form and
    # a composite of factors as one vector
    probs = random_pauli_probs(2, rng)
    bit = {"I": 0.9, "X": 0.1}
    composite = Channel(composite_pauli_vector(
        [(pauli_vector(bit), (1,)), (phase_flip(0.2).probs, (2,)),
         (Channel.depolarizing(1, 0.3).probs, (2,))], 2))
    composite_probs = {a + b: p * q for a, p in bit.items()
                       for b, q in {"I": 0.8, "Z": 0.2}.items()}
    lam = composite.eigenvalues()
    assert composite.eigenvalues() is lam and not lam.flags.writeable and lam.shape == (16,)
    lams = (word_channel(probs).eigenvalues(), Channel.depolarizing(2, 0.25).eigenvalues())
    for word in all_pauli_words(2):
        p, key = word_matrix(word), pauli_entry(word) >> 2
        assert lams[0][key] == pytest.approx(transfer_eigenvalue(probs, word), abs=1e-12)
        want = 1.0 if word == "II" else 0.75
        assert lams[1][key] == pytest.approx(want, abs=1e-15)
        want = transfer_eigenvalue(composite_probs, word) * (0.7 if word[1] != "I" else 1.0)
        assert lam[key] == pytest.approx(want, abs=1e-12)
        if word != "II":
            rho = (np.eye(4) + p) / 4
            survival = np.trace(p @ composite.apply(rho)).real
            assert lam[key] == pytest.approx(survival, abs=1e-12)


def test_pauli_probs_by_weight_fixture():
    vec = pauli_probs_by_weight(3, {1: 0.38, 2: 0.14, 3: 0.04})
    assert vec.shape == (64,)
    probs = {}
    for w in all_pauli_words(3):
        probs[w] = vec[pauli_entry(w) >> 2]
    assert probs["III"] == pytest.approx(0.44)
    assert sum(probs.values()) == pytest.approx(1.0)
    # 9 weight-1 words, 27 each of weight 2 and 3
    assert probs["XII"] == pytest.approx(0.38 / 9)
    assert probs["XYI"] == pytest.approx(0.14 / 27)
    assert probs["XYZ"] == pytest.approx(0.04 / 27)
    assert sum(1 for w, p in probs.items() if sum(c != "I" for c in w) == 1 and p > 0) == 9


@pytest.mark.parametrize("n", range(1, 8))
def test_pauli_probs_by_weight_matches_word_dict(n):
    # the bit-indexed vector equals the parsed word-dict build exactly,
    # including string weight keys and masses on a subset of weights
    for masses in ({1: 0.38, 2: 0.14, 3: 0.04}, {1: 0.12, 2: 0.03, 3: 0.01},
                   DEFAULT_CONFIGS["twirl"]["weight_masses"], {w: 0.02 / w for w in range(1, 8)},
                   {n: 0.3}, {}):
        masses = {w: m for w, m in masses.items() if int(w) <= n}
        assert np.array_equal(pauli_probs_by_weight(n, masses),
                              pauli_vector(word_probs_by_weight(n, masses)))


def test_pauli_probs_by_weight_rejects_bad_masses():
    with pytest.raises(ValueError, match="outside 1..2"):
        pauli_probs_by_weight(2, {3: 0.1})
    with pytest.raises(ValueError, match="sum to"):
        pauli_probs_by_weight(2, {1: 0.8, 2: 0.3})
    with pytest.raises(ValueError, match="nonnegative"):
        pauli_probs_by_weight(2, {1: -0.1})


def random_pauli_probs(n: int, rng) -> dict:
    """Random Pauli channel on n qubits, dense or supported on a few words."""
    words = all_pauli_words(n)
    if rng.random() < 0.5:
        words = list(rng.choice(words, size=min(len(words), 1 + rng.integers(4)),
                                replace=False))
    p = rng.dirichlet(np.ones(len(words)))
    return dict(zip(words, p))


def dense_pauli_sum(probs: dict, rho, qubits=None, n=None):
    """sum_Q p_Q Q rho Q with each word placed on the given register qubits."""
    out = np.zeros_like(rho)
    for word, p in probs.items():
        q = word_matrix(word)
        q = q if qubits is None else embed(q, qubits, n)
        out += p * q @ rho @ q
    return out


@settings(deadline=None, max_examples=40, derandomize=True)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_pauli_transform_matches_dense_kraus_sum(n, seed):
    rng = np.random.default_rng(seed)
    probs = random_pauli_probs(n, rng)
    ch = word_channel(probs)
    d = 2**n
    rho = random_density(d, rng)
    assert np.allclose(ch.apply(rho), dense_pauli_sum(probs, rho), rtol=0, atol=1e-12)

    if n < 4:
        big = n + 1
        qubits = [int(q) + 1 for q in rng.permutation(big)[:n]]
        rho_big = random_density(2**big, rng)
        ref = dense_pauli_sum(probs, rho_big, qubits, big)
        assert np.allclose(ch.on(qubits, big).apply(rho_big), ref, rtol=0, atol=1e-12)

        other = random_pauli_probs(1, rng)
        joint = {w + v: p * q for w, p in probs.items() for v, q in other.items()}
        joint_vec = composite_pauli_vector([(pauli_vector(probs), tuple(range(1, big))),
                                            (pauli_vector(other), (big,))], big)
        got = Channel(joint_vec).apply(rho_big)
        assert np.allclose(got, dense_pauli_sum(joint, rho_big), rtol=0, atol=1e-12)

    for word in rng.choice(all_pauli_words(n)[1:], size=min(4**n - 1, 6), replace=False):
        p = word_matrix(word)
        survival = np.trace(p @ ch.apply((np.eye(d) + p) / d)).real
        assert survival == pytest.approx(transfer_eigenvalue(probs, word), abs=1e-12)


@settings(deadline=None, max_examples=20, derandomize=True)
@given(st.integers(1, 4), st.floats(0.0, 1.0))
def test_depolarizing_composite_matches_kraus_oracle(n, p):
    # depolarizing on the register, then on qubit 1, as one Pauli vector:
    # its transform and its Kraus set against the factors' Kraus sums
    rng = np.random.default_rng(n)
    rho = random_density(2**n, rng)
    factors = [(Channel.depolarizing(n, p).probs, tuple(range(1, n + 1))),
               (Channel.depolarizing(1, p / 2).probs, (1,))]
    ch = Channel(composite_pauli_vector(factors, n))
    ref = factor_kraus_sum(factors, n, rho)
    assert np.allclose(ch.apply(rho), ref, rtol=0, atol=1e-12)
    assert np.allclose(kraus_sum(ch.kraus(), rho), ref, rtol=0, atol=1e-12)


def test_pauli_channel_n7_memory():
    n, d = 7, 128
    masses = {int(w): m for w, m in DEFAULT_CONFIGS["twirl"]["weight_masses"].items()}
    probs = pauli_probs_by_weight(n, masses)
    z1 = word_matrix("Z" + "I" * (n - 1))
    rho = (np.eye(d) + z1) / d
    tracemalloc.start()
    try:
        ch = Channel(probs)
        out = ch.apply(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    lam = transfer_eigenvalue(word_probs_by_weight(n, masses), "Z" + "I" * (n - 1))
    assert np.allclose(out, (np.eye(d) + lam * z1) / d, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        ch.kraus()
