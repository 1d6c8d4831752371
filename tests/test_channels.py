"""Kraus-map plumbing tested against explicit sum_k K rho K^dag loops."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmrqip.channels import (
    Channel,
    apply_channel,
    interleave,
    pauli_probs_by_weight,
    pauli_transfer_eigenvalue,
    t1t2_channel,
)
from nmrqip.cli import DEFAULT_CONFIGS
from nmrqip.qop import (
    PauliString,
    all_pauli_words,
    bloch_vector,
    embed,
    haar_random_unitary,
    ket_density,
    pauli_dense,
)
from nmrqip.spins import builtin_molecule

from conftest import random_density


def random_kraus(d: int, m: int, rng) -> list:
    """m random Kraus operators normalized to a trace-preserving map."""
    ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(m)]
    s = sum(k.conj().T @ k for k in ops)
    w, v = np.linalg.eigh(s)
    inv_sqrt = v @ np.diag(w**-0.5) @ v.conj().T
    return [k @ inv_sqrt for k in ops]


def test_completeness_check_rejects():
    with pytest.raises(ValueError):
        Channel.from_kraus([np.eye(2) * 0.5])


def test_apply_matches_kraus_sum(rng):
    for n, m in ((1, 3), (2, 2), (3, 4)):
        d = 2**n
        kraus = random_kraus(d, m, rng)
        ch = Channel.from_kraus(kraus)
        rho = random_density(d, rng)
        direct = sum(k @ rho @ k.conj().T for k in kraus)
        assert np.allclose(ch.apply(rho), direct, atol=1e-12)
        assert np.allclose(apply_channel(ch, rho), direct, atol=1e-12)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_apply_preserves_trace_and_positivity(seed):
    rng = np.random.default_rng(seed)
    ch = Channel.from_kraus(random_kraus(4, 3, rng))
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


def test_depolarizing_multiqubit_mixes_to_identity():
    rho = ket_density(np.array([1, 0, 0, 0], dtype=complex))
    out = Channel.depolarizing(2, 1.0).apply(rho)
    assert np.allclose(out, np.eye(4) / 4)


def test_bit_and_phase_flip():
    rho0 = ket_density(np.array([1, 0], dtype=complex))
    out = Channel.bit_flip(0.3).apply(rho0)
    assert out[0, 0] == pytest.approx(0.7) and out[1, 1] == pytest.approx(0.3)
    plus = ket_density(np.array([1, 1], dtype=complex) / np.sqrt(2))
    out = Channel.phase_flip(0.25).apply(plus)
    # coherence scales by 1 - 2p
    assert out[0, 1] == pytest.approx(0.5 * (1 - 0.5))


def test_amplitude_damping():
    rho1 = ket_density(np.array([0, 1], dtype=complex))
    out = Channel.amplitude_damping(0.4).apply(rho1)
    assert out[0, 0] == pytest.approx(0.4) and out[1, 1] == pytest.approx(0.6)


def test_on_embeds_like_kron(rng):
    flip = Channel.bit_flip(0.3)
    rho = random_density(8, rng)
    got = flip.on([2], 3).apply(rho)
    # reference: single-qubit Kraus embedded by hand
    direct = np.zeros_like(rho)
    for k in flip.kraus():
        big = np.kron(np.eye(2), np.kron(k, np.eye(2)))
        direct += big @ rho @ big.conj().T
    assert np.allclose(got, direct, atol=1e-12)


def test_then_and_tensor(rng):
    a = Channel.bit_flip(0.2)
    b = Channel.phase_flip(0.1)
    rho = random_density(2, rng)
    assert np.allclose(a.then(b).apply(rho), b.apply(a.apply(rho)), atol=1e-12)
    rho2 = random_density(4, rng)
    joint = a.tensor(b).apply(rho2)
    ref = a.on([1], 2).apply(b.on([2], 2).apply(rho2))
    assert np.allclose(joint, ref, atol=1e-12)


def test_unitary_channel(rng):
    u = haar_random_unitary(4, rng)
    rho = random_density(4, rng)
    assert np.allclose(Channel.unitary(u).apply(rho), u @ rho @ u.conj().T)


def test_pauli_channel_transfer_eigenvalues(rng):
    probs = {"II": 0.7, "XI": 0.1, "IZ": 0.12, "YY": 0.08}
    ch = Channel.from_pauli_probs(probs)
    for word in ("XI", "ZZ", "IY", "XX"):
        p = pauli_dense(word)
        rho = (np.eye(4) + p) / 4
        out = ch.apply(rho)
        survival = np.trace(p @ out).real
        assert survival == pytest.approx(pauli_transfer_eigenvalue(probs, word),
                                         abs=1e-12)


def test_pauli_probs_by_weight_fixture():
    probs = pauli_probs_by_weight(3, {1: 0.38, 2: 0.14, 3: 0.04})
    assert probs["III"] == pytest.approx(0.44)
    assert sum(probs.values()) == pytest.approx(1.0)
    # 9 weight-1 words, 27 each of weight 2 and 3
    assert probs["XII"] == pytest.approx(0.38 / 9)
    assert probs["XYI"] == pytest.approx(0.14 / 27)
    assert probs["XYZ"] == pytest.approx(0.04 / 27)
    assert sum(1 for w in probs if sum(c != "I" for c in w) == 1) == 9


def test_pauli_probs_by_weight_rejects_bad_masses():
    with pytest.raises(ValueError):
        pauli_probs_by_weight(2, {3: 0.1})
    with pytest.raises(ValueError):
        pauli_probs_by_weight(2, {1: 0.8, 2: 0.3})
    with pytest.raises(ValueError):
        pauli_probs_by_weight(2, {1: -0.1})


def test_t1t2_channel_is_physical(rng):
    sys_ = builtin_molecule("chloroform2")
    ch = t1t2_channel(sys_, 0.05)
    rho = random_density(4, rng)
    out = ch.apply(rho)
    assert abs(np.trace(out) - 1.0) < 1e-10
    assert np.linalg.eigvalsh(out).min() > -1e-10


def test_interleave_matches_manual(rng):
    u1 = haar_random_unitary(2, rng)
    u2 = haar_random_unitary(2, rng)
    noise = Channel.depolarizing(1, 0.1)
    rho = random_density(2, rng)
    got = interleave([u1, u2], noise).apply(rho)
    ref = rho
    for u in (u1, u2):
        ref = noise.apply(u @ ref @ u.conj().T)
    assert np.allclose(got, ref, atol=1e-12)


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
        q = pauli_dense(word) if qubits is None else embed(pauli_dense(word), qubits, n)
        out += p * q @ rho @ q
    return out


@settings(deadline=None, max_examples=40, derandomize=True)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_pauli_transform_matches_dense_kraus_sum(n, seed):
    rng = np.random.default_rng(seed)
    probs = random_pauli_probs(n, rng)
    ch = Channel.from_pauli_probs(probs)
    d = 2**n
    rho = random_density(d, rng)
    assert np.allclose(ch.apply(rho), dense_pauli_sum(probs, rho), rtol=0, atol=1e-12)

    u = haar_random_unitary(d, rng)
    got = ch.then(Channel.unitary(u)).apply(rho)
    ref = u @ dense_pauli_sum(probs, rho) @ u.conj().T
    assert np.allclose(got, ref, rtol=0, atol=1e-12)

    if n < 4:
        big = n + 1
        qubits = [int(q) + 1 for q in rng.permutation(big)[:n]]
        rho_big = random_density(2**big, rng)
        ref = dense_pauli_sum(probs, rho_big, qubits, big)
        assert np.allclose(ch.on(qubits, big).apply(rho_big), ref, rtol=0, atol=1e-12)

        other = random_pauli_probs(1, rng)
        joint = {w + v: p * q for w, p in probs.items() for v, q in other.items()}
        got = ch.tensor(Channel.from_pauli_probs(other)).apply(rho_big)
        assert np.allclose(got, dense_pauli_sum(joint, rho_big), rtol=0, atol=1e-12)

    for word in rng.choice(all_pauli_words(n)[1:], size=min(4**n - 1, 6), replace=False):
        p = pauli_dense(word)
        survival = np.trace(p @ ch.apply((np.eye(d) + p) / d)).real
        assert survival == pytest.approx(pauli_transfer_eigenvalue(probs, word), abs=1e-12)


@settings(deadline=None, max_examples=20, derandomize=True)
@given(st.integers(1, 4), st.floats(0.0, 1.0))
def test_depolarizing_composite_matches_kraus_oracle(n, p):
    rng = np.random.default_rng(n)
    d = 2**n
    u = haar_random_unitary(d, rng)
    rho = random_density(d, rng)
    ch = Channel.depolarizing(n, p).then(Channel.unitary(u))
    ref = sum(k @ rho @ k.conj().T for k in ch.kraus())
    assert np.allclose(ch.apply(rho), ref, rtol=0, atol=1e-12)


def test_pauli_channel_n7_memory():
    n, d = 7, 128
    probs = pauli_probs_by_weight(n, {int(w): m for w, m in
                                      DEFAULT_CONFIGS["twirl"]["weight_masses"].items()})
    z1 = pauli_dense("Z" + "I" * (n - 1))
    rho = (np.eye(d) + z1) / d
    tracemalloc.start()
    try:
        ch = Channel.from_pauli_probs(probs)
        out = ch.apply(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    lam = pauli_transfer_eigenvalue(probs, "Z" + "I" * (n - 1))
    assert np.allclose(out, (np.eye(d) + lam * z1) / d, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        ch.kraus()
