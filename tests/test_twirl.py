"""Twirl-based fidelity estimation and randomized benchmarking."""

import math

import numpy as np
import pytest

from nmrqip.channels import Channel, pauli_probs_by_weight
from nmrqip.clifford import CliffordTableau, gate_tableau, sample_1q_clifford
from nmrqip.qop import PauliString, average_gate_fidelity_exact
from nmrqip.twirl import (
    TwirlEstimate,
    _draw_pauli,
    certify_clifford,
    default_rb_sampler,
    randomized_benchmarking,
    recommended_samples,
    rotation_clifford_sampler,
    twirl_estimate_memory,
)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def test_recommended_samples_formula():
    assert recommended_samples(3, 0.02) == math.ceil(
        math.log(2 * 3 / 0.05) / (2 * 0.02**2))
    assert recommended_samples(1, 0.1) < recommended_samples(1, 0.01)


def test_fbar_mapping():
    est = TwirlEstimate(pr0_hat=0.84, n_samples=100, delta=0.02, n=3)
    assert est.fbar == pytest.approx((8 * 0.84 + 1) / 9)


def test_twirl_identity_channel_is_exact():
    rng = np.random.default_rng(0)
    est = twirl_estimate_memory(Channel.identity(2), 0.05, rng, n_samples=50)
    assert est.pr0_hat == pytest.approx(1.0, abs=1e-12)
    assert est.fbar == pytest.approx(1.0, abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)


def test_draw_pauli_matches_conjugated_product():
    # reference: each chosen qubit's C Z C^dag, embedded and multiplied in
    for n in (1, 3, 7):
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(200):
            w = 1 + ref_rng.choice(n, p=[math.comb(n, k) * 3**k / (4**n - 1)
                                         for k in range(1, n + 1)])
            want = PauliString("I" * n)
            for q in sorted(ref_rng.permutation(n)[:w].tolist()):
                img = sample_1q_clifford(ref_rng).conjugate(PauliString("Z"))
                word = "I" * q + img.word + "I" * (n - q - 1)
                want = want * PauliString(word, img.phase)
            assert _draw_pauli(n, rng) == want
        # both paths made the same RNG calls
        assert rng.random() == ref_rng.random()


def test_twirl_exhaustive_recovers_identity_mass():
    # sampling every non-identity Pauli once makes the estimator exact, and
    # for a Pauli channel Pr(no error) is just the identity-word mass
    probs = pauli_probs_by_weight(2, {1: 0.3, 2: 0.1})
    ch = Channel.from_pauli_probs(probs)
    rng = np.random.default_rng(1)
    est = twirl_estimate_memory(ch, 0.05, rng, n_samples=15,
                                with_replacement=False)
    assert est.pr0_hat == pytest.approx(0.6, abs=1e-12)


def test_twirl_sampled_depolarizing():
    # 1-qubit depolarizing p: identity mass 1 - 3p/4
    rng = np.random.default_rng(42)
    est = twirl_estimate_memory(Channel.depolarizing(1, 0.2), 0.02, rng)
    assert est.n_samples == recommended_samples(1, 0.02)
    assert abs(est.pr0_hat - 0.85) <= 0.02
    rng = np.random.default_rng(43)
    noisy = twirl_estimate_memory(Channel.depolarizing(1, 0.2), 0.02, rng,
                                  n_samples=2000, readout_shots=64)
    assert abs(noisy.pr0_hat - 0.85) <= 0.03


def test_twirl_argument_guards():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        twirl_estimate_memory(Channel.identity(1), 0.7, rng)
    with pytest.raises(ValueError):
        twirl_estimate_memory(Channel.identity(2), 0.05, rng, n_samples=16,
                              with_replacement=False)


def test_certify_noiseless_gate():
    rng = np.random.default_rng(7)
    gate = Channel.unitary(CNOT)
    est = certify_clifford(gate, gate_tableau("CNOT", (1, 2), 2), 0.05, rng,
                           n_samples=40)
    assert est.pr0_hat == pytest.approx(1.0, abs=1e-12)
    assert est.fbar == pytest.approx(1.0, abs=1e-12)


def test_certify_exhaustive_matches_exact_fidelity():
    for p in (0.05, 0.2):
        noisy = Channel.depolarizing(2, p).then(Channel.unitary(CNOT))
        rng = np.random.default_rng(3)
        est = certify_clifford(noisy, gate_tableau("CNOT", (1, 2), 2), 0.05,
                               rng, n_samples=15, with_replacement=False)
        exact = average_gate_fidelity_exact(noisy.kraus(), CNOT)
        assert est.fbar == pytest.approx(exact, abs=1e-12)
        assert est.fbar == pytest.approx(1 - 3 * p / 4, abs=1e-12)


def test_certify_size_mismatch():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        certify_clifford(Channel.identity(1), CliffordTableau.identity(2),
                         0.05, rng)


def test_rb_zero_noise_constant_survival():
    rng = np.random.default_rng(11)
    res = randomized_benchmarking(default_rb_sampler(2), None,
                                  [1, 4, 8], shots=4, rng=rng)
    assert res.ok and res.decay == 1.0 and res.error_rate == 0.0
    assert np.allclose(res.survivals, 1.0, atol=1e-12)


def test_rb_recovers_global_depolarizing_rate():
    # depolarizing q after every gate scales the deviation by (1 - q), so the
    # fitted decay must equal 1 - q regardless of the sampled sequences
    q = 0.01
    rng = np.random.default_rng(5)
    res = randomized_benchmarking(default_rb_sampler(2),
                                  Channel.depolarizing(2, q),
                                  [1, 4, 16, 64, 128], shots=4, rng=rng)
    assert res.ok
    assert res.decay == pytest.approx(1 - q, rel=1e-5)
    assert res.error_rate == pytest.approx(q * (1 - 0.25), rel=1e-3)
    # survivals are exactly (1-q)^(m+1) here
    for m, s in zip(res.lengths, res.survivals):
        assert s == pytest.approx((1 - q) ** (m + 1), abs=1e-12)


def test_rb_flags_non_decaying_data():
    rng = np.random.default_rng(5)
    res = randomized_benchmarking(default_rb_sampler(1),
                                  Channel.depolarizing(1, 0.05),
                                  [16, 1], shots=3, rng=rng)
    assert not res.ok
    assert "decay" in res.message


def test_samplers_produce_valid_tableaux():
    rng = np.random.default_rng(2)
    s1 = default_rb_sampler(3)
    assert all(s1(rng).n == 3 for _ in range(10))
    s2 = rotation_clifford_sampler()
    tabs = {s2(rng) for _ in range(60)}
    assert all(t.n == 1 for t in tabs)
    assert len(tabs) == 9  # three axes, three angles
