"""Twirl-based fidelity estimation and randomized benchmarking."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from nmrqip import clifford, twirl
from nmrqip.channels import Channel, pauli_probs_by_weight
from nmrqip.clifford import circuit_tableau, compose, gate_tableau, identity, tableau, unitaries
from nmrqip.qop import average_gate_fidelity_exact, pauli_entry
from nmrqip.twirl import (
    TwirlEstimate,
    _fit_decay,
    _sample_paulis,
    _shot_values,
    _survivals,
    _twirl,
    certify_clifford,
    default_rb_sampler,
    randomized_benchmarking,
    recommended_samples,
    rotation_clifford_sampler,
    twirl_estimate_memory,
)

from conftest import (all_1q_cliffords, all_pauli_words, bit_flip, circuit_unitary,
                      composite_pauli_vector, dense_rb_survivals, dense_shot_values,
                      draw_rb_indices, exact_rb_survivals, factor_kraus, from_unitaries,
                      kraus_sum, pauli_product, pauli_weight, phase_flip, rotation_unitaries,
                      signed_entry, signed_paulis, tableau_rb_survivals)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def test_recommended_samples_formula():
    assert recommended_samples(3, 0.02) == math.ceil(
        math.log(2 * 3 / 0.05) / (2 * 0.02**2))
    assert recommended_samples(1, 0.1) < recommended_samples(1, 0.01)


def test_fbar_mapping():
    est = TwirlEstimate(pr0_hat=0.84, n_samples=100, n=3)
    assert est.fbar == pytest.approx((8 * 0.84 + 1) / 9)


def test_twirl_identity_channel_is_exact():
    rng = np.random.default_rng(0)
    est = twirl_estimate_memory(Channel.depolarizing(2, 0), 0.05, rng, n_samples=50)
    assert est.pr0_hat == pytest.approx(1.0, abs=1e-12)
    assert est.fbar == pytest.approx(1.0, abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)


def old_chain_law(n: int) -> dict:
    """Exact law, keyed by entry, of the weight -> permutation -> per-qubit
    Clifford draw: weight w with probability C(n,w) 3^w / (4^n - 1), the
    first w qubits of a uniform permutation, and on each the image C Z C^dag
    of one of the 24 single-qubit Cliffords, embedded and multiplied in."""
    images = [int(compose(pauli_entry("Z"), c)) for c in all_1q_cliffords()]
    law: dict = {}
    for w in range(1, n + 1):
        p_w = Fraction(math.comb(n, w) * 3**w, 4**n - 1)
        subsets: dict = {}
        for perm in itertools.permutations(range(n)):
            key = tuple(sorted(perm[:w]))
            subsets[key] = subsets.get(key, 0) + Fraction(1, math.factorial(n))
        for qubits, p_s in subsets.items():
            for choice in itertools.product(images, repeat=w):
                p = 0  # the identity
                for q, img in zip(qubits, choice):
                    # the one-qubit entry x << 3 | z << 2 | k, placed on qubit q + 1
                    s = n - 1 - q
                    placed = (img >> 3) << (n + 2 + s) | (img >> 2 & 1) << (2 + s) | img & 3
                    p = pauli_product(n, p, placed)
                law[p] = law.get(p, 0) + p_w * p_s / 24**w
    return law


@pytest.mark.parametrize("n", [1, 2, 3])
def test_old_chain_law_is_uniform_over_signed_paulis(n):
    # the deleted per-shot draw gave every signed non-identity Pauli the same
    # probability, which is the law the index-and-sign draw samples directly
    law = old_chain_law(n)
    words = all_pauli_words(n)[1:]
    assert set(law) == {signed_entry(w, s) for w in words for s in (1, -1)}
    assert set(law.values()) == {Fraction(1, 2 * (4**n - 1))}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sampler_frequencies_are_uniform_over_signed_paulis(n):
    from scipy.stats import chi2

    cells = 2 * (4**n - 1)
    count = 200 * cells
    idx, sign = _sample_paulis(n, count, np.random.default_rng(100 + n), with_replacement=True)
    freq = np.bincount(idx << 1 | sign, minlength=2 * 4**n)
    assert freq.sum() == count and freq[:2].sum() == 0  # never the identity
    expected = count / cells
    stat = float(np.sum((freq[2:] - expected) ** 2) / expected)
    assert chi2.sf(stat, cells - 1) > 1e-3


def test_distinct_draw_matches_word_enumeration():
    # the draw without replacement makes the old rng.choice call; choice i
    # picks the word at index i + 1 of the channels' x << n | z vector order
    for n in range(1, 6):
        by_index = {}
        for w in all_pauli_words(n):
            p = signed_entry(w)
            by_index[p >> 2] = p
        assert sorted(by_index) == list(range(4**n)) and pauli_weight(n, by_index[0]) == 0
        for count in (1, min(4**n - 1, 50)):
            rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
            want = [by_index[i + 1]
                    for i in ref_rng.choice(4**n - 1, size=count, replace=False)]
            idx, sign = _sample_paulis(n, count, rng, with_replacement=False)
            assert not sign.any() and signed_paulis(n, idx, sign) == want
            assert rng.random() == ref_rng.random()


def noise_and_gate(n):
    """Multi-factor Pauli noise (random factors on qubit 1, on qubits n and 1
    in that order, and on the middle qubit) as one Pauli vector, its dense
    image as the factors' Kraus sums from Pauli words, that image before a
    Clifford circuit's dense unitary, and the circuit's tableau."""
    rng = np.random.default_rng(n)
    factors = [(rng.dirichlet(np.ones(4)), (1,))]
    if n > 1:
        factors.append((rng.dirichlet(np.ones(16)), (n, 1)))
    if n > 2:
        factors.append((rng.dirichlet(np.ones(4)), ((n + 1) // 2,)))
    kraus = factor_kraus(factors, n)
    gates = [("H", (1,))] + [("CNOT", (q, q + 1)) for q in range(1, n)]
    u = circuit_unitary(gates, n)

    def memory(rho):
        for k in kraus:
            rho = kraus_sum(k, rho)
        return rho

    def gate(rho):
        return u @ memory(rho) @ u.conj().T

    noise = Channel(composite_pauli_vector(factors, n))
    return noise, memory, gate, circuit_tableau(gates, n)


@pytest.mark.parametrize("n", range(1, 8))
def test_shot_memo_matches_per_shot_loop(n):
    # the eigenvalue-table gather (memory) and the batched tableau-versus-
    # unitary trace (gate) against the dense loop, which sends a state through
    # the Kraus sums once per distinct signed Pauli; the readout draws the
    # same binomials in the same order
    noise, memory, gate, target = noise_and_gate(n)
    count = min(40, 4**n - 1) if n < 5 else 4  # an image at n = 7 is 48 products of d = 128
    for with_replacement in (True, False):
        idx, sign = _sample_paulis(n, count, np.random.default_rng(n), with_replacement)
        for readout_shots in (None, 100) if n < 6 else (None,):
            for tab, image, readout in ((None, memory, lambda p: p),
                                        (target, gate, lambda p: compose(p, target))):
                rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
                got = _shot_values(noise, idx, sign, tab, readout_shots, rng)
                want = dense_shot_values(n, image, idx, sign, readout, readout_shots, ref_rng)
                assert np.allclose(got, want, rtol=0, atol=1e-14)
                assert rng.random() == ref_rng.random()


def test_channel_applies_once_per_distinct_signed_pauli(monkeypatch):
    # neither estimate applies the channel to a state; certify reads the
    # images of all its distinct Paulis from the target's table in one
    # compose, not one per Pauli, and it forms the target's unitary once;
    # both estimates equal the dense loop's, which is computed before
    # anything is patched
    def forbidden(*args):
        raise AssertionError("Channel.apply called by a twirl estimate")

    n = 2
    noise, memory, gate, target = noise_and_gate(n)
    cases = []
    for with_replacement, count in ((True, 600), (False, 15)):
        idx, sign = _sample_paulis(n, count, np.random.default_rng(5), with_replacement)
        distinct = len(np.unique(idx << 1 | sign))
        assert distinct < count if with_replacement else distinct == count
        for tab, image, readout in ((None, memory, lambda p: p),
                                    (target, gate, lambda p: compose(p, target))):
            want = dense_shot_values(n, image, idx, sign, readout, None, None)
            cases.append((with_replacement, count, tab, want))
    built, composed = [], []
    monkeypatch.setattr(twirl, "unitaries", lambda t: built.append(t) or unitaries(t))
    monkeypatch.setattr(twirl, "compose", lambda p, t: composed.append(t) or compose(p, t))
    monkeypatch.setattr(Channel, "apply", forbidden)
    for with_replacement, count, tab, want in cases:
        built.clear()
        composed.clear()
        rng = np.random.default_rng(5)
        est = (twirl_estimate_memory(noise, 0.05, rng, count, None, with_replacement)
               if tab is None else _twirl(noise, tab, 0.05, rng, count, None, with_replacement))
        assert est.n_samples == count
        assert [t is tab for t in built] == [t is tab for t in composed] == (
            [] if tab is None else [True])
        assert est.pr0_hat == pytest.approx(15 / 16 * want.mean() + 1 / 16, rel=0, abs=1e-14)


def test_certify_detects_wrong_tableau_signs_on_negative_inputs(monkeypatch):
    # a CNOT tableau that sends X_1 to -X_1 X_2, certified against the true
    # CNOT unitary: every input with an X part on qubit 1 reads -1, whatever
    # the input's sign, as in the dense loop
    cnot = gate_tableau("CNOT", (1, 2), 2)
    u = unitaries(cnot)
    wrong = tableau(2, (signed_entry("XX", -1), pauli_entry("IX")),
                    (pauli_entry("ZI"), pauli_entry("ZZ")))
    monkeypatch.setattr(twirl, "unitaries", lambda t: u)
    idx = np.arange(1, 16)
    noiseless = Channel.depolarizing(2, 0)
    for sign in (np.ones(15, dtype=np.int64), np.zeros(15, dtype=np.int64)):
        got = _shot_values(noiseless, idx, sign, wrong, None, None)
        want = dense_shot_values(2, lambda rho: u @ rho @ u.conj().T, idx, sign,
                                 lambda p: compose(p, wrong), None, None)
        assert np.allclose(got, want, rtol=0, atol=1e-14)
        assert np.allclose(got, np.where(idx >> 3 & 1, -1.0, 1.0), rtol=0, atol=1e-14)
    est = _twirl(noiseless, wrong, 0.05, np.random.default_rng(7), 15, None,
                 with_replacement=False)
    assert est.fbar < 0.5


def test_twirl_exhaustive_recovers_identity_mass():
    # sampling every non-identity Pauli once makes the estimator exact, and
    # for a Pauli channel Pr(no error) is just the identity-word mass
    probs = pauli_probs_by_weight(2, {1: 0.3, 2: 0.1})
    ch = Channel(probs)
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
        twirl_estimate_memory(Channel.depolarizing(1, 0), 0.7, rng)
    with pytest.raises(ValueError):
        twirl_estimate_memory(Channel.depolarizing(2, 0), 0.05, rng, n_samples=16,
                              with_replacement=False)


def test_certify_noiseless_gate():
    rng = np.random.default_rng(7)
    est = certify_clifford(Channel.depolarizing(2, 0), gate_tableau("CNOT", (1, 2), 2), 0.05,
                           rng, n_samples=40)
    assert est.pr0_hat == pytest.approx(1.0, abs=1e-12)
    assert est.fbar == pytest.approx(1.0, abs=1e-12)


def test_certify_checks_the_tableau_against_the_dense_unitary(monkeypatch):
    # the gate is applied as the target's dense unitary and read out through
    # its tableau, so a unitary of another Clifford shows as lost fidelity
    # even without noise
    cnot, other = gate_tableau("CNOT", (1, 2), 2), gate_tableau("CNOT", (2, 1), 2)
    wrong = unitaries(other)
    monkeypatch.setattr(twirl, "unitaries", lambda t: wrong)
    est = _twirl(Channel.depolarizing(2, 0), cnot, 0.05, np.random.default_rng(7), 15, None,
                 with_replacement=False)
    assert est.fbar < 1 - 0.1
    same = _twirl(Channel.depolarizing(2, 0), other, 0.05, np.random.default_rng(7), 15, None,
                  with_replacement=False)
    assert same.fbar == pytest.approx(1.0, abs=1e-12)


def test_certify_exhaustive_matches_exact_fidelity():
    for p in (0.05, 0.2):
        noise = Channel.depolarizing(2, p)
        rng = np.random.default_rng(3)
        est = _twirl(noise, gate_tableau("CNOT", (1, 2), 2), 0.05, rng, 15, None,
                     with_replacement=False)
        exact = average_gate_fidelity_exact([CNOT @ k for k in noise.kraus()], CNOT)
        assert est.fbar == pytest.approx(exact, abs=1e-12)
        assert est.fbar == pytest.approx(1 - 3 * p / 4, abs=1e-12)


def test_certify_size_mismatch():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        certify_clifford(Channel.depolarizing(1, 0), identity(2),
                         0.05, rng)


def test_rb_zero_noise_constant_survival():
    rng = np.random.default_rng(11)
    res = randomized_benchmarking(default_rb_sampler(2), Channel.depolarizing(2, 0.0),
                                  [1, 4, 8], shots=4, rng=rng)
    assert res.ok and res.decay == 1.0 and res.error_rate == 0.0
    assert np.allclose(res.survivals, 1.0, atol=1e-12)


def test_rb_constant_survival_below_one_is_unresolved():
    # full depolarization leaves survival 0 at every length, and one noisy
    # length is flat too: neither resolves a decay, so neither is a fit
    full = randomized_benchmarking(default_rb_sampler(1), Channel.depolarizing(1, 1.0),
                                   [1, 2, 4, 8], shots=5, rng=np.random.default_rng(0))
    assert np.allclose(full.survivals, 0.0, atol=1e-12)
    one = randomized_benchmarking(default_rb_sampler(2), Channel.depolarizing(2, 0.01),
                                  [1], shots=3, rng=np.random.default_rng(0))
    assert 0 < one.survivals[0] < 1
    for res in (full, one):
        assert not res.ok and "cannot be resolved" in res.message
        assert all(math.isnan(v) for v in (res.amplitude, res.offset, res.decay,
                                           res.error_rate))


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


def test_samplers_produce_valid_tableaux(monkeypatch):
    rng = np.random.default_rng(2)
    # 2/3 over the 2n singles and 1/3 over the 2(n - 1) CNOTs, all singles at n = 1;
    # each set is one read-only (m, 4^n) stack of tables from one stacked
    # build (a named gate's local table is built from 1-D entries)
    built = []
    real = clifford._image_table
    monkeypatch.setattr(clifford, "_image_table", lambda m, e: built.append(e.ndim) or real(m, e))
    for n, want in ((1, [1 / 2] * 2), (3, [1 / 9] * 6 + [1 / 12] * 4)):
        built.clear()
        tabs, probs = default_rb_sampler(n)
        assert tabs.shape == (len(want), 4**n) and not tabs.flags.writeable
        assert built.count(2) == 1
        assert np.allclose(probs, want, rtol=0, atol=1e-15)
    built.clear()
    rot, rot_probs = rotation_clifford_sampler()
    assert rot.shape == (9, 4) and not rot.flags.writeable and built.count(2) == 1
    drawn = [rot[i] for i in rng.choice(len(rot), size=60, p=rot_probs)]
    assert len({t.tobytes() for t in drawn}) == 9  # three axes, three angles


def test_rotation_sampler_draws_the_dense_rotations_in_order():
    dense = from_unitaries(rotation_unitaries())
    tabs, probs = rotation_clifford_sampler()
    assert np.array_equal(probs, np.full(9, 1 / 9))
    (idx,) = draw_rb_indices((tabs, probs), [200], 1, np.random.default_rng(3))
    assert ([tabs[i].tobytes() for i in idx[:, 0]]
            == [dense[i].tobytes() for i in idx[:, 0]])


RB_LENGTHS = [1, 3, 8, 20, 40]


def rb_noise_models(n):
    """No noise, depolarizing, non-uniform Pauli, and a composite of per-qubit
    factors as one Pauli vector."""
    masses = {w: 0.02 / w for w in range(1, n + 1)}
    factors = [(bit_flip(0.01).probs, (1,))]
    factors += [(phase_flip(0.02).probs, (q,)) for q in range(2, n + 1)]
    factors.append((Channel.depolarizing(1, 0.03).probs, (n,)))
    composite = Channel(composite_pauli_vector(factors, n))
    return [Channel.depolarizing(n, 0.0), Channel.depolarizing(n, 0.01),
            Channel(pauli_probs_by_weight(n, masses)), composite]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rb_propagation_matches_dense_loop(n):
    for i, noise in enumerate(rb_noise_models(n)):
        ref_rng = np.random.default_rng(10 * n + i)
        drawn = draw_rb_indices(default_rb_sampler(n), RB_LENGTHS, 3, ref_rng)
        want = dense_rb_survivals(default_rb_sampler(n), noise, drawn)
        rng = np.random.default_rng(10 * n + i)
        got = randomized_benchmarking(default_rb_sampler(n), noise, RB_LENGTHS, 3, rng)
        assert np.allclose(got.survivals, want, rtol=0, atol=1e-12)
        assert rng.random() == ref_rng.random()


def rb_survivals(gate_set, noise, lengths, shots, rng) -> list:
    """Per length, the per-sequence survivals that randomized_benchmarking
    averages, drawn from rng as it draws them."""
    tabs, probs = gate_set
    table, lam = tabs >> 2, noise.eigenvalues()
    return [_survivals(table, probs, lam, m, shots, rng) for m in lengths]


@pytest.mark.parametrize("n", [1, 3, 5])
def test_rb_survival_is_a_per_gate_product_of_table_entries(n):
    # each sequence's survival is the product, gate by gate, of the noise's
    # eigenvalue-table entries at the propagated Pauli, then the entry at
    # Z_1 for the recovery: it equals the per-gate tableau loop's bit for
    # bit for the same drawn indices, and so does the mean per length
    gate_set = default_rb_sampler(n)
    for i, noise in enumerate(rb_noise_models(n)):
        drawn = draw_rb_indices(gate_set, RB_LENGTHS, 4, np.random.default_rng(10 * n + i))
        want = [tableau_rb_survivals(gate_set, noise, idx) for idx in drawn]
        got = rb_survivals(gate_set, noise, RB_LENGTHS, 4, np.random.default_rng(10 * n + i))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        res = randomized_benchmarking(gate_set, noise, RB_LENGTHS, 4,
                                      np.random.default_rng(10 * n + i))
        assert res.survivals == [float(w.mean()) for w in want]


def test_rb_draw_does_not_depend_on_the_block_size(monkeypatch):
    # gate indices are drawn in C order, so blocks of one step give the same
    # indices, and the same survivals bit for bit, as the default blocks
    gate_set, noise = default_rb_sampler(3), rb_noise_models(3)[2]
    lengths = [1, 40, 3000]
    want = rb_survivals(gate_set, noise, lengths, 30, np.random.default_rng(8))
    monkeypatch.setattr(twirl, "_DRAW_BYTES", 1)
    got = rb_survivals(gate_set, noise, lengths, 30, np.random.default_rng(8))
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("n", [1, 3, 5])
def test_rb_mean_survival_matches_the_exact_chain(n):
    # the sampled mean lies within 4 SE of lambda_Z1 1^T (Lambda P)^m e_Z1
    # (plus rounding, where every sequence has the same survival); under
    # depolarizing noise that chain is lambda^(m+1)
    gate_set, shots = default_rb_sampler(n), 10_000
    for i, noise in enumerate(rb_noise_models(n)):
        exact = exact_rb_survivals(gate_set, noise, RB_LENGTHS)
        sampled = rb_survivals(gate_set, noise, RB_LENGTHS, shots,
                               np.random.default_rng(10 * n + i))
        for e, surv in zip(exact, sampled):
            se = float(np.std(surv)) / math.sqrt(shots)
            assert abs(float(surv.mean()) - e) <= 4 * se + 1e-12
    lam = 1 - 0.01  # the depolarizing entry's eigenvalue at every non-identity Pauli
    exact = exact_rb_survivals(gate_set, rb_noise_models(n)[1], RB_LENGTHS)
    assert np.allclose(exact, [lam ** (m + 1) for m in RB_LENGTHS], rtol=1e-13, atol=0)


def test_rb_pauli_noise_builds_no_dense_unitary(monkeypatch):
    # once the gate set is built, RB forms no dense unitary, composes no
    # tableau, and propagates no per-gate Pauli object: it reads the key table
    def forbidden(*args):
        raise AssertionError("dense, tableau or Pauli-object call under Pauli noise")

    gate_set, noise_models = default_rb_sampler(3), rb_noise_models(3)
    for name in ("unitaries", "compose"):
        monkeypatch.setattr(twirl, name, forbidden)
    for name in ("unitaries", "compose", "inverse"):
        monkeypatch.setattr(clifford, name, forbidden)
    for noise in noise_models:
        res = randomized_benchmarking(gate_set, noise, RB_LENGTHS, 3,
                                      np.random.default_rng(0))
        assert res.ok


def decay_rss(lengths, surv, a, p, b):
    m, y = np.array(lengths, dtype=float), np.array(surv)
    return float(np.sum((y - (a * p**m + b)) ** 2))


def test_decay_fit_no_worse_than_curve_fit():
    from scipy.optimize import curve_fit

    lengths = [1, 2, 4, 8, 16, 32, 64, 96]
    cases = []
    for n in (1, 2, 3, 4):
        for noise in rb_noise_models(n)[1:]:
            res = randomized_benchmarking(default_rb_sampler(n), noise, lengths, 5,
                                          np.random.default_rng(n))
            cases.append(np.array(res.survivals))
    m = np.array(lengths, dtype=float)
    for seed in range(5):
        noise = np.random.default_rng(seed).normal(0, 0.01, m.size)
        cases.append(0.7 * 0.97**m + 0.2 + noise)
    for y in cases:
        a, p, b = _fit_decay(lengths, y)
        assert all(0 <= v <= 1 for v in (a, p, b))
        popt, _ = curve_fit(lambda m, a, p, b: a * p**m + b, m, y,
                            p0=(y[0] - y[-1], 0.99, y[-1]),
                            bounds=([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), maxfev=20000)
        assert decay_rss(lengths, y, a, p, b) <= decay_rss(lengths, y, *popt) * (1 + 1e-9)
