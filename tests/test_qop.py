"""Convention checks and linear-algebra oracles for the operator toolbox."""

import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nmrqip.qop import (
    KET0,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    average_gate_fidelity_exact,
    basis_ket,
    hermitian_entries,
    check_density,
    check_unitary,
    commutes,
    controlled,
    embed,
    expectation,
    haar_random_state,
    haar_random_unitary,
    ket_density,
    partial_trace,
    pauli_entry,
    pauli_matrices,
    pauli_sum,
    pauli_word,
    state_fidelity,
    sylvester_hadamard,
    tensor,
)

from conftest import (KET1, all_pauli_words, bloch_vector, gate_fidelity_hs, pauli_product,
                      pauli_weight, random_density, signed_entry, word_matrix)


def test_pauli_algebra():
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)
    assert np.allclose(SIGMA_Y @ SIGMA_Z, 1j * SIGMA_X)
    assert np.allclose(SIGMA_Z @ SIGMA_X, 1j * SIGMA_Y)
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert np.allclose(s @ s, np.eye(2))


def test_qubit_one_is_leftmost_factor():
    xi, ix, xz = pauli_matrices(2, [pauli_entry(w) for w in ("XI", "IX", "XZ")])
    assert np.allclose(xi, np.kron(SIGMA_X, np.eye(2)))
    assert np.allclose(ix, np.kron(np.eye(2), SIGMA_X))
    assert np.allclose(xz, np.kron(SIGMA_X, SIGMA_Z))


def test_ket0_is_plus_z():
    assert np.allclose(SIGMA_Z @ KET0, KET0)
    assert np.allclose(SIGMA_Z @ KET1, -KET1)


def test_basis_ket_bit_order():
    # '01' means qubit 1 in |0>, qubit 2 in |1>: index 1 of the 4-vector
    psi = basis_ket("01")
    assert psi[1] == 1.0 and np.sum(np.abs(psi)) == 1.0
    assert np.allclose(basis_ket("10"), np.kron(KET1, KET0))
    assert np.allclose(basis_ket(3, n=2), np.kron(KET1, KET1))


def test_pauli_string_products():
    x, y = pauli_entry("X"), pauli_entry("Y")
    assert pauli_product(1, x, y) == signed_entry("Z", 1j)
    assert pauli_product(1, y, x) == signed_entry("Z", -1j)
    assert not commutes(1, x, y)
    assert commutes(2, pauli_entry("XX"), pauli_entry("YY"))
    for word in ("XQ", "xz", "X Z", "-XZ"):
        with pytest.raises(ValueError, match="bad Pauli word"):
            pauli_entry(word)


def paulis(n):
    """(n, word, phase, its entry) of a word on n qubits at a phase +-1 or +-i."""
    return st.tuples(st.text("IXYZ", min_size=n, max_size=n),
                     st.sampled_from([1, -1, 1j, -1j])).map(
        lambda wp: (n, *wp, signed_entry(*wp)))


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(paulis(n), paulis(n))))
def test_pauli_bit_algebra_matches_dense(pair):
    (n, _, _, p), (_, _, _, q) = pair
    a, b, ab = pauli_matrices(n, [p, q, pauli_product(n, p, q)])
    assert np.array_equal(ab, a @ b)
    commutator = a @ b - b @ a
    assert commutes(n, p, q) == (not commutator.any())


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 4).flatmap(paulis))
def test_pauli_string_word_and_bits_roundtrip(case):
    n, word, phase, e = case
    assert pauli_word(n, e) == word
    assert np.array_equal(pauli_matrices(n, e)[0], word_matrix(word, phase))
    assert phase == 1j ** ((e & 3) - (e >> (n + 2) & e >> 2).bit_count())
    assert pauli_weight(n, e) == sum(c != "I" for c in word)


def test_parsed_entry_phase_matches_word():
    # k is reduced mod 4, so four or more Y letters (k = 4, 5, ...) give the
    # entry the letter oracle packs
    for n in range(1, 8):
        for word in all_pauli_words(n):
            assert pauli_entry(word) == signed_entry(word)


@pytest.mark.parametrize("n", range(1, 6))
def test_every_word_round_trips_through_its_entry(n):
    # every key once, each printed back to its word, each matrix the
    # Kronecker product of the word's letters
    words = all_pauli_words(n)
    entries = [pauli_entry(w) for w in words]
    assert sorted(e >> 2 for e in entries) == list(range(4**n))
    assert [pauli_word(n, e) for e in entries] == words
    for word, mat in zip(words, pauli_matrices(n, entries)):
        assert np.array_equal(mat, word_matrix(word))


def test_commutes_matches_the_dense_commutator():
    # all 256 pairs at n = 2 and 300 random pairs at n = 5
    rng = np.random.default_rng(0)
    random_words = ["".join(rng.choice(list("IXYZ"), size=5)) for _ in range(600)]
    for n, pairs in ((2, itertools.product(all_pauli_words(2), repeat=2)),
                     (5, zip(random_words[::2], random_words[1::2]))):
        for a, b in pairs:
            ma, mb = word_matrix(a), word_matrix(b)
            assert commutes(n, pauli_entry(a), pauli_entry(b)) == (not (ma @ mb - mb @ ma).any())


def test_pauli_dense_matches_kron():
    # every Pauli and phase for n <= 3, 200 random ones for each n = 4..7;
    # values, not bytes: the builders' zeros differ in sign
    rng = np.random.default_rng(0)
    phases = (1, -1, 1j, -1j)
    for n in range(1, 8):
        if n <= 3:
            cases = [(w, ph) for w in all_pauli_words(n) for ph in phases]
        else:
            cases = [("".join(rng.choice(list("IXYZ"), size=n)), phases[rng.integers(4)])
                     for _ in range(200)]
        for start in range(0, len(cases), 25):
            chunk = cases[start:start + 25]
            stack = pauli_matrices(n, [signed_entry(w, ph) for w, ph in chunk])
            assert stack.shape == (len(chunk), 2**n, 2**n)
            for (word, phase), mat in zip(chunk, stack):
                ref = word_matrix(word, phase)
                assert np.array_equal(mat, ref)
                if phase == 1:
                    assert np.array_equal(pauli_matrices(n, pauli_entry(word))[0], ref)


def test_hermitian_entries_pack_the_phase_plus_one_paulis():
    # every key for n <= 6 against the entries packed from the words' letters;
    # from n = 4 on popcount(x & z) reaches 4, whose phase i^4 = 1 must not
    # carry into the z bits (YYYYI is X^30 Z^30 i^4)
    for n in range(1, 7):
        by_key = {e >> 2: e for e in map(signed_entry, all_pauli_words(n))}
        assert hermitian_entries(n, np.arange(4**n)).tolist() == [by_key[a] for a in range(4**n)]
    assert hermitian_entries(5, np.array([30 << 5 | 30])).tolist() == [30 << 7 | 30 << 2]
    # one Python int key: IIIXY's has popcount(x & z) = 1, and its entry 389
    # does not fit the uint8 that numpy's popcount gives
    assert hermitian_entries(5, 3 << 5 | 1) == 3 << 7 | 1 << 2 | 1 == 389


_COEFFS = st.one_of(st.floats(-10, 10), st.complex_numbers(max_magnitude=10, allow_nan=False))


@settings(deadline=None, max_examples=80, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(_COEFFS, st.text("IXYZ", min_size=n, max_size=n)), max_size=8),
    st.lists(st.integers(0, 7), max_size=4))))
def test_pauli_sum_matches_kron_sum(case):
    # terms repeat by index; the oracle adds c kron(letters) in the same order
    n, terms, repeats = case
    terms = terms + [terms[i] for i in repeats if i < len(terms)]
    ref = np.zeros((2**n, 2**n), dtype=complex)
    bits = []
    for c, word in terms:
        ref += c * tensor(*(PAULIS[letter] for letter in word))
        x = int("".join("1" if letter in "XY" else "0" for letter in word), 2)
        z = int("".join("1" if letter in "YZ" else "0" for letter in word), 2)
        bits.append((c, x, z))
    assert np.array_equal(pauli_sum(n, bits), ref)


def test_all_pauli_words():
    words = all_pauli_words(2)
    assert len(words) == 16
    assert words[0] == "II"
    assert len(set(words)) == 16


@pytest.mark.parametrize("n", range(8))
def test_sylvester_hadamard_matches_scipy(n):
    h = sylvester_hadamard(n)
    assert h.dtype == float and not h.flags.writeable
    assert np.array_equal(h, scipy.linalg.hadamard(2**n, dtype=float))


def test_controlled_x_is_cnot():
    cnot = controlled(SIGMA_X)
    expect = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                      dtype=complex)
    assert np.allclose(cnot, expect)
    # two controls on a phase gate: only |111> picks the phase
    ccz = controlled(controlled(np.diag([1, -1]).astype(complex)))
    assert np.allclose(np.diag(ccz), [1, 1, 1, 1, 1, 1, 1, -1])


def test_embed_positions():
    assert np.allclose(embed(SIGMA_X, [2], 2), np.kron(np.eye(2), SIGMA_X))
    # two-qubit op on (3, 1) of three: factor order follows the label list
    op = np.kron(SIGMA_X, SIGMA_Z)
    got = embed(op, [3, 1], 3)
    expect = np.kron(SIGMA_Z, np.kron(np.eye(2), SIGMA_X))
    assert np.allclose(got, expect)


def test_partial_trace_product_state(rng):
    rho1 = random_density(2, rng)
    rho2 = random_density(4, rng)
    rho = np.kron(rho1, rho2)
    assert np.allclose(partial_trace(rho, [1]), rho1)
    assert np.allclose(partial_trace(rho, [2, 3]), rho2)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3))
def test_partial_trace_preserves_trace_and_hermiticity(seed, n):
    rho = random_density(2**n, np.random.default_rng(seed))
    keep = [1]
    red = partial_trace(rho, keep)
    assert abs(np.trace(red) - 1.0) < 1e-12
    assert np.allclose(red, red.conj().T)


def test_expectation_real_guard(rng):
    rho = random_density(2, rng)
    assert expectation(rho, SIGMA_Z) == pytest.approx(np.trace(rho @ SIGMA_Z).real)
    with pytest.raises(ValueError):
        expectation(rho, 1j * np.eye(2))  # not Hermitian: complex trace


def test_check_density_rejects_bad_inputs():
    with pytest.raises(ValueError):
        check_density(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError):
        check_density(np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ValueError):
        check_unitary(np.diag([1.0, 2.0]).astype(complex))


def test_gate_fidelity_hs():
    rng = np.random.default_rng(5)
    u = haar_random_unitary(4, rng)
    assert gate_fidelity_hs(u, u) == pytest.approx(1.0)
    assert gate_fidelity_hs(u, 1j * u) == pytest.approx(1.0)  # phase-blind
    assert gate_fidelity_hs(np.eye(2), SIGMA_X) == pytest.approx(0.0)


def test_state_fidelity_pure_overlap(rng):
    psi = haar_random_state(4, rng)
    phi = haar_random_state(4, rng)
    f = state_fidelity(ket_density(psi), ket_density(phi))
    # eigh on a rank-1 product limits precision here, hence the looser bound
    assert f == pytest.approx(abs(np.vdot(psi, phi)) ** 2, abs=1e-7)
    assert state_fidelity(ket_density(psi), ket_density(psi)) == pytest.approx(1.0)


def test_average_gate_fidelity_depolarizing_analytic():
    # rho -> (1-p) rho + p I/2 against the identity target: F = 1 - p/2
    from nmrqip.channels import Channel

    for p in (0.0, 0.1, 0.37, 1.0):
        got = average_gate_fidelity_exact(Channel.depolarizing(1, p).kraus(),
                                          np.eye(2))
        assert got == pytest.approx(1 - p / 2, abs=1e-12)


def test_average_gate_fidelity_perfect_gate(rng):
    u = haar_random_unitary(8, rng)
    assert average_gate_fidelity_exact([u], u) == pytest.approx(1.0, abs=1e-12)


def test_haar_unitary_properties(rng):
    u = haar_random_unitary(8, rng)
    assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-12)
    # same seed, same matrix
    a = haar_random_unitary(4, np.random.default_rng(42))
    b = haar_random_unitary(4, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_bloch_vector():
    assert np.allclose(bloch_vector(ket_density(KET0)), [0, 0, 1])
    plus = (KET0 + KET1) / np.sqrt(2)
    assert np.allclose(bloch_vector(ket_density(plus)), [1, 0, 0], atol=1e-12)
