"""Convention checks and linear-algebra oracles for the operator toolbox."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nmrqip.qop import (
    KET0,
    PAULIS,
    PauliString,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    average_gate_fidelity_exact,
    basis_ket,
    hermitian_entries,
    check_density,
    check_unitary,
    controlled,
    embed,
    expectation,
    haar_random_state,
    haar_random_unitary,
    ket_density,
    partial_trace,
    pauli_matrices,
    pauli_sum,
    state_fidelity,
    sylvester_hadamard,
    tensor,
)

from conftest import (KET1, all_pauli_words, bloch_vector, gate_fidelity_hs, pauli_product,
                      pauli_weight, random_density)


def test_pauli_algebra():
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)
    assert np.allclose(SIGMA_Y @ SIGMA_Z, 1j * SIGMA_X)
    assert np.allclose(SIGMA_Z @ SIGMA_X, 1j * SIGMA_Y)
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert np.allclose(s @ s, np.eye(2))


def test_qubit_one_is_leftmost_factor():
    assert np.allclose(PauliString("XI").dense(), np.kron(SIGMA_X, np.eye(2)))
    assert np.allclose(PauliString("IX").dense(), np.kron(np.eye(2), SIGMA_X))
    assert np.allclose(PauliString("XZ").dense(), np.kron(SIGMA_X, SIGMA_Z))


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
    x = PauliString("X")
    y = PauliString("Y")
    assert pauli_product(x, y).word == "Z" and pauli_product(x, y).phase == 1j
    assert pauli_product(y, x).phase == -1j
    assert not x.commutes(y)
    assert PauliString("XX").commutes(PauliString("YY"))
    for word, phase in (("XQ", 1), ("xz", 1), ("XZ", 0.5), ("XZ", 1 + 1e-6),
                        ("XZ", (1 + 1j) / np.sqrt(2))):
        with pytest.raises(ValueError):
            PauliString(word, phase)


def paulis(n):
    return st.builds(PauliString, st.text("IXYZ", min_size=n, max_size=n),
                     st.sampled_from([1, -1, 1j, -1j]))


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(paulis(n), paulis(n))))
def test_pauli_bit_algebra_matches_dense(pair):
    p, q = pair
    assert np.array_equal(pauli_product(p, q).dense(), p.dense() @ q.dense())
    commutator = p.dense() @ q.dense() - q.dense() @ p.dense()
    assert p.commutes(q) == (not commutator.any())


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 4).flatmap(paulis))
def test_pauli_string_word_and_bits_roundtrip(p):
    assert PauliString(p.word, p.phase) == p
    same = PauliString.from_bits(p.n, p.x, p.z, p.k)
    assert same == p and same.word == p.word
    assert p.phase == 1j ** (p.k - bin(p.x & p.z).count("1"))
    assert pauli_weight(p) == sum(c != "I" for c in p.word)


def test_from_bits_default_phase_matches_word():
    # the default k is reduced mod 4, so four or more Y letters (k = 4, 5, ...)
    # compare like the parsed word
    for n in range(1, 8):
        for word in all_pauli_words(n):
            p = PauliString(word)
            q = PauliString.from_bits(n, p.x, p.z)
            assert q == p and q.k == p.k


def kron_pauli(word, phase):
    """Oracle: the phase times the kron of the word's letter matrices."""
    return phase * tensor(*(PAULIS[c] for c in word))


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
            ps = [PauliString(w, ph) for w, ph in chunk]
            stack = pauli_matrices(n, [p.x << (n + 2) | p.z << 2 | p.k for p in ps])
            assert stack.shape == (len(chunk), 2**n, 2**n)
            for (word, phase), p, mat in zip(chunk, ps, stack):
                ref = kron_pauli(word, phase)
                assert np.array_equal(mat, ref) and np.array_equal(p.dense(), ref)
                if phase == 1:
                    assert np.array_equal(PauliString(word).dense(), ref)


def test_hermitian_entries_pack_the_phase_plus_one_paulis():
    # every key for n <= 6; from n = 4 on popcount(x & z) reaches 4, whose
    # phase i^4 = 1 must not carry into the z bits (YYYYI is X^30 Z^30 i^4)
    for n in range(1, 7):
        ps = [PauliString.from_bits(n, a >> n, a & (1 << n) - 1) for a in range(4**n)]
        want = [p.x << (n + 2) | p.z << 2 | p.k for p in ps]
        assert hermitian_entries(n, np.arange(4**n)).tolist() == want
    assert hermitian_entries(5, np.array([30 << 5 | 30])).tolist() == [30 << 7 | 30 << 2]


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
