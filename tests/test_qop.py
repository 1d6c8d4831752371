"""Convention checks and linear-algebra oracles for the operator toolbox."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmrqip.qop import (
    KET0,
    KET1,
    PauliString,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    all_pauli_words,
    average_gate_fidelity_exact,
    basis_ket,
    bloch_vector,
    check_density,
    check_unitary,
    controlled,
    embed,
    expectation,
    gate_fidelity_hs,
    haar_random_state,
    haar_random_unitary,
    ket_density,
    partial_trace,
    pauli_dense,
    state_fidelity,
    tensor,
)

from conftest import random_density


def test_pauli_algebra():
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)
    assert np.allclose(SIGMA_Y @ SIGMA_Z, 1j * SIGMA_X)
    assert np.allclose(SIGMA_Z @ SIGMA_X, 1j * SIGMA_Y)
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert np.allclose(s @ s, np.eye(2))


def test_qubit_one_is_leftmost_factor():
    assert np.allclose(pauli_dense("XI"), np.kron(SIGMA_X, np.eye(2)))
    assert np.allclose(pauli_dense("IX"), np.kron(np.eye(2), SIGMA_X))
    assert np.allclose(pauli_dense("XZ"), np.kron(SIGMA_X, SIGMA_Z))


def test_pauli_dense_cache_skips_seven_qubit_words():
    from nmrqip import qop

    before = len(qop._PAULI_DENSE_CACHE)
    mat = PauliString("XYZIZYX").dense()
    assert len(qop._PAULI_DENSE_CACHE) == before
    ref = np.kron(np.kron(SIGMA_X, SIGMA_Y), np.kron(SIGMA_Z, np.eye(2)))
    ref = np.kron(ref, np.kron(np.kron(SIGMA_Z, SIGMA_Y), SIGMA_X))
    assert np.array_equal(mat, ref)


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
    assert (x * y).word == "Z" and (x * y).phase == 1j
    assert (y * x).phase == -1j
    assert not x.commutes(y)
    assert PauliString("XX").commutes(PauliString("YY"))
    with pytest.raises(ValueError):
        PauliString("XQ")


def test_pauli_dense_matches_kron():
    rng = np.random.default_rng(0)
    for word in rng.choice(all_pauli_words(3), size=8, replace=False):
        mats = {"I": np.eye(2), "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}
        expect = tensor(*(mats[c] for c in word))
        assert np.allclose(pauli_dense(word), expect)


def test_all_pauli_words():
    words = all_pauli_words(2)
    assert len(words) == 16
    assert words[0] == "II"
    assert len(set(words)) == 16


def test_controlled_x_is_cnot():
    cnot = controlled(SIGMA_X)
    expect = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                      dtype=complex)
    assert np.allclose(cnot, expect)
    # two controls on a phase gate: only |111> picks the phase
    ccz = controlled(np.diag([1, -1]).astype(complex), n_controls=2)
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
    assert np.allclose(partial_trace(rho, [1], n=3), rho1)
    assert np.allclose(partial_trace(rho, [2, 3], n=3), rho2)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3))
def test_partial_trace_preserves_trace_and_hermiticity(seed, n):
    rho = random_density(2**n, np.random.default_rng(seed))
    keep = [1]
    red = partial_trace(rho, keep, n=n)
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
