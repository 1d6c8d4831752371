"""XXZ chain geometric entanglement and its phase-boundary diagnostics."""

import numpy as np
import pytest

from nmrqip.experiments.xxz import (
    _state_ge,
    branch_crossing,
    equatorial_overlap,
    ferro_overlap,
    ge_jump_location,
    neel_overlap,
    product_overlap_sweep,
    xxz_ground_state,
    xxz_hamiltonian,
    xxz_scan,
)
from nmrqip.experiments import xxz
from nmrqip.qop import PAULIS, PauliString, tensor


def test_hamiltonian_by_hand():
    n, gamma = 3, 0.7
    ham = np.zeros((8, 8), dtype=complex)
    for (i, j) in ((0, 1), (1, 2), (2, 0)):
        for letter, w in (("X", 1.0), ("Y", 1.0), ("Z", gamma)):
            word = "".join(letter if q in (i, j) else "I" for q in range(n))
            ham += w * PauliString(word).dense()
    assert np.allclose(xxz_hamiltonian(n, gamma), ham)
    with pytest.raises(ValueError):
        xxz_hamiltonian(1, 0.0)
    with pytest.raises(ValueError):
        xxz_hamiltonian(9, 0.0)


def test_hamiltonian_equals_kron_sum():
    # bond by bond, X X then Y Y then gamma Z Z, on the periodic ring
    for n in range(2, 8):
        for gamma in (-2.0, -1.0, -0.35, 0.0, 1.0, 1.7):
            ref = np.zeros((2**n, 2**n), dtype=complex)
            for i in range(n):
                for letter, w in (("X", 1.0), ("Y", 1.0), ("Z", gamma)):
                    sites = (i, (i + 1) % n)
                    ref += w * tensor(*(PAULIS[letter if q in sites else "I"] for q in range(n)))
            assert np.array_equal(xxz_hamiltonian(n, gamma), ref)


def test_total_z_is_the_diagonal_of_the_z_sum():
    for n in range(2, 8):
        dense = sum(PauliString("I" * q + "Z" + "I" * (n - q - 1)).dense() for q in range(n))
        assert np.array_equal(np.diag(xxz._total_z(n)), dense)


def test_hamiltonian_conserves_magnetization():
    n = 4
    total_z = sum(PauliString("I" * q + "Z" + "I" * (n - q - 1)).dense()
                  for q in range(n))
    for gamma in (-2.0, 0.3, 1.5):
        ham = xxz_hamiltonian(n, gamma)
        assert np.abs(ham @ total_z - total_z @ ham).max() < 1e-12


def test_ground_state_energy_against_dense_solve():
    for gamma in (-1.5, 0.0, 1.2):
        psi, e0, _ = xxz_ground_state(4, gamma)
        evals = np.linalg.eigvalsh(xxz_hamiltonian(4, gamma))
        assert e0 == pytest.approx(evals[0], abs=1e-10)
        ham = xxz_hamiltonian(4, gamma)
        assert np.vdot(psi, ham @ psi).real == pytest.approx(e0, abs=1e-9)
        assert np.linalg.norm(psi) == pytest.approx(1.0)


def test_ferro_phase_is_product():
    psi, _, deg = xxz_ground_state(4, -2.0)
    assert deg >= 2
    # tie-break picks the polarized all-up state deterministically
    assert abs(psi[0]) == pytest.approx(1.0, abs=1e-9)
    assert ferro_overlap(psi) == pytest.approx(1.0, abs=1e-9)
    assert equatorial_overlap(psi, 4) == pytest.approx(1 / 16, abs=1e-6)


def test_product_sweep_finds_exact_overlaps(rng):
    # product input: overlap 1
    factors = [np.array([1, 0], complex), np.array([1, 1], complex) / np.sqrt(2)]
    psi = np.kron(factors[0], factors[1])
    lam2, _ = product_overlap_sweep(psi, 2, rng=rng)
    assert lam2 == pytest.approx(1.0, abs=1e-12)
    # Bell state: best product overlap is 1/2
    bell = np.array([1, 0, 0, 1], complex) / np.sqrt(2)
    lam2, _ = product_overlap_sweep(bell, 2, rng=rng)
    assert lam2 == pytest.approx(0.5, abs=1e-9)
    # GHZ: likewise 1/2
    ghz = np.zeros(8, complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    lam2, _ = product_overlap_sweep(ghz, 3, rng=rng)
    assert lam2 == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(ValueError, match="rng"):
        product_overlap_sweep(bell, 2)


def test_ge_definition(rng):
    psi, _, _ = xxz_ground_state(4, 0.5)
    res = _state_ge(psi, 4, rng, 6)
    assert res.ge == pytest.approx(-np.log2(res.lambda2), abs=1e-12)
    assert res.lambda2 == pytest.approx(max(res.restarts), abs=0.0)
    assert 0 < res.lambda2 <= 1


def test_neel_overlap_indices():
    psi = np.zeros(16)
    psi[0b0101] = 1.0
    assert neel_overlap(psi, 4) == pytest.approx(1.0)
    psi2 = np.zeros(16)
    psi2[0b1010] = 1.0
    assert neel_overlap(psi2, 4) == pytest.approx(1.0)


def test_scan_and_jump_location(rng):
    gammas = np.arange(-1.3, -0.701, 0.1)
    scan = xxz_scan(4, gammas, rng, n_restarts=6)
    assert np.allclose(scan.ge, -np.log2(scan.lambda2), atol=1e-12)
    jump = ge_jump_location(scan)
    assert abs(jump - (-1.0)) <= 0.05 + 1e-9
    # ferro side is product (GE ~ 0), planar side is entangled
    assert scan.ge[0] < 0.02
    assert scan.ge[-1] > 0.3
    with pytest.raises(ValueError):
        scan.ge[0] = 0.0


def test_branch_crossing_near_isotropic_point():
    assert abs(branch_crossing(4) - 1.0) <= 0.02


def test_branch_crossing_needs_sign_change():
    with pytest.raises(ValueError, match="dominance"):
        branch_crossing(4, lo=2.0, hi=3.0)


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_branch_crossing_needs_even_ring_of_four(monkeypatch, n):
    # refused before any ground state is computed
    import nmrqip.experiments.xxz as xxz

    def fail(*args):
        raise AssertionError("ground state computed")

    monkeypatch.setattr(xxz, "xxz_ground_state", fail)
    with pytest.raises(ValueError, match="even n >= 4"):
        branch_crossing(n)
