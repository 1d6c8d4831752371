"""XXZ chain geometric entanglement and its phase-boundary diagnostics."""

import numpy as np
import pytest

from nmrqip.experiments.xxz import (
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
from nmrqip.qop import PAULIS, tensor

from conftest import restart_sweep, seed_equatorial_sweeps, word_matrix


def test_hamiltonian_by_hand():
    n, gamma = 3, 0.7
    ham = np.zeros((8, 8), dtype=complex)
    for (i, j) in ((0, 1), (1, 2), (2, 0)):
        for letter, w in (("X", 1.0), ("Y", 1.0), ("Z", gamma)):
            word = "".join(letter if q in (i, j) else "I" for q in range(n))
            ham += w * word_matrix(word)
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
        dense = sum(word_matrix("I" * q + "Z" + "I" * (n - q - 1)) for q in range(n))
        assert np.array_equal(np.diag(xxz._total_z(n)), dense)


def test_hamiltonian_conserves_magnetization():
    n = 4
    total_z = sum(word_matrix("I" * q + "Z" + "I" * (n - q - 1))
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
    lam2, _, _ = product_overlap_sweep(psi, 2, rng)
    assert lam2[0] == pytest.approx(1.0, abs=1e-12)
    # Bell state: best product overlap is 1/2, from every restart
    bell = np.array([1, 0, 0, 1], complex) / np.sqrt(2)
    lam2, _, _ = product_overlap_sweep(bell, 2, rng, 4)
    assert lam2 == pytest.approx(np.full(4, 0.5), abs=1e-9)
    # GHZ: likewise 1/2
    ghz = np.zeros(8, complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    lam2, _, _ = product_overlap_sweep(ghz, 3, rng)
    assert lam2[0] == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(TypeError, match="rng"):
        product_overlap_sweep(bell, 2)


def test_ge_definition(rng):
    psi, _, _ = xxz_ground_state(4, 0.5)
    lam2, factors, sweeps = product_overlap_sweep(psi, 4, rng, 6)
    assert lam2.shape == sweeps.shape == (6,) and factors.shape == (6, 4, 2)
    # each restart's lambda^2 is the overlap of its own product state
    for value, f in zip(lam2, factors):
        prod = np.kron(np.kron(f[0], f[1]), np.kron(f[2], f[3]))
        assert abs(np.vdot(prod, psi)) ** 2 == pytest.approx(value, abs=1e-12)
    assert 0 < lam2.max() <= 1
    # the scan keeps the best restart of the same draw and takes -log2 of it
    scan = xxz_scan(4, [0.5], np.random.default_rng(1234), n_restarts=6)
    assert scan.lambda2[0] == lam2.max()
    assert scan.ge[0] == pytest.approx(-np.log2(lam2.max()), abs=1e-12)


# (n, gamma, n_restarts, seed): every ring size, both phases and the
# transitions, one restart, the default count and the configs' maximum
_BATCH_CASES = [(n, gamma, 8, 10 * n + k) for n in range(2, 8)
                for k, gamma in enumerate((-1.0, 0.3, 1.0))] + [
    (2, 0.5, 1, 0), (5, -0.4, 1, 1), (7, 1.2, 1, 2), (3, 0.7, 256, 3), (4, -1.3, 256, 4)]


@pytest.mark.parametrize("n, gamma, n_restarts, seed", _BATCH_CASES)
def test_batched_sweep_equals_restart_by_restart(n, gamma, n_restarts, seed):
    psi, _, _ = xxz_ground_state(n, gamma)
    batch_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    lam2, factors, sweeps = product_overlap_sweep(psi, n, batch_rng, n_restarts)
    for r in range(n_restarts):
        want_lam2, want_factors, want_sweeps = restart_sweep(psi, n, ref_rng)
        assert lam2[r] == want_lam2
        assert np.array_equal(factors[r], want_factors)
        assert sweeps[r] == want_sweeps
    assert batch_rng.normal() == ref_rng.normal()  # the same draws, in order


@pytest.mark.parametrize("n, gamma", [(n, g) for n in range(2, 8) for g in (-1.0, 0.3, 1.0)])
def test_batched_equatorial_sweep_equals_seed_by_seed(n, gamma):
    psi, _, _ = xxz_ground_state(n, gamma)
    want = seed_equatorial_sweeps(psi, n)
    phases = np.array([np.random.default_rng(s).uniform(0, 2 * np.pi, n) for s in range(4)])
    lam2, sweeps = xxz._sweep(psi, xxz._equator(phases), range(n), xxz._phase_aligned, 300)
    assert lam2.tolist() == [v for v, _ in want]
    assert sweeps.tolist() == [k for _, k in want]
    assert equatorial_overlap(psi, n) == max(0.0, *(v for v, _ in want))


def test_sweeps_on_a_vanishing_environment_match_the_oracles():
    # every environment of the zero vector vanishes: each restart leaves its
    # first sweep at the first site, and each seed skips every site
    psi = np.zeros(8, complex)
    lam2, factors, sweeps = product_overlap_sweep(psi, 3, np.random.default_rng(5), 3)
    ref_rng = np.random.default_rng(5)
    for r in range(3):
        want_lam2, want_factors, want_sweeps = restart_sweep(psi, 3, ref_rng)
        assert (lam2[r], sweeps[r]) == (want_lam2, want_sweeps) == (0.0, 1)
        assert np.array_equal(factors[r], want_factors)
    assert equatorial_overlap(psi, 3) == max(v for v, _ in seed_equatorial_sweeps(psi, 3)) == 0.0


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


def test_branch_crossing_needs_sign_change(monkeypatch):
    monkeypatch.setattr(xxz, "_CROSSING_BRACKET", (2.0, 3.0))
    with pytest.raises(ValueError, match=r"dominance change in \[2.0, 3.0\]"):
        branch_crossing(4)


def test_scan_leaves_the_callers_gammas_alone(rng):
    gammas = np.linspace(-1, 1, 3)
    scan = xxz_scan(2, gammas, rng, 1)
    assert gammas.flags.writeable
    assert np.array_equal(gammas, np.linspace(-1, 1, 3))
    assert np.array_equal(scan.gammas, gammas) and not scan.gammas.flags.writeable


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_branch_crossing_needs_even_ring_of_four(monkeypatch, n):
    # refused before any ground state is computed
    import nmrqip.experiments.xxz as xxz

    def fail(*args):
        raise AssertionError("ground state computed")

    monkeypatch.setattr(xxz, "xxz_ground_state", fail)
    with pytest.raises(ValueError, match="even n >= 4"):
        branch_crossing(n)
