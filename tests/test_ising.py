"""Frustrated Ising triangle checked against brute-force enumeration."""

import numpy as np
import pytest

from nmrqip.qop import PAULIS, tensor

from nmrqip.experiments import ising
from nmrqip.experiments.ising import (
    ising_ground,
    ising_hamiltonian,
    magnetization_operator,
    magnetization_steps,
)

from conftest import eigh_ground_point


def brute_force_ground(j, h):
    """Enumerate the 8 spin assignments directly."""
    best = None
    states = []
    for bits in range(8):
        s = [1 - 2 * ((bits >> k) & 1) for k in range(3)]
        e = j * (s[0] * s[1] + s[1] * s[2] + s[0] * s[2]) + h * sum(s)
        if best is None or e < best - 1e-12:
            best, states = e, [s]
        elif abs(e - best) <= 1e-12:
            states.append(s)
    mag = float(np.mean([sum(s) for s in states]))
    return best, mag, len(states)


def test_hamiltonian_is_diagonal_and_matches_enumeration(rng):
    for _ in range(5):
        j = rng.uniform(0.5, 2.0)
        h = rng.uniform(-4, 4)
        ham = ising_hamiltonian(j, h)
        assert np.allclose(ham, np.diag(np.diagonal(ham)))
        diag = np.diagonal(ham).real
        for bits in range(8):
            s = [1 - 2 * ((bits >> (2 - k)) & 1) for k in range(3)]
            e = j * (s[0] * s[1] + s[1] * s[2] + s[0] * s[2]) + h * sum(s)
            assert diag[bits] == pytest.approx(e, abs=1e-12)


def test_operators_equal_kron_sums():
    # j (Z1 Z2 + Z2 Z3 + Z1 Z3) + h (Z1 + Z2 + Z3), added in that order
    z, one = PAULIS["Z"], PAULIS["I"]
    couplings = [tensor(z, z, one), tensor(one, z, z), tensor(z, one, z)]
    fields = [tensor(z, one, one), tensor(one, z, one), tensor(one, one, z)]
    for j in (0.25, 1.0, 2.7):
        for h in np.linspace(-6.0, 6.0, 37):
            ref = np.zeros((8, 8), dtype=complex)
            for op in couplings:
                ref += j * op
            for op in fields:
                ref += h * op
            assert np.array_equal(ising_hamiltonian(j, h), ref)
    assert np.array_equal(magnetization_operator(), sum(fields))


def test_ground_matches_brute_force(rng):
    for h in (-2.7, -1.0, -0.3, 0.7, 1.4, 2.9, 0.0):
        res = ising_ground(1.0, [h])
        e_bf, mag_bf, deg_bf = brute_force_ground(1.0, h)
        assert res.magnetization[0] == pytest.approx(mag_bf, abs=1e-9)
        assert res.degeneracy[0] == deg_bf
        assert res.entropy_bits[0] == pytest.approx(np.log2(deg_bf), abs=1e-9)


@pytest.mark.parametrize("j, lo, hi, n_points", [
    (1.0, -3.0, 3.0, 121), (1.7, -5.1, 5.1, 301), (0.3, -0.9, 0.9, 121),
    (1e-12, -3.0, 3.0, 101), (1e3, -1e6, 1e6, 301)])
def test_ground_matches_eigh_oracle_bit_for_bit(j, lo, hi, n_points):
    # every grid holds the crossing at h = 0, and the first three those at
    # +-2j, where the ground set is widest
    h = np.linspace(lo, hi, n_points)
    res = ising_ground(j, h)
    want = np.array([eigh_ground_point(j, x, 1e-9) for x in h])
    assert np.array_equal(res.magnetization, want[:, 0])
    assert np.array_equal(res.entropy_bits, want[:, 1])
    assert np.array_equal(res.degeneracy, want[:, 2].astype(int))


def test_ground_chunks_give_the_one_chunk_result(monkeypatch):
    h = np.linspace(-3.0, 3.0, 121)
    whole = ising_ground(1.0, h)
    monkeypatch.setattr(ising, "_CHUNK_BYTES", 7 * 64)  # 7 points of 8 levels
    chunked = ising_ground(1.0, h)
    for name in ("magnetization", "entropy_bits", "degeneracy"):
        assert np.array_equal(getattr(chunked, name), getattr(whole, name))


def test_plateau_values():
    j = 1.0
    plateaus = {-2.5: 3.0, -1.0: 1.0, 1.0: -1.0, 2.5: -3.0}
    for h, m in plateaus.items():
        res = ising_ground(j, [h])
        assert res.magnetization[0] == pytest.approx(m, abs=1e-9)
    # strong field: unique polarized ground state, zero entropy
    res = ising_ground(j, [2.5, -2.5])
    assert np.all(res.degeneracy == 1)
    assert np.allclose(res.entropy_bits, 0.0, atol=1e-12)


def test_frustration_entropy_at_zero_field():
    res = ising_ground(1.0, [0.0])
    assert res.degeneracy[0] == 6
    assert res.entropy_bits[0] == pytest.approx(np.log2(6), abs=1e-9)
    assert res.magnetization[0] == pytest.approx(0.0, abs=1e-9)


def test_magnetization_steps_located():
    steps = magnetization_steps(1.0)
    assert len(steps) == 3
    assert np.allclose(steps, [-2.0, 0.0, 2.0], atol=1e-6)
    # steps scale linearly with the coupling
    steps2 = magnetization_steps(1.7)
    assert np.allclose(steps2, [-3.4, 0.0, 3.4], atol=1e-5)


def test_result_arrays_are_readonly():
    res = ising_ground(1.0, np.linspace(-1, 1, 5))
    with pytest.raises(ValueError):
        res.magnetization[0] = 99.0


def test_ferromagnetic_coupling_rejected():
    with pytest.raises(ValueError):
        ising_ground(-1.0, [0.0])
    with pytest.raises(ValueError):
        ising_ground(0.0, [0.0])
