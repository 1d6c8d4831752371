"""Mermin-square contextuality witness, direct and metered."""

import numpy as np
import pytest

from nmrqip.channels import Channel
from nmrqip.experiments.contextuality import (
    CONTEXTS,
    METER_DEPOLARIZING_52,
    classical_max_beta,
    contextuality_beta,
)
from nmrqip.qop import haar_random_state, ket_density

from conftest import depolarizing_for_beta, random_density, word_matrix


def test_table_structure():
    assert len(CONTEXTS) == 6
    # independent product check straight from dense matrices
    for words, sign in CONTEXTS:
        a, b, c = map(word_matrix, words)
        for p, q in ((a, b), (a, c), (b, c)):
            assert np.array_equal(p @ q, q @ p)
        prod = a @ b @ c
        assert np.allclose(prod, sign * np.eye(4))


def test_beta_is_state_independent(rng):
    states = [np.eye(4) / 4]
    states += [ket_density(haar_random_state(4, rng)) for _ in range(4)]
    states += [random_density(4, rng) for _ in range(4)]
    for rho in states:
        res = contextuality_beta(rho)
        assert abs(res.beta - 6.0) < 1e-12
        # every individual correlation is +-1, fixed by the operator algebra
        assert np.allclose(np.abs(res.rows + res.columns), 1.0, atol=1e-12)


def test_meter_matches_direct(rng):
    for rho in (np.eye(4) / 4, ket_density(haar_random_state(4, rng)),
                random_density(4, rng)):
        d = contextuality_beta(rho, method="direct")
        m = contextuality_beta(rho, method="meter")
        assert abs(d.beta - m.beta) < 1e-9
        assert np.allclose(d.rows + d.columns, m.rows + m.columns, atol=1e-9)


def test_beta_by_hand(rng):
    # independent recomputation of the combination r1+r2+r3+c1+c2-c3
    rho = random_density(4, rng)
    vals = []
    for words, _ in CONTEXTS:
        a, b, c = map(word_matrix, words)
        prod = a @ b @ c
        vals.append(np.trace(rho @ prod).real)
    want = sum(vals[:5]) - vals[5]
    assert contextuality_beta(rho).beta == pytest.approx(want, abs=1e-12)


def test_classical_bound():
    assert classical_max_beta() == 4.0


def test_direct_method_with_noise_raises():
    # the direct method has no coupling for noise to follow
    with pytest.raises(ValueError, match="direct method takes no noise"):
        contextuality_beta(np.eye(4) / 4, noise=Channel.depolarizing(1, 0.1))


def test_meter_noise_on_full_register():
    # the meter noise is a 1-spin channel; one on the whole register is refused
    with pytest.raises(ValueError, match="1 qubit labels for a 3-qubit channel"):
        contextuality_beta(np.eye(4) / 4, noise=Channel.depolarizing(3, 0.1),
                           method="meter")


def test_meter_noise_fixture():
    noise = Channel.depolarizing(1, METER_DEPOLARIZING_52)
    res = contextuality_beta(np.eye(4) / 4, noise=noise, method="meter")
    assert res.beta == pytest.approx(5.2, abs=1e-9)
    assert depolarizing_for_beta(5.2) == pytest.approx(METER_DEPOLARIZING_52,
                                                       abs=1e-15)
    # per-coupling shrink compounds three times per correlation
    assert res.beta == pytest.approx(6 * (1 - METER_DEPOLARIZING_52) ** 3,
                                     abs=1e-9)


def test_argument_guards(rng):
    with pytest.raises(ValueError, match="two spins"):
        contextuality_beta(np.eye(8) / 8)
    with pytest.raises(ValueError, match="method"):
        contextuality_beta(np.eye(4) / 4, method="telepathy")
    with pytest.raises(ValueError):
        depolarizing_for_beta(0.0)
    with pytest.raises(ValueError):
        depolarizing_for_beta(6.5)
