"""Weak values: meter simulation against the exact pre/post-selected ratio."""

import numpy as np
import pytest

from nmrqip.experiments.weakvalue import (
    amplified_pair,
    weak_value,
    weak_value_exact,
)
from nmrqip.qop import haar_random_state


def test_exact_known_cases():
    plus = np.array([1, 1]) / np.sqrt(2)
    ket0 = np.array([1, 0])
    assert weak_value_exact(plus, "z", ket0) == pytest.approx(1.0)
    assert weak_value_exact(ket0, "x", plus) == pytest.approx(1.0)
    # orthogonal-ish pair drives the value outside the spectrum
    psi, phi = amplified_pair(4.0)
    assert weak_value_exact(psi, "z", phi) == pytest.approx(4.0, abs=1e-12)


def test_weak_value_exact_can_be_complex():
    psi = np.array([1, 1]) / np.sqrt(2)
    phi = np.array([1, 1j]) / np.sqrt(2)
    w = weak_value_exact(psi, "z", phi)
    assert abs(w.imag) > 0.5


def test_meter_estimate_first_order_in_g(rng):
    for k in range(6):
        psi = haar_random_state(2, rng)
        phi = haar_random_state(2, rng)
        if abs(np.vdot(phi, psi)) < 0.3:
            phi = psi  # keep the post-selection well conditioned
        axis = "xyz"[k % 3]
        exact = weak_value_exact(psi, axis, phi)
        errs = [abs(weak_value(psi, axis, phi, g) - exact)
                for g in (0.2, 0.05, 0.01)]
        assert errs[2] < 0.05
        assert errs[2] < errs[0] + 1e-12
        for g, e in zip((0.2, 0.05, 0.01), errs):
            assert e <= 5 * g


def test_meter_tracks_complex_values():
    psi = np.array([1, 1]) / np.sqrt(2)
    phi = np.array([1, 1j * 0.8]) / np.linalg.norm([1, 0.8])
    exact = weak_value_exact(psi, "z", phi)
    got = weak_value(psi, "z", phi, 0.02)
    assert abs(got - exact) < 0.1
    assert abs(got.imag - exact.imag) < 0.1


def test_amplified_pair_construction():
    psi, phi = amplified_pair(2.3)
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    assert np.linalg.norm(phi) == pytest.approx(1.0)
    assert weak_value_exact(psi, "z", phi) == pytest.approx(2.3, abs=1e-12)
    got = weak_value(psi, "z", phi, 0.02)
    assert abs(got.real - 2.3) < 0.05
    for bad in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            amplified_pair(bad)


def test_argument_guards():
    psi = np.array([1, 0])
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    with pytest.raises(ValueError, match="positive"):
        weak_value(psi, "z", plus, 0.0)
    with pytest.raises(ValueError, match="overlap"):
        weak_value(plus, "z", minus, 0.1)
    with pytest.raises(ValueError):
        weak_value_exact(psi, "q", plus)
    with pytest.raises(ValueError):
        weak_value_exact(np.array([1, 0, 0, 0]), "z", plus)
