"""Pulse-level control: rotations, coupling gates, GRAPE, RF selection."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import ndtr

from nmrqip.clifford import gate_tableau, unitaries
from nmrqip.control import (
    cnot_sequence,
    control_channels,
    default_b1_distribution,
    grape_gradient,
    grape_optimize,
    _fd_gradient,
    _gradient,
    _phase_divided_differences,
    _propagators,
    _step_chunks,
    j_evolution,
    random_pulse,
    rf_selection_retention,
)
from nmrqip.qop import PAULIS, collective_rotation, embed, haar_random_unitary, rotation
from nmrqip.spins import SpinSystem, builtin_molecule, internal_hamiltonian

from conftest import (gate_fidelity_hs, grape_fidelity, spin_op, whole_pulse_gradient,
                      whole_pulse_propagators)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
U_MAX = 2 * np.pi * 20e3  # rad/s, the cap of the pulses drawn below unless stated
# the run settings of a plain search to F >= 0.99 at one RF scale
EXACT = {"target_fidelity": 0.99, "gradient_mode": "exact", "rf_distribution": ((1.0, 1.0),)}


def uncoupled_1spin():
    return SpinSystem(1, (0.0,), ((0.0,),), (5.0,), (0.5,))


def test_rotation_matches_expm():
    for axis, sig in (("x", PAULIS["X"]), ("y", PAULIS["Y"]), ("z", PAULIS["Z"])):
        for theta in (0.3, np.pi / 2, -1.7):
            assert np.allclose(rotation(axis, theta),
                               expm(-1j * theta * sig / 2), atol=1e-12)


@pytest.mark.parametrize("n", range(1, 8))
def test_collective_rotation_matches_expm(n):
    for axis, angle in (("y", np.pi / 2), ("x", -0.9)):
        total = sum(spin_op(axis, q, n) for q in range(1, n + 1))
        want = expm(-1j * angle * total)
        assert np.max(np.abs(collective_rotation(axis, angle, n) - want)) <= 1e-12


def test_rotation_embeds():
    got = rotation("x", np.pi, 2, 2)
    assert np.allclose(got, np.kron(np.eye(2), rotation("x", np.pi)))


def test_j_evolution_matches_expm():
    sys_ = builtin_molecule("chloroform2")
    zz = spin_op("z", 1, 2) @ spin_op("z", 2, 2)
    t = 1 / (2 * 215.0)
    assert np.allclose(j_evolution(sys_, (1, 2), t),
                       expm(-1j * 2 * np.pi * 215.0 * t * zz), atol=1e-12)
    three = builtin_molecule("malonate3")
    with pytest.raises(ValueError):
        j_evolution(SpinSystem(2, (0, 0), ((0, 0.0), (0.0, 0)), (1, 1),
                               (0.1, 0.1)), (1, 2), t)
    del three


@pytest.mark.parametrize("name", ["chloroform2", "malonate3", "crotonic4", "chain7"])
def test_j_evolution_equals_dense_diagonal_formula(name):
    sys_ = builtin_molecule(name)
    t = 0.37e-3
    for i in range(1, sys_.n + 1):
        for k in range(i + 1, sys_.n + 1):
            jik = sys_.j[i - 1, k - 1]
            if jik == 0.0:
                continue
            zz = spin_op("z", i, sys_.n) @ spin_op("z", k, sys_.n)
            old = np.diag(np.exp(-1j * 2 * np.pi * jik * t * np.diagonal(zz))).astype(complex)
            assert np.array_equal(j_evolution(sys_, (i, k), t), old)


def test_cnot_sequence_is_exact():
    sys_ = builtin_molecule("chloroform2")
    u = cnot_sequence(sys_, 1, 2)
    assert np.allclose(u, CNOT, atol=1e-12)
    # reversed roles give the target-on-spin-1 variant
    swapped = cnot_sequence(sys_, 2, 1)
    expect = np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )
    assert gate_fidelity_hs(swapped, expect) == pytest.approx(1.0)


def test_step_propagator_matches_expm(rng):
    # the step record's forward products are products of the steps' expm
    sys_ = builtin_molecule("chloroform2")
    h = internal_hamiltonian(sys_)
    _, ops = control_channels(sys_)
    u = rng.uniform(-1e3, 1e3, size=(3, len(ops)))
    dt = 3e-5
    fwd, _, _, _ = _propagators(u, np.asarray(h, complex), ops, dt)
    want = np.eye(sys_.dim)
    assert fwd.shape == (4, sys_.dim, sys_.dim) and np.array_equal(fwd[0], want)
    for m, u_k in enumerate(u):
        h_tot = h + sum(c * op for c, op in zip(u_k, ops))
        want = expm(-1j * h_tot * dt) @ want
        assert np.allclose(fwd[m + 1], want, atol=1e-10)


def test_control_channels_chloroform():
    sys_ = builtin_molecule("chloroform2")
    names, ops = control_channels(sys_)
    assert names == ("1H.x", "1H.y", "13C.x", "13C.y")
    assert np.allclose(ops[0], spin_op("x", 1, 2))
    assert np.allclose(ops[3], spin_op("y", 2, 2))
    # shared channel on a homonuclear pair drives both spins at once
    four = builtin_molecule("crotonic4")
    names4, ops4 = control_channels(four)
    assert names4 == ("13C.x", "13C.y")
    assert np.allclose(ops4[0], sum(spin_op("x", q, 4) for q in range(1, 5)))


@pytest.mark.parametrize("name", ("chloroform2", "malonate3", "crotonic4", "chain7"))
def test_control_channels_equal_embedded_sums(name):
    sys_ = builtin_molecule(name)
    _, ops = control_channels(sys_)
    want = [sum(embed(PAULIS[ax] / 2, [q], sys_.n) for q in spins)
            for _, spins in sys_.channels() for ax in "XY"]
    assert len(ops) == len(want)
    for got, ref in zip(ops, want):
        assert np.array_equal(got, ref)


def test_grape_fidelity_limits():
    sys_ = uncoupled_1spin()
    _, h_ctrl = control_channels(sys_)
    h = internal_hamiltonian(sys_)
    idle = np.zeros((5, 2))
    assert grape_fidelity(np.eye(2), h, h_ctrl, idle, 1e-5) == pytest.approx(1.0)
    assert grape_fidelity(PAULIS["X"], h, h_ctrl, idle, 1e-5) == pytest.approx(0.0)
    empty = np.zeros((0, 2))
    assert grape_fidelity(np.eye(2), h, h_ctrl, empty, 1e-5) == pytest.approx(1.0)
    assert grape_gradient(np.eye(2), h, h_ctrl, empty, 1e-5).shape == (0, 2)


def test_grape_gradient_matches_finite_difference(rng):
    sys_ = builtin_molecule("chloroform2")
    h = internal_hamiltonian(sys_)
    names, h_ctrl = control_channels(sys_)
    target = np.kron(rotation("x", np.pi / 2), np.eye(2))
    pulse = random_pulse(6, len(names), U_MAX, seed=17, scale=0.3)
    # the second pulse has amplitudes on the cap, which the differences step past
    at_cap = np.clip(5 * pulse, -U_MAX, U_MAX)
    assert np.max(np.abs(at_cap)) == U_MAX
    for u in (pulse, at_cap):
        g = grape_gradient(target, h, h_ctrl, u, 5e-5)
        g_fd = _fd_gradient(target, h, h_ctrl, u, 5e-5, U_MAX)
        assert np.linalg.norm(g - g_fd) / np.linalg.norm(g) < 1e-6


def _reference_gradient(u_target, h_int, h_ctrl, u, dt):
    """Gradient through the full (steps, channels, d, d) propagator derivative.

    The straightforward form of the eigenbasis derivative, kept as the oracle
    for the contracted form in ``grape_gradient``.
    """
    n_steps, n_ch = u.shape
    d = u_target.shape[0]
    # each step's Hamiltonian diagonalized on its own, not through _propagators
    steps = [np.linalg.eigh(h_int + sum(u[m, k] * h_ctrl[k] for k in range(n_ch)))
             for m in range(n_steps)]
    lam = np.array([lm for lm, _ in steps])
    v = np.array([vm for _, vm in steps])
    ph = np.exp(-1j * lam * dt)
    props = [vm @ np.diag(pm) @ vm.conj().T for vm, pm in zip(v, ph)]
    fwd = [np.eye(d)]
    for m in range(n_steps):
        fwd.append(props[m] @ fwd[m])
    bwd = [np.eye(d)]
    for m in range(n_steps - 1, -1, -1):
        bwd.insert(0, bwd[0] @ props[m])
    g = np.trace(u_target.conj().T @ fwd[n_steps])
    dl = lam[:, :, None] - lam[:, None, :]
    num = ph[:, :, None] - ph[:, None, :]
    degenerate = np.abs(dl) < 1e-12
    fdiv = np.where(degenerate, ph[:, :, None], num / np.where(degenerate, 1.0, -1j * dt * dl))
    e_t = np.einsum("mji,kjl,mln->mkin", v.conj(), h_ctrl, v, optimize=True)
    dprop = np.einsum(
        "mia,mkab,mlb->mkil", v, e_t * (-1j * dt) * fdiv[:, None, :, :], v.conj(),
        optimize=True,
    )
    dg = np.empty((n_steps, n_ch), complex)
    for m in range(n_steps):
        pre = u_target.conj().T @ bwd[m + 1]
        for k in range(n_ch):
            dg[m, k] = np.trace(pre @ dprop[m, k] @ fwd[m])
    return 2 * np.real(np.conj(g) * dg) / d**2


@pytest.mark.parametrize("molecule", ["chloroform2", "malonate3", "crotonic4"])
def test_grape_gradient_matches_reference(molecule, rng):
    sys_ = builtin_molecule(molecule)
    h = internal_hamiltonian(sys_)
    names, h_ctrl = control_channels(sys_)
    target = haar_random_unitary(sys_.dim, rng)
    pulse = random_pulse(15, len(names), U_MAX, seed=23, scale=0.3)
    g = grape_gradient(target, h, h_ctrl, pulse, 2e-5)
    ref = _reference_gradient(target, h, h_ctrl, pulse, 2e-5)
    assert np.linalg.norm(g - ref) / np.linalg.norm(ref) <= 1e-12


def test_grape_gradient_matches_reference_over_a_long_pulse():
    # the gradient reads the backward products off fwd[N] through unitarity;
    # over 400 steps that must not drift from the stored backward chain
    sys_ = builtin_molecule("malonate3")
    h = internal_hamiltonian(sys_)
    names, h_ctrl = control_channels(sys_)
    target = unitaries(gate_tableau("CNOT", (1, 2), 3))
    pulse = random_pulse(400, len(names), 2 * np.pi * 1e4, seed=1, scale=0.3)
    g = grape_gradient(target, h, h_ctrl, pulse, 2e-5)
    ref = _reference_gradient(target, h, h_ctrl, pulse, 2e-5)
    assert np.linalg.norm(g - ref) / np.linalg.norm(ref) <= 1e-12
    # at the module's chunk budget the steps go in several chunks, and the
    # record and gradient equal the whole-pulse oracle's bit for bit
    assert len(_step_chunks((400,), sys_.dim)) > 1
    record = _propagators(pulse, np.asarray(h, complex), h_ctrl, 2e-5)
    oracle = whole_pulse_propagators(pulse, np.asarray(h, complex), h_ctrl, 2e-5)
    assert all(np.array_equal(a, b) for a, b in zip(record, oracle))
    assert np.array_equal(g, whole_pulse_gradient(target, h_ctrl, 2e-5, oracle))


@pytest.mark.parametrize("molecule", ["chloroform2", "malonate3", "crotonic4", "chain7"])
@pytest.mark.parametrize("n_scales", [1, 3])
@pytest.mark.parametrize("n_steps, chunks", [
    (0, []), (3, [3]), (4, [4]), (8, [4, 4]), (11, [5, 6]),
], ids=["no-steps", "below-a-chunk", "one-chunk", "two-chunks", "not-a-multiple"])
def test_chunked_record_and_gradient_equal_whole_pulse(molecule, n_scales, n_steps, chunks,
                                                      monkeypatch, rng):
    # a budget of four steps; the steps split evenly, so 11 go as 5 + 6
    import nmrqip.control as control

    sys_ = builtin_molecule(molecule)
    h = np.asarray(internal_hamiltonian(sys_), complex)
    _, h_ctrl = control_channels(sys_)
    d = sys_.dim
    monkeypatch.setattr(control, "_STEP_CHUNK_BYTES", 4 * 16 * d * d * n_scales)
    scales = np.array([[1.0], [0.9], [1.1]])[:n_scales]
    u = rng.uniform(-4e4, 4e4, size=(n_steps, 1, len(h_ctrl))) * scales
    assert [c.stop - c.start for c in _step_chunks(u.shape[:-1], d)] == chunks
    record = _propagators(u, h, h_ctrl, 2e-5)
    oracle = whole_pulse_propagators(u, h, h_ctrl, 2e-5)
    assert record[0].shape == (n_steps + 1, n_scales, d, d)
    assert all(np.array_equal(a, b) for a, b in zip(record, oracle))
    target = haar_random_unitary(d, rng)
    g = _gradient(target, h_ctrl, 2e-5, record)
    assert g.shape == (n_steps, n_scales, len(h_ctrl))
    assert np.array_equal(g, whole_pulse_gradient(target, h_ctrl, 2e-5, oracle))


def test_ensemble_gradient_is_weighted_sum_of_references(rng):
    # one record with the RF scales on its second axis gives each scale's
    # gradient; their weighted sum is the ensemble objective's gradient
    sys_ = builtin_molecule("chloroform2")
    h = np.asarray(internal_hamiltonian(sys_), complex)
    names, h_ctrl = control_channels(sys_)
    target = haar_random_unitary(sys_.dim, rng)
    pulse = random_pulse(20, len(names), U_MAX, seed=31, scale=0.3)
    dist = ((0.9, 0.3), (1.0, 0.4), (1.1, 0.3))
    scales = np.array([[s] for s, _ in dist])
    record = _propagators(pulse[:, None, :] * scales, h, h_ctrl, 5e-5)
    g = _gradient(target, h_ctrl, 5e-5, record)
    assert g.shape == (20, 3, len(names))
    got = np.array([w * s for s, w in dist]) @ g
    want = sum(w * s * _reference_gradient(target, h, h_ctrl, s * pulse, 5e-5)
               for s, w in dist)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-12


def test_grape_gradient_degenerate_spectrum():
    # zero pulse on a spin without offset: both step eigenvalues are 0, where
    # the divided difference is the derivative -i dt exp(-i lam dt)
    sys_ = uncoupled_1spin()
    h = internal_hamiltonian(sys_)
    _, h_ctrl = control_channels(sys_)
    pulse = np.zeros((4, 2))
    fwd, lam, _, _ = _propagators(pulse, np.asarray(h, complex), h_ctrl, 1e-5)
    assert np.all(np.abs(lam[:, 0] - lam[:, 1]) < 1e-12)
    assert np.allclose(fwd, np.eye(2), atol=1e-12)  # H_int = 0, so every step is I
    target = rotation("x", np.pi / 2)
    g = grape_gradient(target, h, h_ctrl, pulse, 1e-5)
    ref = _reference_gradient(target, h, h_ctrl, pulse, 1e-5)
    assert np.linalg.norm(ref) > 0
    assert np.linalg.norm(g - ref) / np.linalg.norm(ref) <= 1e-12
    g_fd = _fd_gradient(target, h, h_ctrl, pulse, 1e-5, U_MAX)
    assert np.linalg.norm(g - g_fd) / np.linalg.norm(g) < 1e-6


@pytest.mark.parametrize("gap", [1e-11, 1e-9, 1e-7])
def test_phase_divided_differences_near_degeneracy(gap):
    # (ph_a - ph_b) / (lam_a - lam_b) is 17-20% off at a gap of 1e-11 rad/s and
    # 0.1-0.8% at 1e-9; the series -i dt exp(-i mean dt) (1 - (gap dt)^2 / 24)
    # is exact there
    dt = 2e-5
    for mean in (1e4, 6e4):
        lam = np.array([mean + gap / 2, mean - gap / 2])
        gap_f, mean_f = lam[0] - lam[1], (lam[0] + lam[1]) / 2
        series = -1j * dt * np.exp(-1j * mean_f * dt) * (1 - (gap_f * dt) ** 2 / 24)
        f = _phase_divided_differences(lam, dt)
        assert max(abs(f[0, 1] - series), abs(f[1, 0] - series)) <= 1e-14 * dt
        assert abs(f[0, 0] + 1j * dt * np.exp(-1j * lam[0] * dt)) <= 1e-14 * dt
    # a wide gap: the plain quotient is accurate there
    lam = np.array([3e4, -2e4])
    ph = np.exp(-1j * lam * dt)
    f = _phase_divided_differences(lam, dt)
    assert abs(f[0, 1] - (ph[0] - ph[1]) / (lam[0] - lam[1])) <= 1e-14 * dt


def test_grape_gradient_seven_spins_matches_finite_difference(rng):
    sys_ = builtin_molecule("chain7")
    h = internal_hamiltonian(sys_)
    names, h_ctrl = control_channels(sys_)
    target = haar_random_unitary(sys_.dim, rng)
    pulse = random_pulse(3, len(names), U_MAX, seed=29, scale=0.3)
    g = grape_gradient(target, h, h_ctrl, pulse, 2e-5)
    g_fd = _fd_gradient(target, h, h_ctrl, pulse, 2e-5, U_MAX)
    assert np.linalg.norm(g - g_fd) / np.linalg.norm(g) <= 1e-6


@pytest.mark.parametrize("dist", [((1.0, 1.0),), ((0.9, 0.3), (1.0, 0.4), (1.1, 0.3))],
                         ids=["one-scale", "three-scales"])
def test_grape_optimize_fidelity_is_public_fidelity_of_result(dist):
    # the optimizer's own evaluation of its returned pulse agrees bit for bit
    # with the public fidelity of each RF-scaled copy
    sys_ = builtin_molecule("chloroform2")
    h = internal_hamiltonian(sys_)
    names, h_ctrl = control_channels(sys_)
    target = np.kron(rotation("x", np.pi / 2), np.eye(2))
    init = random_pulse(10, len(names), U_MAX, seed=17, scale=0.1)
    res = grape_optimize(sys_, target, init, 5e-5, U_MAX, 5, 0.99, "exact", dist)
    assert res.iterations > 0
    want = sum(w * grape_fidelity(target, h, h_ctrl, s * res.amplitudes, 5e-5)
               for s, w in dist)
    assert res.fidelity == want


def test_grape_optimize_clips_to_the_pulse_cap():
    # a low cap: every candidate is clipped to it, so the run neither raises
    # nor leaves it
    sys_ = builtin_molecule("chloroform2")
    names, _ = control_channels(sys_)
    u_max = 2 * np.pi * 1e3
    init = random_pulse(50, len(names), u_max, seed=1, scale=0.5)
    res = grape_optimize(sys_, CNOT, init, 2e-5, u_max, 50, **EXACT)
    assert res.iterations > 0
    assert np.max(np.abs(res.amplitudes)) == u_max


def test_grape_finite_difference_mode_uses_rf_distribution():
    # The first accepted update is the auto step times the ensemble gradient
    # (normalized by its largest entry), so both gradient modes must
    # differentiate the same ensemble objective.
    sys_ = builtin_molecule("chloroform2")
    names, _ = control_channels(sys_)
    target = np.kron(rotation("x", np.pi / 2), np.eye(2))
    init = random_pulse(6, len(names), U_MAX, seed=17, scale=0.01)
    dist = ((0.9, 0.3), (1.0, 0.4), (1.1, 0.3))
    updates = {}
    for mode in ("exact", "finite-difference"):
        res = grape_optimize(sys_, target, init, 5e-5, U_MAX, 1, 0.99, mode, dist)
        assert res.iterations == 1
        updates[mode] = res.amplitudes - init
    exact, fd = updates["exact"], updates["finite-difference"]
    assert np.linalg.norm(fd - exact) / np.linalg.norm(exact) <= 1e-6


def test_grape_stall_rule_is_in_units_of_the_cap():
    # a random start near zero overlap has |dF/du| ~ 1e-14 s/rad on chain7,
    # but |dF/dx| = |dF/du| u_max ~ 1e-9: not a stall
    sys_ = builtin_molecule("chain7")
    names, _ = control_channels(sys_)
    u_max = 2 * np.pi * 1e4
    init = random_pulse(50, len(names), u_max, seed=0)
    res = grape_optimize(sys_, unitaries(gate_tableau("CNOT", (1, 2), 7)), init, 2e-5, u_max,
                         1, **EXACT)
    assert res.iterations >= 1, res.message


def test_grape_malonate3_cnot_reaches_target_within_70_iterations():
    sys_ = builtin_molecule("malonate3")
    names, _ = control_channels(sys_)
    u_max = 2 * np.pi * 1e4
    init = random_pulse(400, len(names), u_max, seed=1, scale=0.001)
    res = grape_optimize(sys_, unitaries(gate_tableau("CNOT", (1, 2), 3)), init, 2e-5, u_max,
                         300, **EXACT)
    assert res.converged and res.fidelity >= 0.99
    assert res.iterations <= 70 and res.evaluations >= res.iterations + 1
    assert np.all(np.diff(res.fidelities) >= 0)
    assert np.max(np.abs(res.amplitudes)) <= u_max


def test_grape_optimize_one_spin_pi_pulse():
    sys_ = uncoupled_1spin()
    names, _ = control_channels(sys_)
    init = random_pulse(20, len(names), U_MAX, seed=5)
    res = grape_optimize(sys_, rotation("x", np.pi), init, 1e-5, U_MAX, 300, 0.999, "exact",
                         ((1.0, 1.0),))
    assert res.converged and res.fidelity >= 0.999
    assert np.all(np.diff(res.fidelities) >= -1e-12)
    assert np.max(np.abs(res.amplitudes)) <= U_MAX * (1 + 1e-12)


def test_grape_optimize_rf_weighted():
    sys_ = uncoupled_1spin()
    names, _ = control_channels(sys_)
    init = random_pulse(20, len(names), U_MAX, seed=5)
    res = grape_optimize(sys_, rotation("x", np.pi), init, 1e-5, U_MAX, 400, 0.99, "exact",
                         ((0.95, 0.5), (1.05, 0.5)))
    assert res.converged


def test_grape_optimize_rejects_target_of_wrong_shape():
    sys_ = builtin_molecule("chloroform2")
    names, _ = control_channels(sys_)
    init = random_pulse(4, len(names), U_MAX)
    with pytest.raises(ValueError, match=r"\(8, 8\).*\(4, 4\)"):
        grape_optimize(sys_, np.eye(8), init, 1e-5, U_MAX, 2000, **EXACT)


def test_grape_optimize_makes_one_eigh_per_chunk_per_evaluation(monkeypatch):
    # every RF scale of a chunk of steps goes through the same single eigh;
    # the gradient reuses the accepted candidate's record
    import nmrqip.control as control
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(control.np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(control, "_STEP_CHUNK_BYTES", 8 * 16 * 4 * 4 * 3)  # 8 steps x 3 scales
    sys_ = builtin_molecule("chloroform2")
    names, _ = control_channels(sys_)
    init = random_pulse(30, len(names), U_MAX, seed=17, scale=0.1)
    dist = ((0.9, 0.3), (1.0, 0.4), (1.1, 0.3))
    res = grape_optimize(sys_, CNOT, init, 5e-5, U_MAX, 8, 0.99, "exact", dist)
    assert res.iterations > 0
    assert len(calls) == 3 * res.evaluations  # 30 steps as 3 chunks of 10
    assert set(calls) == {(10, 3, 4, 4)}


def test_grape_optimize_holds_one_step_record():
    # malonate3 at 400 steps: the record (fwd and v, 0.8 MB) and one chunk's
    # temporaries; whole-pulse temporaries and a second record took 2.9 MB
    sys_ = builtin_molecule("malonate3")
    names, _ = control_channels(sys_)
    u_max = 2 * np.pi * 1e4
    init = random_pulse(400, len(names), u_max, seed=1, scale=0.001)
    target = unitaries(gate_tableau("CNOT", (1, 2), 3))
    tracemalloc.start()
    try:
        res = grape_optimize(sys_, target, init, 2e-5, u_max, 4, **EXACT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.iterations == 4 and res.evaluations > 4
    assert peak < 2e6, peak


def test_grape_channel_mismatch_raises():
    sys_ = builtin_molecule("chloroform2")
    init = random_pulse(4, 2, U_MAX)  # chloroform2 has four channels
    with pytest.raises(ValueError, match="channels"):
        grape_optimize(sys_, np.eye(4), init, 1e-5, U_MAX, 2000, **EXACT)


def test_rf_selection_retention_fixture():
    assert rf_selection_retention(0.02) == pytest.approx(0.12, abs=0.01)
    assert rf_selection_retention(0.0) == pytest.approx(0.0)
    windows = np.linspace(0.0, 0.5, 11)
    vals = [rf_selection_retention(w) for w in windows]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    edges, weights = default_b1_distribution()
    assert weights.sum() == pytest.approx(1.0)
    cdf = ndtr((edges - 1.0) / 0.13245)
    want = np.diff(cdf) / np.diff(cdf).sum()
    assert np.max(np.abs(weights - want)) <= 1e-15
    assert rf_selection_retention(1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rf_selection_retention(-0.1)
