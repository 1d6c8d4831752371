"""Spin-system model: Hamiltonians, reference states, FID and spectrum."""

import dataclasses
import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from nmrqip import spins
from nmrqip.qop import PAULIS, embed, tensor
from nmrqip.spins import (
    SpinSystem,
    builtin_molecule,
    hamiltonian_diagonal,
    internal_hamiltonian,
    load_molecule,
    make_pps,
    raising_op,
    simulate_fid,
    spectrum,
    thermal_state,
)

from conftest import spin_op, zeeman_hamiltonian

I2 = np.eye(2)
MOLECULES = ("chloroform2", "malonate3", "crotonic4", "chain7")


def _dense_weak_hamiltonian(sys_, couplings=True):
    """The weak form as a sum of dense spin-operator products (the oracle)."""
    n = sys_.n
    h = np.zeros((sys_.dim, sys_.dim), dtype=complex)
    for i, nu in enumerate(sys_.offsets, start=1):
        if nu != 0.0:
            h -= 2 * np.pi * nu * spin_op("z", i, n)
    if couplings:
        for i in range(1, n + 1):
            for k in range(i + 1, n + 1):
                jik = sys_.j[i - 1, k - 1]
                if jik != 0.0:
                    h += 2 * np.pi * jik * (spin_op("z", i, n) @ spin_op("z", k, n))
    return h


def _eigen_readout(rho, sys_, weak_coupling):
    """Eigenvalues w, rho and each spin's I+_i in the Hamiltonian's eigenbasis."""
    h = internal_hamiltonian(sys_, weak_coupling=weak_coupling)
    w, v = np.linalg.eigh(h)
    rho_e = v.conj().T @ rho @ v
    obs = [
        v.conj().T @ (spin_op("x", i, sys_.n) + 1j * spin_op("y", i, sys_.n)) @ v
        for i in range(1, sys_.n + 1)
    ]
    return w, rho_e, obs


def _reference_fid(rho, sys_, duration, n_samples, weak_coupling=True):
    """Per-sample dense trace Tr(rho(t) I+_i) in the eigenbasis (the oracle)."""
    w, rho_e, obs = _eigen_readout(rho, sys_, weak_coupling)
    ts = np.arange(n_samples) * (duration / n_samples)
    sig = np.zeros(n_samples, dtype=complex)
    for k, t in enumerate(ts):
        ph = np.exp(-1j * w * t)
        rho_t = ph[:, None] * rho_e * ph.conj()[None, :]
        for i, ob in enumerate(obs):
            sig[k] += np.trace(rho_t @ ob) * np.exp(-t / sys_.t2star[i])
    return sig


def _random_hermitian(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a + a.conj().T


def test_spin_op_embedding():
    assert np.allclose(spin_op("z", 1, 2), np.kron(PAULIS["Z"] / 2, I2))
    assert np.allclose(spin_op("x", 2, 2), np.kron(I2, PAULIS["X"] / 2))


def _embedded(axis, spin, n):
    """I_axis on one spin, embedded from the 2x2 matrix (the oracle)."""
    return embed(PAULIS[axis.upper()] / 2, [spin], n)


def test_spin_and_raising_ops_equal_embedded_matrices():
    for n in range(1, 8):
        for spin in range(1, n + 1):
            for ax in "xyz":
                assert np.array_equal(spin_op(ax, spin, n), _embedded(ax, spin, n))
            want = _embedded("x", spin, n) + 1j * _embedded("y", spin, n)
            assert np.array_equal(raising_op(spin, n), want)


@pytest.mark.parametrize("name", MOLECULES)
def test_full_hamiltonian_equals_embedded_sum(name):
    # Zeeman terms first, then pair by pair XX and YY for a pair of one species
    # and ZZ for every pair (secular coupling): the same sum order
    sys_ = builtin_molecule(name)
    n = sys_.n
    h = np.zeros((sys_.dim, sys_.dim), dtype=complex)
    for i, nu in enumerate(sys_.offsets, start=1):
        if nu != 0.0:
            h -= 2 * np.pi * nu * _embedded("z", i, n)
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            jik = sys_.j[i - 1, k - 1]
            if jik != 0.0:
                axes = "xyz" if sys_.species[i - 1] == sys_.species[k - 1] else "z"
                for ax in axes:
                    h += 2 * np.pi * jik * (_embedded(ax, i, n) @ _embedded(ax, k, n))
    assert np.array_equal(internal_hamiltonian(sys_, weak_coupling=False), h)


def test_internal_hamiltonian_weak_form_by_hand():
    sys_ = builtin_molecule("chloroform2")
    iz1, iz2 = spin_op("z", 1, 2), spin_op("z", 2, 2)
    expect = (-2 * np.pi * 400.0 * iz1
              + 2 * np.pi * 150.0 * iz2
              + 2 * np.pi * 215.0 * (iz1 @ iz2))
    h = internal_hamiltonian(sys_, weak_coupling=True)
    assert np.allclose(h, expect, atol=1e-9)
    assert np.allclose(h, np.diag(np.diagonal(h)))  # weak form is diagonal


def test_internal_hamiltonian_full_form():
    # chloroform2's one pair is 1H-13C: the secular full form keeps its ZZ alone
    sys_ = builtin_molecule("chloroform2")
    h = internal_hamiltonian(sys_, weak_coupling=False)
    assert np.array_equal(h, internal_hamiltonian(sys_, weak_coupling=True))
    # the same pair as one species keeps the isotropic coupling
    homo = dataclasses.replace(sys_, species=("1H", "1H"))
    expect = zeeman_hamiltonian(homo)
    for ax in "xyz":
        expect = expect + 2 * np.pi * 215.0 * (
            spin_op(ax, 1, 2) @ spin_op(ax, 2, 2))
    h = internal_hamiltonian(homo, weak_coupling=False)
    assert np.allclose(h, expect, atol=1e-9)
    assert not np.allclose(h, np.diag(np.diagonal(h)))


@pytest.mark.parametrize("name", MOLECULES)
def test_internal_hamiltonian_conserves_each_species_iz(name):
    # each species has its own rotating frame: in both forms no entry links
    # basis states of different total Iz of one species, so H commutes with it
    sys_ = builtin_molecule(name)
    for weak in (True, False):
        h = internal_hamiltonian(sys_, weak_coupling=weak)
        for _, members in sys_.channels():
            m = np.diagonal(sum(spin_op("z", i, sys_.n) for i in members)).real
            assert not np.any(h[m[:, None] != m[None, :]])


def test_full_coupling_spectrum_lines_equal_the_weak_form(tmp_path):
    # chloroform2's spectrum run with weak_coupling false has the weak form's
    # lines (test_fid_doublet_positions places those), and no other
    from nmrqip.cli import run_experiment

    power = {}
    for weak in (True, False):
        out = tmp_path / str(weak)
        doc = {"molecule": "chloroform2", "weak_coupling": weak}
        assert run_experiment("spectrum", out_dir=str(out), config_doc=doc) == 0
        power[weak] = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1, usecols=3)
    assert np.allclose(power[False], power[True], rtol=0, atol=1e-9 * power[True].max())


@pytest.mark.parametrize("name", MOLECULES)
def test_diagonal_hamiltonians_equal_dense_sums_bitwise(name):
    sys_ = builtin_molecule(name)
    for couplings in (True, False):
        dense = _dense_weak_hamiltonian(sys_, couplings)
        assert np.array_equal(np.diagonal(dense).real, hamiltonian_diagonal(sys_, couplings))
    assert np.array_equal(zeeman_hamiltonian(sys_), _dense_weak_hamiltonian(sys_, False))
    assert np.array_equal(internal_hamiltonian(sys_), _dense_weak_hamiltonian(sys_))
    # the old thermal_state formula, on the dense Zeeman sum
    w = np.diagonal(_dense_weak_hamiltonian(sys_, False)).real
    p = np.exp(-1e-3 * (w - w.min()))
    assert np.array_equal(thermal_state(sys_, 1e-3), np.diag(p / p.sum()).astype(complex))


def test_weak_coupling_warning_for_strong_homonuclear_pair():
    sys_ = SpinSystem(2, (10.0, -10.0), ((0.0, 50.0), (50.0, 0.0)),
                      (5.0, 5.0), (0.3, 0.3), ("1H", "1H"))
    with pytest.warns(UserWarning, match="weak-coupling"):
        internal_hamiltonian(sys_, weak_coupling=True)
    # heteronuclear pairs never warn: different channels
    het = builtin_molecule("chloroform2")
    internal_hamiltonian(het, weak_coupling=True)


def test_thermal_state_limits():
    sys_ = builtin_molecule("chloroform2")
    assert np.allclose(thermal_state(sys_, 0.0), np.eye(4) / 4)
    rho = thermal_state(sys_, 1e-4)
    assert np.trace(rho) == pytest.approx(1.0)
    p = np.diagonal(rho).real
    # Zeeman energies order the populations; |00> is lowest for these offsets
    w = np.diagonal(zeeman_hamiltonian(sys_)).real
    assert np.argmax(p) == np.argmin(w)
    with pytest.raises(ValueError):
        thermal_state(sys_, -1.0)


def test_make_pps():
    rho = make_pps(2, 0.4)
    assert np.trace(rho) == pytest.approx(1.0)
    assert rho[0, 0] == pytest.approx(0.4 + 0.6 / 4)
    assert rho[1, 1] == pytest.approx(0.6 / 4)
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            make_pps(2, bad)


def test_spectrum_pure_tone_and_parseval():
    rate, n = 1000.0, 500
    ts = np.arange(n) / rate
    fid = np.exp(2j * np.pi * 120.0 * ts)
    freqs, amps = spectrum(fid, rate)
    assert freqs[np.argmax(np.abs(amps))] == pytest.approx(120.0)
    assert np.sum(np.abs(amps) ** 2) == pytest.approx(np.sum(np.abs(fid) ** 2))


def test_fid_doublet_positions():
    sys_ = builtin_molecule("chloroform2")
    rho = make_pps(2, 1.0)
    u90 = expm(-1j * (np.pi / 2) * (spin_op("y", 1, 2) + spin_op("y", 2, 2)))
    rho = u90 @ rho @ u90.conj().T
    duration, n = 0.5, 2048
    fid = simulate_fid(rho, sys_, duration, n)
    freqs, amps = spectrum(fid, n / duration)
    mag = np.abs(amps)
    peaks = []
    for _ in range(4):
        k = int(np.argmax(mag))
        peaks.append(freqs[k])
        lo = max(0, k - 5)
        mag[lo:k + 6] = 0.0  # clear the line before hunting the next one
    # detection picks up the conjugate rotation: lines land at -(nu +- J/2)
    expected = sorted([-400.0 - 107.5, -400.0 + 107.5, 150.0 - 107.5,
                       150.0 + 107.5])
    assert np.allclose(sorted(peaks), expected, atol=1.0 / duration)


# _FID_DENSE_SHARE values that force each FID path: no share of nonzero
# amplitudes exceeds 1, and every nonzero share exceeds 0
FID_PATHS = {"lines": 1.0, "dense": 0.0}
NP_OUTER = np.outer


def _fid_blocks(monkeypatch, rho, sys_, weak, path, length):
    """Force one simulate_fid path, budget it `length` samples per block, and
    record the sample count of each block."""
    # 32 bytes x (d + elements) per sample: n d dense, one per nonzero line otherwise
    _, rho_e, obs = _eigen_readout(rho, sys_, weak)
    lines = sum(np.count_nonzero(rho_e * ob.T) for ob in obs)
    elements = sys_.n * sys_.dim if path == "dense" else lines
    monkeypatch.setattr(spins, "_FID_DENSE_SHARE", FID_PATHS[path])
    monkeypatch.setattr(spins, "_FID_BLOCK_BYTES", length * 32 * (sys_.dim + elements))
    blocks = []

    def spy(w, t):
        blocks.append(len(t))
        return NP_OUTER(w, t)

    monkeypatch.setattr(np, "outer", spy)
    return blocks


@pytest.mark.parametrize("name, weak, n_samples", [
    ("chloroform2", True, 256), ("chloroform2", False, 256),
    ("malonate3", True, 256), ("malonate3", False, 256),
    ("crotonic4", True, 256), ("crotonic4", False, 256),
    ("chain7", True, 96), ("chain7", False, 24),
])
def test_simulate_fid_matches_reference(monkeypatch, name, weak, n_samples):
    rng = np.random.default_rng(len(name) + 10 * weak)
    sys_ = builtin_molecule(name)
    # non-uniform T2*, below every T1
    sys_ = dataclasses.replace(sys_, t2star=tuple(rng.uniform(0.02, 0.2, sys_.n)))
    rho = _random_hermitian(sys_.dim, rng)
    got = simulate_fid(rho, sys_, 0.05, n_samples, weak_coupling=weak)
    want = _reference_fid(rho, sys_, 0.05, n_samples, weak_coupling=weak)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    for path in FID_PATHS:
        # five does not divide 256, 96 or 24: the last block is short
        blocks = _fid_blocks(monkeypatch, rho, sys_, weak, path, 5)
        got = simulate_fid(rho, sys_, 0.05, n_samples, weak_coupling=weak)
        assert blocks == [5] * (n_samples // 5) + [n_samples % 5]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("weak", [True, False])
def test_simulate_fid_block_boundaries(monkeypatch, weak):
    sys_ = builtin_molecule("crotonic4")
    rho = _random_hermitian(sys_.dim, np.random.default_rng(5))
    want = _reference_fid(rho, sys_, 0.05, 50, weak_coupling=weak)
    for path in FID_PATHS:
        blocks = _fid_blocks(monkeypatch, rho, sys_, weak, path, 3)
        got = simulate_fid(rho, sys_, 0.05, 50, weak_coupling=weak)
        assert blocks == [3] * 16 + [2]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name, state", [
    ("chloroform2", "pps"), ("crotonic4", "thermal"), ("chain7", "pps"),
])
def test_simulate_fid_without_lines_is_zero(name, state):
    # both states are diagonal, and weak-coupling readout holds off-diagonal
    # elements only: no line survives, and the FID is exactly zero
    sys_ = builtin_molecule(name)
    rho = make_pps(sys_.n, 1.0) if state == "pps" else thermal_state(sys_, 1e-5)
    fid = simulate_fid(rho, sys_, 0.05, 64)
    assert fid.shape == (64,) and fid.dtype == complex and not np.any(fid)


def test_weak_fid_needs_no_diagonalization(monkeypatch):
    sys_ = builtin_molecule("chain7")
    rho = _random_hermitian(sys_.dim, np.random.default_rng(7))
    want = simulate_fid(rho, sys_, 0.05, 64)

    def no_eigh(*args, **kwargs):
        raise AssertionError("weak-coupling FID diagonalized the Hamiltonian")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert np.array_equal(simulate_fid(rho, sys_, 0.05, 64), want)


def test_simulate_fid_memory_seven_spins_full_coupling():
    sys_ = builtin_molecule("chain7")
    rho = make_pps(7, 1.0)
    u90 = expm(-1j * (np.pi / 2) * sum(spin_op("y", q, 7) for q in range(1, 8)))
    rho = u90 @ rho @ u90.conj().T
    tracemalloc.start()
    try:
        fid = simulate_fid(rho, sys_, 0.5, 2048, weak_coupling=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert fid[0] == pytest.approx(3.5, abs=1e-12)


def test_chloroform_spectrum_script_prints_doublets(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "chloroform_spectrum.py"
    spec = importlib.util.spec_from_file_location("chloroform_spectrum", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    duration = 0.5
    script.main(duration=duration, n_samples=2048)
    lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    got = [float(ln.split()[0]) for ln in lines]
    sys_ = builtin_molecule("chloroform2")
    half_j = sys_.j[0, 1] / 2
    expected = sorted(-(nu + sign * half_j) for nu in sys_.offsets for sign in (1, -1))
    assert len(got) == 4
    assert np.allclose(got, expected, atol=1.0 / duration)


def test_fid_needs_transverse_magnetization():
    sys_ = builtin_molecule("chloroform2")
    fid = simulate_fid(make_pps(2, 1.0), sys_, 0.1, 64)
    assert np.max(np.abs(fid)) < 1e-12


def test_fid_argument_guards():
    sys_ = builtin_molecule("chloroform2")
    with pytest.raises(ValueError):
        simulate_fid(make_pps(2, 1.0), sys_, 0.1, 1)
    with pytest.raises(ValueError):
        simulate_fid(make_pps(2, 1.0), sys_, -0.1, 64)


def test_builtin_molecules_load():
    for name, n in (("chloroform2", 2), ("malonate3", 3),
                    ("crotonic4", 4), ("chain7", 7)):
        sys_ = builtin_molecule(name)
        assert sys_.n == n
        assert sys_.j.shape == (n, n)
    with pytest.raises(ValueError, match="available"):
        builtin_molecule("nosuch")


def test_channel_grouping():
    sys_ = builtin_molecule("malonate3")
    assert sys_.channels() == [("1H", [1]), ("13C", [2, 3])]


def test_load_molecule_rejects_bad_files(tmp_path):
    good = {"n": 2, "offsets_hz": [0, 10], "j_hz": [[1, 2, 5.0]],
            "t1_s": [1, 1], "t2star_s": [0.1, 0.1]}
    for patch, msg in (
        ({"bogus": 1}, "unknown molecule keys"),
        ({"j_hz": [[2, 1, 5.0]]}, "need 1 <= i < j"),
        ({"j_hz": [[1, 2, 5.0], [1, 2, 3.0]]}, "duplicate"),
    ):
        doc = dict(good, **patch)
        p = tmp_path / "mol.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=msg):
            load_molecule(p)


def test_spin_system_validation():
    with pytest.raises(ValueError, match="symmetric"):
        SpinSystem(2, (0, 0), ((0, 1.0), (2.0, 0)), (1, 1), (0.1, 0.1))
    with pytest.raises(ValueError, match="zero diagonal"):
        SpinSystem(2, (0, 0), ((1.0, 0), (0, 1.0)), (1, 1), (0.1, 0.1))
    with pytest.raises(ValueError, match="t1 >= t2star"):
        SpinSystem(1, (0,), ((0,),), (0.1,), (1.0,))


def test_tensor_helper_order():
    got = tensor(PAULIS["X"], PAULIS["Z"], I2)
    assert np.allclose(got, np.kron(PAULIS["X"], np.kron(PAULIS["Z"], I2)))
