"""Stabilizer codes, syndrome correction, and magic-state distillation."""

from itertools import combinations, product

import numpy as np
import pytest

from nmrqip.qop import (PauliString, controlled, embed, ket_density, partial_trace,
                        state_fidelity)
from nmrqip.qec import (
    DistillResult,
    StabilizerCode,
    bit_flip_code,
    correction_cycle,
    decode,
    distill_magic,
    distillation_threshold,
    encode,
    error_ensemble,
    five_qubit_code,
    gate_cycle_ensemble,
    logical_gate,
    logical_gate_cycle,
    m_polarization,
    magic_density,
    phase_flip_code,
    recover,
    syndrome_extract,
    transversal_cnot_demo,
)

from conftest import generator_rows, pauli_weight

PSI = np.array([0.6, 0.8], dtype=complex)


def word_lookup_table(code):
    """Oracle for lookup_table: errors joined from letters in the same order
    (weight, support, then X, Z, Y per qubit), first per syndrome kept."""
    n = code.n_physical
    table = {}
    for w in range(n + 1):
        for support in combinations(range(n), w):
            for letters in product("XZY", repeat=w):
                chars = ["I"] * n
                for q, c in zip(support, letters):
                    chars[q] = c
                err = PauliString("".join(chars))
                table.setdefault(code.syndrome_of(err), err)
    return table


def test_bit_built_errors_match_word_builds():
    for code in (bit_flip_code(), phase_flip_code(), five_qubit_code()):
        want = word_lookup_table(code)
        assert list(code.lookup_table().items()) == list(want.items())
    for n in range(1, 6):
        want = [PauliString("I" * n)] + [PauliString("I" * q + c + "I" * (n - q - 1))
                                         for q in range(n) for c in "XZY"]
        assert error_ensemble(n) == want


def test_code_definitions_are_consistent():
    for code in (bit_flip_code(), phase_flip_code(), five_qubit_code()):
        # __post_init__ enforces commutation; spot-check the logical algebra
        assert not code.logical_x.commutes(code.logical_z)
        for g in code.generators:
            assert code.logical_x.commutes(g)
        # encoding tableau maps Z_j (j >= 2) onto the generators
        tab, n = code.encoding_tableau(), code.n_physical
        z_images = tuple(PauliString.from_bits(n, *r) for r in generator_rows(tab)[n:])
        assert z_images[1:] == code.generators


def test_code_validation_raises():
    with pytest.raises(ValueError, match="commute"):
        StabilizerCode("bad", 2, (PauliString("XZ"), PauliString("ZX")),
                       logical_x=PauliString("XX"), logical_z=PauliString("ZZ"))


def test_encode_decode_roundtrip():
    for code in (bit_flip_code(), phase_flip_code(), five_qubit_code()):
        rho = decode(code, encode(code, PSI))
        assert state_fidelity(rho, ket_density(PSI)) == pytest.approx(1.0)


def test_encoded_state_is_stabilized():
    code = five_qubit_code()
    rho = encode(code, PSI)
    for g in code.generators:
        assert np.trace(g.dense() @ rho).real == pytest.approx(1.0, abs=1e-10)


def test_syndrome_lookup_is_minimum_weight():
    code = five_qubit_code()
    table = code.lookup_table()
    assert len(table) == 16
    assert pauli_weight(table[(0, 0, 0, 0)]) == 0
    # every single-qubit error has a distinct syndrome on this code
    seen = set()
    for err in error_ensemble(5)[1:]:
        s = code.syndrome_of(err)
        assert s != (0, 0, 0, 0)
        assert s not in seen
        seen.add(s)
        assert table[s] == err


def test_syndrome_extract_reports_injected_error():
    code = bit_flip_code()
    rho = encode(code, PSI)
    err = PauliString("IXI").dense()
    syndrome, post = syndrome_extract(code, err @ rho @ err.conj().T)
    assert syndrome == code.syndrome_of(PauliString("IXI")) == (1, 1)
    assert recover(code, syndrome) == PauliString("IXI")
    assert np.trace(post).real == pytest.approx(1.0)
    with pytest.raises(ValueError):
        recover(code, (0, 1, 1, 0, 0))


_ANCILLA_CIRCUITS = {}


def ancilla_syndrome_extract(code, rho):
    """Reference syndrome readout on the (n + g)-qubit register.

    One ancilla per generator: H, controlled generator, H, then a projective
    z-measurement of the ancillas.  Returns (syndrome, post-measurement data
    state, outcome probabilities), outcome s read with ancilla 1 as its most
    significant bit.
    """
    n, g = code.n_physical, len(code.generators)
    big = n + g
    data_qubits = list(range(1, n + 1))
    circuit = _ANCILLA_CIRCUITS.get(code.name)
    if circuit is None:
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        circuit = np.eye(2**big, dtype=complex)
        for k, gen in enumerate(code.generators):
            a = n + k + 1
            ha = embed(h, [a], big)
            cg = embed(controlled(gen.dense()), [a] + data_qubits, big)
            circuit = ha @ cg @ ha @ circuit
        _ANCILLA_CIRCUITS[code.name] = circuit
    # the ancillas start in |0..0>, the last g qubits: of the circuit applied
    # to rho x |0..0><0..0|, only the columns with those bits 0 contribute
    start = circuit[:, ::2**g]
    joint = start @ np.asarray(rho, dtype=complex) @ start.conj().T
    anc_bits = np.arange(2**big) % (2**g)
    diag = np.real(np.diagonal(joint))
    probs = np.array([diag[anc_bits == s].sum() for s in range(2**g)])
    outcome = int(np.argmax(probs))
    mask = (anc_bits == outcome).astype(float)
    post = joint * np.outer(mask, mask)
    post /= np.trace(post).real
    syndrome = tuple((outcome >> (g - 1 - k)) & 1 for k in range(g))
    return syndrome, partial_trace(post, data_qubits), probs


def _random_density(d, rng):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("make_code", [bit_flip_code, phase_flip_code, five_qubit_code])
def test_syndrome_projectors_match_ancilla_circuit(make_code):
    code = make_code()
    d, g = 2**code.n_physical, len(code.generators)
    projs = code.syndrome_projectors()
    assert projs.shape == (2**g, d, d)
    assert np.allclose(projs.sum(axis=0), np.eye(d), atol=1e-12)
    assert np.allclose(projs @ projs, projs, atol=1e-12)
    clean = encode(code, PSI)
    states = [e.dense() @ clean @ e.dense().conj().T for e in error_ensemble(code.n_physical)]
    state_rng = np.random.default_rng(7)
    states += [_random_density(d, state_rng) for _ in range(10)]
    for rho in states:
        syndrome, post = syndrome_extract(code, rho)
        want_syndrome, want_post, want_probs = ancilla_syndrome_extract(code, rho)
        assert syndrome == want_syndrome
        assert np.abs(np.einsum("sij,ji->s", projs, rho).real - want_probs).max() < 1e-12
        assert np.abs(post - want_post).max() < 1e-12


def test_correction_cycle_fixes_single_errors():
    for code, errors in ((bit_flip_code(), ["XII", "IXI", "IIX"]),
                         (five_qubit_code(), None)):
        words = errors or [e.word for e in error_ensemble(code.n_physical)[1:]]
        clean = encode(code, PSI)
        for word in words:
            e = PauliString(word).dense()
            fixed = correction_cycle(code, e @ clean @ e.conj().T)
            assert state_fidelity(decode(code, fixed),
                                  ket_density(PSI)) == pytest.approx(1.0, abs=1e-10)


def test_phase_flip_code_corrects_z_errors_under_h():
    # Y and Z share a syndrome on this code; correcting a Z error by Y would
    # leave X_i, which is the logical Z
    code = phase_flip_code()
    for word in ("ZII", "IZI", "IIZ"):
        assert recover(code, code.syndrome_of(PauliString(word))) == PauliString(word)
        for psi in (None, PSI):
            _, f_corr = logical_gate_cycle(code, "H", PauliString(word), psi)
            assert f_corr == pytest.approx(1.0, abs=1e-10)


def test_bit_flip_code_misses_phase_errors():
    code = bit_flip_code()
    clean = encode(code, PSI)
    z = PauliString("ZII").dense()
    fixed = correction_cycle(code, z @ clean @ z.conj().T)
    assert state_fidelity(decode(code, fixed), ket_density(PSI)) < 0.999


def test_five_qubit_code_fails_on_weight_two():
    code = five_qubit_code()
    clean = encode(code, PSI)
    e = PauliString("XXIII").dense()
    fixed = correction_cycle(code, e @ clean @ e.conj().T)
    assert state_fidelity(decode(code, fixed), ket_density(PSI)) < 0.999


def test_logical_gate_action():
    code = five_qubit_code()
    rho = encode(code, PSI)
    for gate, out in (("X", [0.8, 0.6]), ("Z", [0.6, -0.8])):
        lg = logical_gate(code, gate)
        got = decode(code, lg @ rho @ lg.conj().T)
        want = ket_density(np.array(out, dtype=complex))
        assert state_fidelity(got, want) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError, match="have I, X, Z, H"):
        logical_gate(code, "T")


def test_gate_cycle_ensemble_five_qubit():
    code = five_qubit_code()
    rows, mean_unc, mean_corr = gate_cycle_ensemble(code, "X")
    # one cycle per error, each on the input |0>
    assert rows == [(err, *logical_gate_cycle(code, "X", err)) for err in error_ensemble(5)]
    assert mean_corr == pytest.approx(1.0, abs=1e-10)
    assert mean_unc < mean_corr


def test_gate_cycle_bit_flip_corrects_x_only():
    # the repetition code fixes its X rows; Z and Y keep a phase error
    code = bit_flip_code()
    rows = [(err, *logical_gate_cycle(code, "X", err, PSI)) for err in error_ensemble(3)]
    mean_unc, mean_corr = np.mean([r[1:] for r in rows], axis=0)
    assert len(rows) == 10
    for err, _, f_corr in rows:
        if all(c in "IX" for c in err.word):
            assert f_corr == pytest.approx(1.0, abs=1e-10)
        else:
            assert f_corr < 0.999
    assert mean_unc < mean_corr < 1.0
    f_unc, f_corr = logical_gate_cycle(code, "H", PauliString("IIX"), PSI)
    assert f_corr == pytest.approx(1.0, abs=1e-10)
    assert f_unc < 1.0


def test_transversal_cnot_error_spread():
    x1 = PauliString("XII")
    assert transversal_cnot_demo("bad", x1) == 3
    assert transversal_cnot_demo("transversal", x1) == 1
    for err in error_ensemble(3)[1:]:
        # X parts copy onto the target block, Z parts stay on the control block
        assert transversal_cnot_demo("transversal", err) == sum(c in "XY" for c in err.word) <= 1
    with pytest.raises(ValueError):
        transversal_cnot_demo("sideways", x1)


def test_magic_density_and_polarization():
    rho = magic_density(0.7)
    assert np.trace(rho).real == pytest.approx(1.0)
    literal, proj = m_polarization(rho)
    assert proj == pytest.approx(0.7, abs=1e-12)
    assert literal == pytest.approx(1.7, abs=1e-12)
    with pytest.raises(ValueError):
        magic_density(1.2)


def test_distill_pure_input_is_fixed():
    res = distill_magic(1.0)
    assert isinstance(res, DistillResult)
    assert res.p_out == pytest.approx(1.0, abs=1e-10)
    assert 0 < res.success_probability <= 1.0
    assert np.allclose(res.rho_out, magic_density(1.0), atol=1e-8)


def test_distill_improves_above_threshold_degrades_below():
    for p in (0.8, 0.9, 0.95):
        assert distill_magic(p).p_out > p
    for p in (0.3, 0.5):
        assert distill_magic(p).p_out < p


def test_distill_multi_round_composes():
    two = distill_magic(0.9, rounds=2)
    once = distill_magic(distill_magic(0.9).p_out)
    assert two.p_out == pytest.approx(once.p_out, abs=1e-10)
    assert two.p_out > distill_magic(0.9).p_out


@pytest.mark.parametrize("p,rounds", [(-1.0, 2), (-0.999999, 3), (0.999, 3), (0.999, 10)])
def test_distill_rounds_stay_within_pure_polarization(p, rounds):
    # rounding once carried the polarization just past +-1, where the next
    # round's magic_density refused it
    assert -1.0 <= distill_magic(p, rounds=rounds).p_out <= 1.0


def test_distillation_threshold_value():
    thr = distillation_threshold()
    assert 0.55 <= thr <= 0.75
    assert thr == pytest.approx(0.6546536707079773, abs=1e-6)
    # fixed point: distilling at the threshold changes nothing
    assert distill_magic(thr).p_out == pytest.approx(thr, abs=1e-7)


def test_distill_rejects_bad_polarization():
    with pytest.raises(ValueError):
        distill_magic(1.5)
