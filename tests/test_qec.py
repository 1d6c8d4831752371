"""Stabilizer codes, syndrome correction, and magic-state distillation."""

from itertools import combinations, product

import numpy as np
import pytest

from nmrqip.qop import (SIGMA_X, SIGMA_Z, commutes, controlled, embed, ket_density,
                        partial_trace, pauli_entry, pauli_matrices, pauli_word, state_fidelity)
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

from conftest import circuit_unitary, generator_rows, pauli_weight, word_matrix

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
                err = pauli_entry("".join(chars))
                table.setdefault(code.syndrome_of(err), err)
    return table


def test_bit_built_errors_match_word_builds():
    for code in (bit_flip_code(), phase_flip_code(), five_qubit_code()):
        want = word_lookup_table(code)
        assert list(code.lookup_table().items()) == list(want.items())
    for n in range(1, 6):
        want = [pauli_entry("I" * n)] + [pauli_entry("I" * q + c + "I" * (n - q - 1))
                                         for q in range(n) for c in "XZY"]
        assert error_ensemble(n) == want


def test_code_definitions_are_consistent():
    for code in (bit_flip_code(), phase_flip_code(), five_qubit_code()):
        # __post_init__ enforces commutation; spot-check the logical algebra
        n = code.n_physical
        assert not commutes(n, code.logical_x, code.logical_z)
        for g in code.generators:
            assert commutes(n, code.logical_x, g)
        # encoding tableau maps Z_j (j >= 2) onto the generators
        tab = code.encoding_tableau()
        z_images = tuple(x << (n + 2) | z << 2 | k for x, z, k in generator_rows(tab)[n:])
        assert z_images[1:] == code.generators


def test_code_validation_raises():
    with pytest.raises(ValueError, match="commute"):
        StabilizerCode("bad", 2, (pauli_entry("XZ"), pauli_entry("ZX")),
                       logical_x=pauli_entry("XX"), logical_z=pauli_entry("ZZ"))


def test_encode_decode_roundtrip():
    for code in (bit_flip_code(), phase_flip_code(), five_qubit_code()):
        rho = decode(code, encode(code, PSI))
        assert state_fidelity(rho, ket_density(PSI)) == pytest.approx(1.0)


@pytest.mark.parametrize("make_code", [bit_flip_code, phase_flip_code, five_qubit_code])
def test_cached_code_arrays_are_read_only(make_code):
    # the cache is per code value, so a second build of the code shares them
    code = make_code()
    for method in (StabilizerCode.encoding_unitary, StabilizerCode.syndrome_projectors):
        arr = method(code)
        assert not arr.flags.writeable and method(make_code()) is arr


def test_encoded_state_is_stabilized():
    code = five_qubit_code()
    rho = encode(code, PSI)
    for g in pauli_matrices(5, code.generators):
        assert np.trace(g @ rho).real == pytest.approx(1.0, abs=1e-10)


def test_syndrome_lookup_is_minimum_weight():
    code = five_qubit_code()
    table = code.lookup_table()
    assert len(table) == 16
    assert pauli_weight(5, table[(0, 0, 0, 0)]) == 0
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
    err = word_matrix("IXI")
    syndrome, post = syndrome_extract(code, err @ rho @ err.conj().T)
    assert syndrome == code.syndrome_of(pauli_entry("IXI")) == (1, 1)
    assert recover(code, syndrome) == pauli_entry("IXI")
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
        for k, gen in enumerate(pauli_matrices(n, code.generators)):
            a = n + k + 1
            ha = embed(h, [a], big)
            cg = embed(controlled(gen), [a] + data_qubits, big)
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
    n = code.n_physical
    states = [e @ clean @ e.conj().T for e in pauli_matrices(n, error_ensemble(n))]
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
        n = code.n_physical
        words = errors or [pauli_word(n, e) for e in error_ensemble(n)[1:]]
        clean = encode(code, PSI)
        for word in words:
            e = word_matrix(word)
            fixed = correction_cycle(code, e @ clean @ e.conj().T)
            assert state_fidelity(decode(code, fixed),
                                  ket_density(PSI)) == pytest.approx(1.0, abs=1e-10)


def test_phase_flip_code_corrects_z_errors_under_h():
    # Y and Z share a syndrome on this code; correcting a Z error by Y would
    # leave X_i, which is the logical Z
    code = phase_flip_code()
    for word in ("ZII", "IZI", "IIZ"):
        assert recover(code, code.syndrome_of(pauli_entry(word))) == pauli_entry(word)
        for psi in (None, PSI):
            _, f_corr = logical_gate_cycle(code, "H", pauli_entry(word), psi)
            assert f_corr == pytest.approx(1.0, abs=1e-10)


def test_bit_flip_code_misses_phase_errors():
    code = bit_flip_code()
    clean = encode(code, PSI)
    z = word_matrix("ZII")
    fixed = correction_cycle(code, z @ clean @ z.conj().T)
    assert state_fidelity(decode(code, fixed), ket_density(PSI)) < 0.999


def test_five_qubit_code_fails_on_weight_two():
    code = five_qubit_code()
    clean = encode(code, PSI)
    e = word_matrix("XXIII")
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
        if all(c in "IX" for c in pauli_word(3, err)):
            assert f_corr == pytest.approx(1.0, abs=1e-10)
        else:
            assert f_corr < 0.999
    assert mean_unc < mean_corr < 1.0
    f_unc, f_corr = logical_gate_cycle(code, "H", pauli_entry("IIX"), PSI)
    assert f_corr == pytest.approx(1.0, abs=1e-10)
    assert f_unc < 1.0


def test_transversal_cnot_error_spread():
    x1 = pauli_entry("XII")
    assert transversal_cnot_demo("bad", x1) == 3
    assert transversal_cnot_demo("transversal", x1) == 1
    for err in error_ensemble(3)[1:]:
        # X parts copy onto the target block, Z parts stay on the control block
        want = sum(c in "XY" for c in pauli_word(3, err))
        assert transversal_cnot_demo("transversal", err) == want <= 1
    with pytest.raises(ValueError):
        transversal_cnot_demo("sideways", x1)


def dense_target_block_weight(m):
    """Qubits 4-6 on which a dense 6-qubit operator acts: those with an X or
    Z it does not commute with."""
    weight = 0
    for q in (4, 5, 6):
        local = [embed(s, [q], 6) for s in (SIGMA_X, SIGMA_Z)]
        weight += any(not np.allclose(m @ p, p @ m) for p in local)
    return weight


@pytest.mark.parametrize("variant, gates", [
    ("bad", [("CNOT", (1, t)) for t in (4, 5, 6)]),
    ("transversal", [("CNOT", (q, q + 3)) for q in (1, 2, 3)]),
])
def test_transversal_cnot_demo_matches_dense_conjugation(variant, gates):
    # every single error on the control block, conjugated by the circuit's
    # dense unitary; the weight is read off the dense operator
    u = circuit_unitary(gates, 6)
    for q in range(3):
        for letter in "XYZ":
            word = "I" * q + letter + "I" * (2 - q)
            want = dense_target_block_weight(u @ word_matrix(word + "III") @ u.conj().T)
            assert transversal_cnot_demo(variant, pauli_entry(word)) == want


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
