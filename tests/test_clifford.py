"""Tableau arithmetic cross-checked against dense conjugation."""

import functools
import itertools
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmrqip import clifford
from nmrqip.clifford import (
    circuit_tableau,
    circuit_tableaux,
    clifford_group,
    compose,
    gate_tableau,
    identity,
    inverse,
    tableau,
    unitaries,
)
from nmrqip.qop import (PAULIS, controlled, haar_random_unitary, pauli_entry, pauli_matrices,
                        tensor)

from conftest import (all_1q_cliffords, all_pauli_words, child_env, circuit_unitary,
                      closure_one_at_a_time, from_unitaries, from_unitary, gate_fidelity_hs,
                      gate_tableau_by_rows, generator_rows, pauli_product, rotation_unitaries,
                      row_product, signed_entry, table_qubits, word_matrix)


def random_circuit(n, depth, rng, singles="HS"):
    """depth gates, each one of the named single-qubit gates or a CNOT with
    equal odds; a CNOT drawn on one qubit is skipped."""
    gates = []
    for _ in range(depth):
        kind = rng.integers(len(singles) + 1)
        if kind < len(singles):
            gates.append((singles[kind], (int(rng.integers(1, n + 1)),)))
        elif n > 1:
            c, t = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            gates.append(("CNOT", (int(c), int(t))))
    return gates


def images_of(table, *words):
    """The entries C P C^dag of Pauli words P for the Clifford C of a table."""
    return [int(compose(pauli_entry(w), table)) for w in words]


def test_hadamard_images():
    h = gate_tableau("H", (1,), 1)
    assert images_of(h, "X", "Z", "Y") == [pauli_entry("Z"), pauli_entry("X"),
                                           signed_entry("Y", -1)]


def test_phase_gate_images():
    s = gate_tableau("S", (1,), 1)
    assert images_of(s, "X", "Z") == [pauli_entry("Y"), pauli_entry("Z")]


def test_cnot_images():
    cx = gate_tableau("CNOT", (1, 2), 2)
    want = [pauli_entry(w) for w in ("XX", "ZZ", "IX", "ZI")]
    assert images_of(cx, "XI", "IZ", "IX", "ZI") == want


def test_conjugate_matches_dense(rng):
    for n in (1, 2, 3):
        gates = random_circuit(n, 12, rng)
        tab = circuit_tableau(gates, n)
        u = circuit_unitary(gates, n)
        words = all_pauli_words(n)[1:]
        for word, img in zip(words, pauli_matrices(n, images_of(tab, *words))):
            assert np.allclose(img, u @ word_matrix(word) @ u.conj().T, atol=1e-10)


def test_conjugate_is_multiplicative(rng):
    tab = circuit_tableau(random_circuit(2, 10, rng), 2)
    a, b = pauli_entry("XY"), pauli_entry("ZX")
    ca, cb = images_of(tab, "XY", "ZX")
    assert pauli_product(2, ca, cb) == compose(pauli_product(2, a, b), tab)


def test_then_order_matches_circuit():
    # H then S on the same qubit: X -> Z -> Z
    h = gate_tableau("H", (1,), 1)
    s = gate_tableau("S", (1,), 1)
    assert images_of(compose(h, s), "X") == [pauli_entry("Z")]
    # S then H: X -> Y -> -Y
    assert images_of(compose(s, h), "X") == [signed_entry("Y", -1)]


def test_inverse(rng):
    tab = circuit_tableau(random_circuit(3, 15, rng), 3)
    ident = identity(3)
    assert np.array_equal(compose(tab, inverse(tab)), ident)
    assert np.array_equal(compose(inverse(tab), tab), ident)


def gate_lists(n):
    single = st.tuples(st.sampled_from("HSXYZ"), st.tuples(st.integers(1, n)))
    if n == 1:
        return st.lists(single, max_size=12)
    pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True).map(tuple)
    return st.lists(st.one_of(single, st.tuples(st.just("CNOT"), pair)), max_size=12)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), gate_lists(n))), st.data())
def test_random_tableau_against_its_unitary(case, data):
    n, gates = case
    tab = circuit_tableau(gates, n)
    u = unitaries(tab)
    word = data.draw(st.text("IXYZ", min_size=n, max_size=n))
    phase = data.draw(st.sampled_from([1, -1, 1j, -1j]))
    p, dense = signed_entry(word, phase), word_matrix(word, phase)
    inv = inverse(tab)
    image, back = pauli_matrices(n, [compose(p, tab), compose(p, inv)])
    assert np.allclose(image, u @ dense @ u.conj().T, atol=1e-10)
    assert np.allclose(back, u.conj().T @ dense @ u, atol=1e-10)
    ident = identity(n)
    assert np.array_equal(compose(tab, inv), ident) and np.array_equal(compose(inv, tab), ident)


def test_unitary_roundtrip(rng):
    for n in (1, 2):
        gates = random_circuit(n, 8, rng)
        tab = circuit_tableau(gates, n)
        assert np.array_equal(from_unitary(unitaries(tab)), tab)
        # matches the dense circuit up to global phase
        assert gate_fidelity_hs(circuit_unitary(gates, n),
                                unitaries(tab)) == pytest.approx(1.0)


def test_from_unitary_rejects_non_clifford(rng):
    t = np.diag([1, np.exp(1j * np.pi / 4)])
    cs = controlled(np.diag([1, 1j]))
    for u in (t, cs, haar_random_unitary(4, rng), np.full((2, 2), np.nan)):
        with pytest.raises(ValueError):
            from_unitary(u)


def scan_rows(unitaries, n):
    """Oracle for from_unitary: conjugate each generator by each unitary and
    take the first word, in all_pauli_words order, whose trace overlap has
    modulus above 1/2; returns each unitary's (x, z, k) rows."""
    words = all_pauli_words(n)
    kron = np.array([tensor(*(PAULIS[c] for c in w)) for w in words])
    gens = [kron[words.index("I" * i + g + "I" * (n - 1 - i))] for g in "XZ" for i in range(n)]
    images = unitaries[:, None] @ np.array(gens) @ unitaries.conj().transpose(0, 2, 1)[:, None]
    overlaps = np.einsum("wba,ugba->ugw", kron.conj(), images) / 2**n
    first = np.argmax(np.abs(overlaps) > 0.5, axis=2)
    coeffs = np.take_along_axis(overlaps, first[..., None], 2)[..., 0]
    assert np.allclose(np.abs(coeffs), 1, rtol=0, atol=1e-9)
    out = []
    for ws, cs in zip(first, coeffs):
        ps = [signed_entry(words[w], complex(np.round(c))) for w, c in zip(ws, cs)]
        out.append(tuple((p >> (n + 2), p >> 2 & (1 << n) - 1, p & 3) for p in ps))
    return out


@pytest.fixture(scope="module")
def group2():
    """All 11520 two-qubit Clifford tableaux (mod phase), enumerated once."""
    return clifford_group(2)


def test_from_unitary_matches_the_word_scan(group2):
    # all 11520 two-qubit Cliffords and the RB rotations set
    dense = unitaries(group2)
    for t, got, rows in zip(group2, from_unitaries(dense), scan_rows(dense, 2)):
        assert generator_rows(got) == rows and np.array_equal(got, t)
    rotations = rotation_unitaries()
    for u, rows in zip(rotations, scan_rows(rotations, 1)):
        assert generator_rows(from_unitary(u)) == rows


def paulis(*words):
    return tuple(map(pauli_entry, words))


@pytest.mark.parametrize("n, x_images, z_images, message", [
    (1, (signed_entry("X", 1j),), paulis("Z"), "Hermitian"),
    (1, paulis("X"), (signed_entry("Z", -1j),), "Hermitian"),
    (2, paulis("XI"), paulis("ZI", "IZ"), "one image per generator"),
    (2, paulis("XI", "IX", "XX"), paulis("ZI", "IZ"), "one image per generator"),
    (1, paulis("XI"), paulis("Z"), "length mismatch"),
    (2, paulis("XI", "ZX"), paulis("ZI", "IZ"), "generator commutation"),
    (2, paulis("XI", "IX"), paulis("ZI", "XZ"), "generator commutation"),
    (2, paulis("XI", "IX"), paulis("ZI", "ZZ"), "symplectic pairing"),
    (1, paulis("X"), (signed_entry("X", -1),), "symplectic pairing"),
], ids=["phase-i", "phase-minus-i", "too-few-images", "too-many-images", "wrong-n",
        "x1-x2-anticommute", "z1-z2-anticommute", "x1-z2-anticommute", "x1-z1-commute"])
def test_validation_rejects_each_rule(n, x_images, z_images, message):
    with pytest.raises(ValueError, match=message):
        tableau(n, x_images, z_images)


def images(t):
    """(X images, Z images) of a table as entries, packed from its rows."""
    n = table_qubits(t)
    ps = tuple(x << (n + 2) | z << 2 | k for x, z, k in generator_rows(t))
    return ps[:n], ps[n:]


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), gate_lists(n), gate_lists(n))))
def test_derived_rows_pass_the_validator(case):
    n, gates_a, gates_b = case
    a, b = circuit_tableau(gates_a, n), circuit_tableau(gates_b, n)
    for t in (compose(a, b), inverse(a), compose(b, inverse(a))):
        rebuilt = tableau(n, *images(t))  # raises if invalid
        assert np.array_equal(rebuilt, t)
    same = compose(compose(a, b), inverse(b))  # equal to a, built along another path
    for u, v in ((a, b), (a, same)):
        assert np.array_equal(u, v) == (images(u) == images(v))
    assert np.array_equal(a, same)


def test_gate_tableau_rejects_qubits_out_of_range():
    for qubits in ((0,), (3,)):
        with pytest.raises(ValueError):
            gate_tableau("H", qubits, 2)
    with pytest.raises(ValueError):
        gate_tableau("CNOT", (1, 3), 2)
    for q in (1, 2):  # control equal to target
        with pytest.raises(ValueError, match="control and target"):
            gate_tableau("CNOT", (q, q), 2)
    with pytest.raises(ValueError, match="unknown gate"):
        gate_tableau("T", (1,), 2)
    with pytest.raises(ValueError, match="takes 1 qubit"):
        gate_tableau("H", (1, 2), 2)
    with pytest.raises(ValueError, match="takes 2 qubit"):
        gate_tableau("CNOT", (1,), 2)
    with pytest.raises(ValueError, match="unknown gate"):  # a bad gate mid-list
        circuit_tableau([("H", (1,)), ("CZ", (1, 2)), ("S", (2,))], 2)


def test_all_1q_cliffords_distinct():
    tabs = all_1q_cliffords()
    keys = {(x[0], z[0]) for x, z in map(images, tabs)}
    assert len(tabs) == len(keys) == 24


def random_tableaux(rng):
    """Random-circuit tableaux for n = 1..7, with their gate lists."""
    return [(gates, circuit_tableau(gates, n)) for n in range(1, 8)
            for gates in (random_circuit(n, 6 * n, rng) for _ in range(20))]


def test_unitaries_entries_are_exactly_signed_c_or_ic(rng, group2):
    cases = [clifford_group(1), group2]
    cases += [[t] for _, t in random_tableaux(rng)]
    for tabs in cases:
        us = unitaries(tabs)
        re, im = us.real, us.imag
        c = np.abs(us).max(axis=(1, 2))[:, None, None]
        # each entry is exactly 0, +-c or +-ic: one part 0, the other 0 or +-c
        assert np.all((re == 0) | (im == 0))
        assert np.all((re + im == 0) | (np.abs(re + im) == c))
        # phase convention: the first nonzero entry of column 0 is real positive
        first = us[np.arange(len(us)), np.argmax(us[:, :, 0] != 0, axis=1), 0]
        assert np.array_equal(first, c[:, 0, 0])


def test_unitaries_match_circuit_unitary_up_to_phase(rng):
    # random circuits over every named gate against the per-gate dense oracle
    for n in range(1, 5):
        for _ in range(20):
            gates = random_circuit(n, 6 * n, rng, singles="HSXYZI")
            t = circuit_tableau(gates, n)
            u = unitaries([t])[0]
            assert np.allclose(u @ u.conj().T, np.eye(len(u)), rtol=0, atol=1e-12)
            assert gate_fidelity_hs(circuit_unitary(gates, n), u) == pytest.approx(1, abs=1e-12)
            assert np.array_equal(unitaries(t), u)


def test_cnot_unitary_equals_the_dense_gate():
    # exactly, phase included: grape and certify take their CNOT target from it
    for n in range(2, 5):
        for pair in itertools.permutations(range(1, n + 1), 2):
            assert np.array_equal(unitaries(gate_tableau("CNOT", pair, n)),
                                  circuit_unitary([("CNOT", pair)], n))


def test_unitaries_rejects_empty_or_mixed_n():
    # a stack holds one n; an empty list has no width to read n from and is
    # rejected, while an empty (0, 4^n) stack gives an empty (0, d, d) stack
    with pytest.raises(ValueError):
        unitaries([])
    assert unitaries(np.empty((0, 16), dtype=np.int64)).shape == (0, 4, 4)


def test_unitaries_of_a_stack_are_the_per_table_unitaries(rng, group2):
    stacks = [clifford_group(1), group2[::97]]
    stacks += [circuit_tableaux([random_circuit(n, 6 * n, rng) for _ in range(5)], n)
               for n in range(1, 6)]
    for stack in stacks:
        want = np.array([unitaries(t) for t in stack])
        assert want.shape == (len(stack), *2 * [2**table_qubits(stack)])
        assert np.array_equal(unitaries(stack), want)


def table_bytes(tabs, kind):
    """The tables' bytes, collected by kind (list or set)."""
    return kind(t.tobytes() for t in tabs)


def test_clifford_group(group2):
    assert table_bytes(clifford_group(1), set) == table_bytes(all_1q_cliffords(), set)
    assert len(group2) == len(table_bytes(group2, set)) == 11520
    assert np.array_equal(group2[0], identity(2))
    for group, n in ((clifford_group(1), 1), (group2, 2)):  # one read-only int64 stack
        assert group.shape == (len(group), 4**n) and group.dtype == np.int64
        assert not group.flags.writeable
    for n in (0, 3):
        with pytest.raises(ValueError):
            clifford_group(n)


@pytest.mark.parametrize("n", [1, 2])
def test_clifford_group_equals_the_one_at_a_time_closure(n, group2):
    # the batched closure lists the same tableaux in the same order
    got = clifford_group(1) if n == 1 else group2
    assert table_bytes(got, list) == table_bytes(closure_one_at_a_time(n), list)


def test_table_entries_are_the_generator_row_products(rng):
    # every entry, at every key, is the product of the generator rows that
    # the key's bits select; images of a packed entry adds its phase to it
    tabs = [*clifford_group(1), *(circuit_tableau(random_circuit(n, 6 * n, rng), n)
                                  for n in range(1, 6) for _ in range(10))]
    for t in tabs:
        n, rows = table_qubits(t), generator_rows(t)
        keys = np.arange(4**n)
        k = rng.integers(4, size=len(keys))
        want = [row_product(rows, key >> n, key & (1 << n) - 1, kk)
                for key, kk in zip(keys.tolist(), k.tolist())]
        assert compose(keys << 2 | k, t).tolist() == [x << (n + 2) | z << 2 | kk
                                                       for x, z, kk in want]
        assert t.tolist() == [x << (n + 2) | z << 2 | (kk - k0) % 4
                              for (x, z, kk), k0 in zip(want, k.tolist())]


def test_circuit_tableau_equals_the_row_patch_gate_product(rng):
    # random circuits over all seven gates against the gate-by-gate composed
    # product of tables built by patching identity rows, not by the gate rule
    for n in range(1, 8):
        for _ in range(30):
            gates = random_circuit(n, 3 * n, rng, singles="HSXYZI")
            want = functools.reduce(compose,
                                    [gate_tableau_by_rows(name, q, n) for name, q in gates],
                                    identity(n))
            assert np.array_equal(circuit_tableau(gates, n), want)


def test_circuit_tableau_builds_one_table_per_call(rng, monkeypatch):
    # the gates rewrite generator entries; only the local 4- or 16-entry
    # tables and the circuit's one 4^n table are ever built
    built = []
    real = clifford._image_table
    monkeypatch.setattr(clifford, "_image_table", lambda n, e: built.append(n) or real(n, e))
    clifford._local_table.cache_clear()
    for n in (3, 5, 7):
        for depth in (0, 1, 4 * n):
            built.clear()
            circuit_tableau(random_circuit(n, depth, rng, singles="HSXYZI"), n)
            assert [m for m in built if m == n] == [n] and set(built) <= {1, 2, n}


def test_circuit_tableaux_stack_the_per_list_tables_in_one_build(rng, monkeypatch):
    # m gate lists give the (m, 4^n) stack of their circuit_tableau rows,
    # and the lists' tables are built in one call; a named gate's local
    # table is built from one 1-D row of entries
    built = []
    real = clifford._image_table
    monkeypatch.setattr(clifford, "_image_table", lambda m, e: built.append(e.shape) or real(m, e))
    for n in (1, 3, 6):
        circuits = [random_circuit(n, depth, rng, singles="HSXYZI") for depth in (0, 1, 5, 3 * n)]
        want = np.array([circuit_tableau(gates, n) for gates in circuits])
        built.clear()
        got = circuit_tableaux(circuits, n)
        assert np.array_equal(got, want) and got.shape == (len(circuits), 4**n)
        assert [shape for shape in built if len(shape) == 2] == [(len(circuits), 2 * n)]


def test_twirl_import_builds_no_gate_table():
    # every pauli-twirl job imports twirl and clifford; tables wait for a gate
    probe = """
import nmrqip.clifford as c
built = []
real = c._image_table
c._image_table = lambda n, e: built.append(n) or real(n, e)
import nmrqip.twirl
print(len(built), c._local_table.cache_info().currsize)
"""
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "0"]


def test_tables_are_read_only(rng):
    a = circuit_tableau(random_circuit(2, 8, rng), 2)
    tabs = [a, compose(a, a), inverse(a), identity(2), gate_tableau("H", (1,), 2),
            clifford_group(1)[5], tableau(1, paulis("Z"), paulis("X"))]
    for t in tabs:
        with pytest.raises(ValueError, match="read-only"):
            t[1] = 0


def test_from_unitaries_reads_a_stack_and_rejects_non_clifford():
    good = unitaries(clifford_group(1)[:3])
    assert table_bytes(from_unitaries(good), list) == table_bytes(clifford_group(1)[:3], list)
    with pytest.raises(ValueError):
        from_unitaries(np.stack([good[0], np.diag([1, np.exp(1j * np.pi / 4)])]))
