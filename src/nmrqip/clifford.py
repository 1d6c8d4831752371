"""Clifford tableaux as int64 tables: Pauli conjugation, gate lists, unitaries.

A tableau on n qubits is its table, one read-only int64 array of 4^n
entries: entry x << n | z holds x' << (n + 2) | z' << 2 | k when
C X^x Z^z C^dag = i^k X^x' Z^z', with qubit 1 the most significant bit and
k mod 4, the packed Pauli entry of nmrqip.qop; n is read from the width.
A gate set, or the group, is an (m, 4^n) stack of tables.  _image_table
builds each from its 2n generator entries (the images of X_1..X_n, then
Z_1..Z_n), one key bit at a time, for one table or a stack.
compose(first, second) looks first's packed entries, or a whole table, up
in second, a table or a stack, and adds their phases (one Pauli's image is
compose(entry, table)); inverse scatters each entry back to its key.  Only
tableau(n, x_images, z_images) validates: the image entries must lie on n
qubits, be Hermitian and pair symplectically.  Every table returned here is
read-only.

Each named gate (H, S, X, Y, Z, I, CNOT) is defined once, by its generator
rows on its own one or two qubits, with a 4- or 16-entry table built on
first use.  circuit_tableaux passes the identity's generator entries through
m gate lists, each gate rewriting the bits on its qubits by one lookup
(O(n) per gate, as in CHP), and builds the m tables in one call;
circuit_tableau and gate_tableau are its one-list cases.  clifford_group(n)
closes a breadth-first search on n <= 2 a level at a time, deduplicating
packed generator entries, and builds every member's table at once.

unitaries(tables) is exact.  U|0> is column j of the rank-one projector
P = prod_i (I + Z'_i)/2 of the Z images over sqrt(P_jj), at the first
largest diagonal entry j (Aaronson and Gottesman, quant-ph/0406196), so the
first nonzero entry of column 0 is real positive; column x applies the X
images of x's set bits.  Each entry is 0, +-c or +-ic for one c.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .qop import commutes, pauli_matrices


def _read_only(a):
    """a, marked read-only."""
    a.setflags(write=False)
    return a


def tableau(n: int, x_images, z_images) -> np.ndarray:
    """Table of the Clifford with packed entry images of X_1..X_n, Z_1..Z_n."""
    if len(x_images) != n or len(z_images) != n:
        raise ValueError("need one image per generator")
    for e in (*x_images, *z_images):
        if not 0 <= e < 1 << (2 * n + 2):
            raise ValueError(f"image length mismatch: entry {e} is not on {n} qubits")
        if (e - (e >> (n + 2) & e >> 2).bit_count()) % 2:  # k - popcount(x & z) odd
            raise ValueError("generator images must be Hermitian (phase +-1)")
    for i in range(n):
        for j in range(n):
            if not (commutes(n, x_images[i], x_images[j])
                    and commutes(n, z_images[i], z_images[j])):
                raise ValueError("images break generator commutation")
            if commutes(n, x_images[i], z_images[j]) != (i != j):
                raise ValueError("images break symplectic pairing")
    return _read_only(_image_table(n, np.array([*x_images, *z_images])))


def identity(n: int) -> np.ndarray:
    """Table of the identity: each key maps to its own entry at phase +1."""
    return _read_only(np.arange(4**n, dtype=np.int64) << 2)


def _image_table(n: int, entries) -> np.ndarray:
    """(..., 4^n) tables of the Cliffords with (..., 2n) generator entries:
    key bit s selects entry 2n - 1 - s, and each key with top bit s maps to
    that entry times the image of the key below it."""
    table = np.zeros((*entries.shape[:-1], 4**n), dtype=np.int64)
    for s in range(2 * n):
        e, low = entries[..., 2 * n - 1 - s, None], table[..., :1 << s]
        # (i^k X^x Z^z)(i^k' X^x' Z^z'): moving Z^z past X^x' signs it
        phase = e + low + 2 * np.bitwise_count(e >> 2 & low >> (n + 2))
        table[..., 1 << s:2 << s] = (e ^ low) & ~3 | phase & 3
    return table


def compose(first, second) -> np.ndarray:
    """Entries of second . first: first's packed entries, or first's table
    (first acts first), looked up in second's table or stack of tables."""
    t = second[..., first >> 2]
    return _read_only(t & ~3 | (t + first) & 3)


def inverse(table) -> np.ndarray:
    """Table of C^dag: C P_a C^dag = i^k P_b gives C^dag P_b C = i^-k P_a."""
    out = np.empty_like(table)
    out[table >> 2] = np.arange(len(table)) << 2 | -table & 3
    return _read_only(out)


def unitaries(tables) -> np.ndarray:
    """The (d, d) unitary of one table, or the (m, d, d) unitaries of an
    (m, 4^n) stack, built as the module docstring describes."""
    tables = np.asarray(tables)
    n = (tables.shape[-1].bit_length() - 1) // 2
    if n < 1 or tables.shape[-1] != 4**n:
        raise ValueError(f"a table has 4^n entries for some n >= 1, not {tables.shape[-1]}")
    d = 2**n
    gens = tables.reshape(-1, 4**n)[:, 1 << np.arange(2 * n)[::-1]]
    mats = pauli_matrices(n, gens).reshape(len(gens), 2, n, d, d)
    proj = np.eye(d)
    for q in range(n):
        proj = proj @ (np.eye(d) + mats[:, 1, q]) / 2
    r = np.arange(len(gens))
    j = np.argmax(proj[:, range(d), range(d)].real, axis=1)
    pjj = proj[r, j, j].real[:, None]
    cols = (proj[r, :, j] / pjj * np.sqrt(pjj))[:, :, None]  # P[:, j] / P_jj is 0, +-1 or +-i
    for q in reversed(range(n)):  # qubit 1 is the most significant column bit
        cols = np.concatenate([cols, mats[:, 0, q] @ cols], axis=2)
    return cols.reshape(*tables.shape[:-1], d, d)


# ---------------------------------------------------------------------------
# named gates, gate lists and the groups on n <= 2

# (x, z, k) generator rows of each named gate on its own qubits, the images of
# X_1..X_m then Z_1..Z_m; a CNOT's qubits are (control, target)
_GATES = {
    "H": ((0, 1, 0), (1, 0, 0)),
    "S": ((1, 1, 1), (0, 1, 0)),
    "X": ((1, 0, 0), (0, 1, 2)),
    "Y": ((1, 0, 2), (0, 1, 2)),
    "Z": ((1, 0, 2), (0, 1, 0)),
    "I": ((1, 0, 0), (0, 1, 0)),
    "CNOT": ((0b11, 0, 0), (0b01, 0, 0), (0, 0b10, 0), (0, 0b11, 0)),  # X_c -> X_cX_t, Z_t -> Z_cZ_t
}


@cache
def _local_table(name: str) -> np.ndarray:
    """The read-only 4- or 16-entry table of a named gate on its own qubits,
    shared by every call."""
    m = len(_GATES[name]) // 2
    return _read_only(_image_table(m, np.array([x << (m + 2) | z << 2 | k
                                                 for x, z, k in _GATES[name]])))


def _apply_gate(entries, name: str, qubits, n: int) -> np.ndarray:
    """Entries conjugated by a named gate on 1-based qubits: each entry's
    bits on those qubits, read as a local key, are replaced by the bits of
    the key's image in the gate's local table, whose phase adds to the
    entry's."""
    if name not in _GATES:
        raise ValueError(f"unknown gate {name!r}")
    qubits, m = tuple(qubits), len(_GATES[name]) // 2
    if len(qubits) != m:
        raise ValueError(f"{name} takes {m} qubit(s), not {qubits}")
    if not all(1 <= q <= n for q in qubits):
        raise ValueError(f"qubits {qubits} outside 1..{n}")
    if len(set(qubits)) < m:
        raise ValueError(f"{name} control and target are both qubit {qubits[0]}")
    at = n - np.array(qubits)
    bits = np.concatenate([at + n + 2, at + 2])  # entry bit of each local key bit, top first
    img = _local_table(name)[(entries[..., None] >> bits & 1) @ (1 << np.arange(2 * m)[::-1])]
    placed = ((img[..., None] >> np.arange(2 * m + 1, 1, -1) & 1) << bits).sum(axis=-1)
    return entries & ~((1 << bits).sum() | 3) | placed | (entries + img) & 3


def circuit_tableaux(circuits, n: int) -> np.ndarray:
    """(m, 4^n) stack of the tables of m [(name, qubits)] gate lists, first
    gate first: the identity's generator entries conjugated gate by gate,
    list by list, then one stacked table build."""
    rows = []
    for gates in circuits:
        entries = 4 << np.arange(2 * n)[::-1]  # X_1..X_n, then Z_1..Z_n, at their own keys
        for name, qubits in gates:
            entries = _apply_gate(entries, name, qubits, n)
        rows.append(entries)
    return _read_only(_image_table(n, np.array(rows)))


def circuit_tableau(gates, n: int) -> np.ndarray:
    """Table of one [(name, qubits)] gate list."""
    return circuit_tableaux([gates], n)[0]


def gate_tableau(name: str, qubits, n: int) -> np.ndarray:
    """Table of a named gate (H, S, X, Y, Z, I, CNOT) on 1-based qubits."""
    return circuit_tableau([(name, qubits)], n)


def clifford_group(n: int) -> np.ndarray:
    """The (N, 4^n) stack of the N = 24 (n = 1) or 11520 (n = 2) Clifford
    tables, the identity first, closed breadth first under H_q, S_q and
    neighbour CNOTs both ways.  Each level, as generator entries, is composed
    with every generator in one gather; a candidate joins the next level,
    parent by parent and generator by generator, unless an earlier level or
    candidate has its entries."""
    if not 1 <= n <= 2:
        raise ValueError(f"clifford_group takes n = 1 or 2 (n = 3 has 92897280 elements), not {n}")
    gens = circuit_tableaux([[(g, (q,))] for g in "HS" for q in range(1, n + 1)]
                            + [[("CNOT", pair)] for pair in ((1, 2), (2, 1)) if n == 2], n)
    pack = 1 << np.arange(2 * n) * (2 * n + 2)  # a row of 2n entries of 2n + 2 bits, as one int
    level = (4 << np.arange(2 * n)[::-1])[None]  # the identity's generator entries
    levels, seen = [level], level @ pack
    while len(level):
        cand = compose(level, gens).swapaxes(0, 1).reshape(-1, 2 * n)
        # the members' keys first, so each has its own first occurrence and
        # the rest, in candidate order, are the new members
        keys = np.concatenate([seen, cand @ pack])
        first = np.sort(np.unique(keys, return_index=True)[1])
        level, seen = cand[first[len(seen):] - len(seen)], keys[first]
        levels.append(level)
    return _read_only(_image_table(n, np.concatenate(levels)))
