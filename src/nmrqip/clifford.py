"""Clifford tableaux: symbolic Pauli conjugation, gate lists, dense conversion.

A tableau on n qubits is one read-only int64 table of 4^n entries: entry
x << n | z holds x' << (n + 2) | z' << 2 | k when C X^x Z^z C^dag =
i^k X^x' Z^z', with qubit 1 the most significant bit and k mod 4, the
encoding of nmrqip.qop.PauliString.  Every table is built one way, by
_image_table from its 2n generator entries (the images of X_1..X_n, then
Z_1..Z_n), one key bit at a time, for one tableau or a stack.  Later
operations are gathers: images(entries) reads the keys of entries in this
encoding and adds their phases, conjugate is its one-Pauli case, then looks
one table's image keys up in the other, and inverse scatters each entry
back to its key.  Only the constructor from images validates; it checks
that they are Hermitian and pair symplectically.

Each named gate (H, S, X, Y, Z, I, CNOT) is defined once, by its generator
rows on its own one or two qubits, with a 4- or 16-entry table built on
first use.  circuit_tableau passes the identity's generator entries
through the gates, each rewriting the bits on its qubits by one lookup
(O(n) per gate, as in CHP), and builds one table; gate_tableau is a
one-gate list.  clifford_group(n) closes a breadth-first search on n <= 2
a level at a time, deduplicating packed generator entries, and builds
every member's table at once.  A dense gate is to_unitary() of its tableau.

Dense conversion is exact and works on stacks.  unitaries(tableaux) takes
U|0> from the rank-one projector P = prod_i (I + Z'_i)/2 of the Z images
(Aaronson and Gottesman, quant-ph/0406196): column j of P over sqrt(P_jj),
at the first largest diagonal entry j, so the first nonzero entry of column
0 is real positive.  Column x applies the X images of x's set bits, and
each entry is 0, +-c or +-ic for one c; to_unitary is the one-element
case.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .qop import PauliString, pauli_matrices


class CliffordTableau:
    """A Clifford's image of every Pauli key x << n | z, as the read-only
    int64 table described in the module docstring."""

    __slots__ = ("n", "table")

    def __init__(self, n: int, x_images, z_images):
        """Tableau from the PauliString images of X_1..X_n and Z_1..Z_n."""
        if len(x_images) != n or len(z_images) != n:
            raise ValueError("need one image per generator")
        for img in (*x_images, *z_images):
            if img.n != n:
                raise ValueError("image length mismatch")
            if img.phase not in (1, -1):
                raise ValueError("generator images must be Hermitian (phase +-1)")
        for i in range(n):
            for j in range(n):
                if not (x_images[i].commutes(x_images[j]) and z_images[i].commutes(z_images[j])):
                    raise ValueError("images break generator commutation")
                if x_images[i].commutes(z_images[j]) != (i != j):
                    raise ValueError("images break symplectic pairing")
        entries = np.array([p.x << (n + 2) | p.z << 2 | p.k for p in (*x_images, *z_images)])
        self.n, self.table = n, _image_table(n, entries)
        self.table.setflags(write=False)

    @classmethod
    def _of(cls, n: int, table: np.ndarray) -> "CliffordTableau":
        t = object.__new__(cls)
        table.setflags(write=False)
        t.n, t.table = n, table
        return t

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "CliffordTableau":
        return cls._of(n, np.arange(4**n, dtype=np.int64) << 2)

    # -- algebra ------------------------------------------------------------

    def images(self, entries) -> np.ndarray:
        """Packed entries of C P C^dag for an int array of packed entries P."""
        return _compose(entries, self.table)

    def conjugate(self, p: PauliString) -> PauliString:
        """C p C^dag."""
        n = self.n
        if p.n != n:
            raise ValueError("length mismatch")
        e = int(self.images(p.x << (n + 2) | p.z << 2 | p.k))
        return PauliString.from_bits(n, e >> (n + 2), e >> 2 & (1 << n) - 1, e & 3)

    def then(self, other: "CliffordTableau") -> "CliffordTableau":
        """Tableau of (other . self) as a unitary product: self acts first."""
        return CliffordTableau._of(self.n, _compose(self.table, other.table))

    def inverse(self) -> "CliffordTableau":
        """Tableau of C^dag: C P_a C^dag = i^k P_b gives C^dag P_b C = i^-k P_a."""
        out = np.empty_like(self.table)
        out[self.table >> 2] = np.arange(4**self.n) << 2 | -self.table & 3
        return CliffordTableau._of(self.n, out)

    # -- dense --------------------------------------------------------------

    def to_unitary(self) -> np.ndarray:
        """Exact dense unitary realizing the tableau (see unitaries)."""
        return unitaries([self])[0]


def _image_table(n: int, entries) -> np.ndarray:
    """(..., 4^n) tables of the Cliffords with (..., 2n) generator entries:
    key bit s selects entry 2n - 1 - s, and each key with top bit s maps to
    that entry times the image of the key below it."""
    table = np.zeros((*entries.shape[:-1], 4**n), dtype=np.int64)
    for s in range(2 * n):
        e, low = entries[..., 2 * n - 1 - s, None], table[..., :1 << s]
        # (i^k X^x Z^z)(i^k' X^x' Z^z'): moving Z^z past X^x' signs it
        phase = e + low + 2 * np.bitwise_count(e >> 2 & low >> (n + 2))
        table[..., 1 << s:2 << s] = e & ~3 ^ low & ~3 | phase & 3
    return table


def _compose(first, second) -> np.ndarray:
    """Entries of second . first: first's entries looked up in second's table(s)."""
    t = second[..., first >> 2]
    return t & ~3 | (t + first) & 3


def unitaries(tableaux) -> np.ndarray:
    """(m, d, d) stack of the unitaries of m tableaux on one n, built from the
    projector of the Z images as the module docstring describes."""
    (n,) = {t.n for t in tableaux}  # ValueError unless exactly one n
    m, d = len(tableaux), 2**n
    gens = np.stack([t.table for t in tableaux])[:, 1 << np.arange(2 * n)[::-1]]
    mats = pauli_matrices(n, gens).reshape(m, 2, n, d, d)
    proj = np.eye(d)
    for q in range(n):
        proj = proj @ (np.eye(d) + mats[:, 1, q]) / 2
    r = np.arange(m)
    j = np.argmax(proj[:, range(d), range(d)].real, axis=1)
    pjj = proj[r, j, j].real[:, None]
    cols = (proj[r, :, j] / pjj * np.sqrt(pjj))[:, :, None]  # P[:, j] / P_jj is 0, +-1 or +-i
    for q in reversed(range(n)):  # qubit 1 is the most significant column bit
        cols = np.concatenate([cols, mats[:, 0, q] @ cols], axis=2)
    return cols


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
    table = _image_table(m, np.array([x << (m + 2) | z << 2 | k for x, z, k in _GATES[name]]))
    table.setflags(write=False)
    return table


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


def circuit_tableau(gates, n: int) -> CliffordTableau:
    """Tableau of a [(name, qubits)] gate list, first gate first: the
    identity's generator entries conjugated gate by gate, then one table."""
    entries = 4 << np.arange(2 * n)[::-1]  # X_1..X_n, then Z_1..Z_n, at their own keys
    for name, qubits in gates:
        entries = _apply_gate(entries, name, qubits, n)
    return CliffordTableau._of(n, _image_table(n, entries))


def gate_tableau(name: str, qubits, n: int) -> CliffordTableau:
    """Tableau of a named gate (H, S, X, Y, Z, I, CNOT) on 1-based qubits."""
    return circuit_tableau([(name, qubits)], n)


def clifford_group(n: int) -> list:
    """The 24 (n = 1) or 11520 (n = 2) Clifford tableaux, the identity first,
    closed breadth first under H_q, S_q and neighbour CNOTs both ways.  Each
    level, as generator entries, is composed with every generator in one
    gather; a candidate joins the next level, parent by parent and generator
    by generator, unless an earlier level or candidate has its entries."""
    if not 1 <= n <= 2:
        raise ValueError(f"clifford_group takes n = 1 or 2 (n = 3 has 92897280 elements), not {n}")
    gens = [gate_tableau(g, (q,), n) for g in "HS" for q in range(1, n + 1)]
    gens += [gate_tableau("CNOT", pair, n) for pair in ((1, 2), (2, 1)) if n == 2]
    gens = np.stack([g.table for g in gens])
    pack = 1 << np.arange(2 * n) * (2 * n + 2)  # a row of 2n entries of 2n + 2 bits, as one int
    level = CliffordTableau.identity(n).table[None, 1 << np.arange(2 * n)[::-1]]
    levels, seen = [level], level @ pack
    while len(level):
        cand = _compose(level, gens).swapaxes(0, 1).reshape(-1, 2 * n)
        # the members' keys first, so each has its own first occurrence and
        # the rest, in candidate order, are the new members
        keys = np.concatenate([seen, cand @ pack])
        first = np.sort(np.unique(keys, return_index=True)[1])
        level, seen = cand[first[len(seen):] - len(seen)], keys[first]
        levels.append(level)
    return [CliffordTableau._of(n, t) for t in _image_table(n, np.concatenate(levels))]
