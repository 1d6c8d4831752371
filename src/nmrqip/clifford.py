"""Clifford tableaux: symbolic Pauli conjugation, gate lists, dense conversion.

A tableau on n qubits is one read-only int64 table of 4^n entries: entry
x << n | z holds x' << (n + 2) | z' << 2 | k when C X^x Z^z C^dag =
i^k X^x' Z^z', with qubit 1 the most significant bit and k mod 4, the
encoding of nmrqip.qop.PauliString.  It is built once from the images of
X_1..X_n and Z_1..Z_n, one key bit at a time, and every later operation is
a gather: conjugate reads an entry, then looks one table's image keys up in
the other, and inverse scatters each entry back to its key.  Only images()
and unitaries() decode entries, and rows, the generator images, is read
through images().  The public constructor, from images, checks that they
are Hermitian and pair symplectically; the others are valid by construction.

Each named gate (H, S, X, Y, Z, I, CNOT) is defined once, by its rows in
gate_tableau, and circuit_tableau composes gate lists; a dense gate is
to_unitary() of its tableau, in the phase convention below.

Dense conversion is exact and works on stacks.  unitaries(tableaux) takes
U|0> from the rank-one projector P = prod_i (I + Z'_i)/2 of the Z images
(Aaronson and Gottesman, quant-ph/0406196): column j of P over sqrt(P_jj),
at the first largest diagonal entry j, so the first nonzero entry of column
0 is real positive.  Column x applies the X images of x's set bits, and
each entry is 0, +-c or +-ic for one c; to_unitary is the one-element
case.  clifford_group(n) lists the Cliffords on n <= 2.
"""

from __future__ import annotations

import numpy as np

from .qop import PauliString, pauli_matrices


class CliffordTableau:
    """A Clifford's image of every Pauli key x << n | z, as the read-only
    int64 table described in the module docstring; compares and hashes by
    the table's bytes."""

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
        self.n = n
        self.table = _image_table(n, [(p.x, p.z, p.k) for p in (*x_images, *z_images)])
        self.table.setflags(write=False)

    @classmethod
    def _of(cls, n: int, table: np.ndarray) -> "CliffordTableau":
        t = object.__new__(cls)
        table.setflags(write=False)
        t.n, t.table = n, table
        return t

    def __eq__(self, other):
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return self.table.tobytes() == other.table.tobytes()

    def __hash__(self):
        return hash(self.table.tobytes())

    def __repr__(self):
        return f"CliffordTableau({self.n}, rows={self.rows})"

    @property
    def rows(self) -> tuple:
        """(x, z, k) images of X_1..X_n, then Z_1..Z_n."""
        return tuple(map(tuple, self.images(1 << np.arange(2 * self.n)[::-1]).tolist()))

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "CliffordTableau":
        return cls._of(n, np.arange(4**n, dtype=np.int64) << 2)

    # -- algebra ------------------------------------------------------------

    def images(self, keys, k=0) -> np.ndarray:
        """(m, 3) rows (x, z, k) of C i^k X^x Z^z C^dag for m Pauli keys
        x << n | z and phases k; (3,) for one key."""
        return _decode(self.n, self.table[keys], k)

    def conjugate(self, p: PauliString) -> PauliString:
        """C p C^dag."""
        if p.n != self.n:
            raise ValueError("length mismatch")
        return PauliString.from_bits(self.n, *self.images(p.x << self.n | p.z, p.k).tolist())

    def then(self, other: "CliffordTableau") -> "CliffordTableau":
        """Tableau of (other . self) as a unitary product: self acts first."""
        t = other.table[self.table >> 2]
        return CliffordTableau._of(self.n, t & ~3 | (t + self.table) & 3)

    def inverse(self) -> "CliffordTableau":
        """Tableau of C^dag: C P_a C^dag = i^k P_b gives C^dag P_b C = i^-k P_a."""
        out = np.empty_like(self.table)
        out[self.table >> 2] = np.arange(4**self.n) << 2 | -self.table & 3
        return CliffordTableau._of(self.n, out)

    # -- dense --------------------------------------------------------------

    def to_unitary(self) -> np.ndarray:
        """Exact dense unitary realizing the tableau (see unitaries)."""
        return unitaries([self])[0]


def _image_table(n: int, rows) -> np.ndarray:
    """Table of the Clifford with generator images rows, X_1..X_n then
    Z_1..Z_n: key bit s selects row 2n - 1 - s, and each key with top bit s
    maps to that row times the image of the key below it."""
    table = np.zeros(1, dtype=np.int64)
    for x, z, k in reversed(rows):
        # (i^k X^x Z^z)(i^k' X^x' Z^z'): moving Z^z past X^x' signs it
        phase = k + table + 2 * np.bitwise_count(z & table >> (n + 2))
        table = np.concatenate([table, (x << (n + 2) | z << 2) ^ table & ~3 | phase & 3])
    return table


def _decode(n: int, entries, k=0) -> np.ndarray:
    """(m, 3) rows (x, z, k) of m table entries, each phase raised by k; (3,)
    of one entry."""
    return np.array([entries >> (n + 2), entries >> 2 & (1 << n) - 1, (entries + k) & 3]).T


def unitaries(tableaux) -> np.ndarray:
    """(m, d, d) stack of the unitaries of m tableaux on one n, built from the
    projector of the Z images as the module docstring describes."""
    (n,) = {t.n for t in tableaux}  # ValueError unless exactly one n
    m, d = len(tableaux), 2**n
    gens = np.stack([t.table for t in tableaux])[:, 1 << np.arange(2 * n)[::-1]]  # generator rows
    mats = pauli_matrices(n, _decode(n, gens.ravel())).reshape(m, 2, n, d, d)
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

# (x, z, k) rows of the images of X and Z under a one-qubit gate, on one bit
_GATES_1Q = {
    "H": ((0, 1, 0), (1, 0, 0)),
    "S": ((1, 1, 1), (0, 1, 0)),
    "X": ((1, 0, 0), (0, 1, 2)),
    "Y": ((1, 0, 2), (0, 1, 2)),
    "Z": ((1, 0, 2), (0, 1, 0)),
    "I": ((1, 0, 0), (0, 1, 0)),
}


def gate_tableau(name: str, qubits, n: int) -> CliffordTableau:
    """Tableau of a named gate (H, S, X, Y, Z, I, CNOT) on 1-based qubits."""
    qubits = tuple(qubits)
    if not all(1 <= q <= n for q in qubits):
        raise ValueError(f"qubits {qubits} outside 1..{n}")
    rows = list(CliffordTableau.identity(n).rows)
    if name in _GATES_1Q:
        (q,) = qubits
        s = n - q
        (xx, xz, xk), (zx, zz, zk) = _GATES_1Q[name]
        rows[q - 1] = (xx << s, xz << s, xk)
        rows[n + q - 1] = (zx << s, zz << s, zk)
    elif name == "CNOT":
        c, t = qubits
        if c == t:
            raise ValueError(f"CNOT control and target are both qubit {c}")
        both = 1 << (n - c) | 1 << (n - t)
        rows[c - 1] = (both, 0, 0)  # X_c -> X_c X_t
        rows[n + t - 1] = (0, both, 0)  # Z_t -> Z_c Z_t
    else:
        raise ValueError(f"unknown gate {name!r}")
    return CliffordTableau._of(n, _image_table(n, rows))


def circuit_tableau(gates, n: int) -> CliffordTableau:
    """Compose a [(name, qubits)] gate list, first gate first."""
    t = CliffordTableau.identity(n)
    for name, qubits in gates:
        t = t.then(gate_tableau(name, qubits, n))
    return t


def clifford_group(n: int) -> list:
    """The 24 (n = 1) or 11520 (n = 2) Clifford tableaux, the identity first,
    closed breadth first under H_q, S_q and neighbour CNOTs both ways: each
    member is composed with every generator in one gather, as then does."""
    if not 1 <= n <= 2:
        raise ValueError(f"clifford_group takes n = 1 or 2 (n = 3 has 92897280 elements), not {n}")
    gens = [gate_tableau(g, (q,), n) for g in "HS" for q in range(1, n + 1)]
    gens += [gate_tableau("CNOT", pair, n) for pair in ((1, 2), (2, 1)) if n == 2]
    gens = np.stack([g.table for g in gens])
    out = [CliffordTableau.identity(n)]
    seen = set(out)
    for tab in out:  # out grows while it is read: breadth first
        t = gens[:, tab.table >> 2]
        for row in t & ~3 | (t + tab.table) & 3:
            if (nxt := CliffordTableau._of(n, row)) not in seen:
                nxt = CliffordTableau._of(n, row.copy())  # not a view of the whole batch
                seen.add(nxt)
                out.append(nxt)
    return out
