"""Clifford tableaux: symbolic Pauli conjugation, gate lists, dense conversion.

A tableau on n qubits stores 2n rows: rows 0..n-1 are the images of
X_1..X_n under conjugation, rows n..2n-1 those of Z_1..Z_n.  Each row is an
int triple (x, z, k) meaning i^k X^x Z^z, with qubit 1 the most significant
bit and k reduced mod 4, the encoding of nmrqip.qop.PauliString.  The public
constructor, from images, checks that they are Hermitian and pair
symplectically; identity, gate_tableau, then and inverse build valid rows by
construction and skip the check.  Conjugation, composition and inversion are
integer operations on the rows.

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
    """Images of the X_i and Z_i Pauli generators under conjugation, as
    (x, z, k) rows; compares and hashes by (n, rows)."""

    __slots__ = ("n", "rows")

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
        self.rows = tuple((p.x, p.z, p.k) for p in (*x_images, *z_images))

    @classmethod
    def _from_rows(cls, n: int, rows: tuple) -> "CliffordTableau":
        t = object.__new__(cls)
        t.n, t.rows = n, rows
        return t

    def __eq__(self, other):
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return (self.n, self.rows) == (other.n, other.rows)

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"CliffordTableau({self.n}, rows={self.rows})"

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "CliffordTableau":
        rows = [(1 << (n - 1 - i), 0, 0) for i in range(n)]
        return cls._from_rows(n, tuple(rows + [(0, x, 0) for x, _, _ in rows]))

    # -- algebra ------------------------------------------------------------

    def _image(self, x: int, z: int, k: int) -> tuple:
        """(x, z, k) of C i^k X^x Z^z C^dag: i^k times the rows of the set x
        bits, then those of the set z bits, qubit 1 first."""
        rows, top = self.rows, 2 * self.n - 1
        bits = x << self.n | z
        x = z = 0
        while bits:
            s = bits.bit_length() - 1
            bits ^= 1 << s
            rx, rz, rk = rows[top - s]
            # (i^k X^x Z^z)(i^rk X^rx Z^rz): moving Z^z past X^rx signs it
            k += rk + 2 * (z & rx).bit_count()
            x ^= rx
            z ^= rz
        return x, z, k % 4

    def conjugate(self, p: PauliString) -> PauliString:
        """C p C^dag."""
        if p.n != self.n:
            raise ValueError("length mismatch")
        return PauliString.from_bits(self.n, *self._image(p.x, p.z, p.k))

    def then(self, other: "CliffordTableau") -> "CliffordTableau":
        """Tableau of (other . self) as a unitary product: self acts first."""
        image = other._image
        return CliffordTableau._from_rows(self.n, tuple(image(*r) for r in self.rows))

    def inverse(self) -> "CliffordTableau":
        """Tableau of C^dag.

        With the rows' (x, z) bits as the rows of the symplectic matrix M,
        the inverse's bit matrix is Omega M^T Omega, where
        Omega = [[0, I], [I, 0]]: the image of X_i collects bit i of the Z
        parts, the image of Z_i bit i of the X parts.
        """
        n, rows = self.n, self.rows
        out = []
        for part in (1, 0):  # z parts for the X_i images, x parts for the Z_i
            for i in range(n):
                b = n - 1 - i
                x = z = 0
                for j in range(n):
                    x = x << 1 | rows[n + j][part] >> b & 1
                    z = z << 1 | rows[j][part] >> b & 1
                k = (x & z).bit_count()
                # C maps this +1-phase Pauli to +-(X_i or Z_i); fold the sign back in
                out.append((x, z, (k + self._image(x, z, k)[2]) % 4))
        return CliffordTableau._from_rows(n, tuple(out))

    # -- dense --------------------------------------------------------------

    def to_unitary(self) -> np.ndarray:
        """Exact dense unitary realizing the tableau (see unitaries)."""
        return unitaries([self])[0]


def unitaries(tableaux) -> np.ndarray:
    """(m, d, d) stack of the unitaries of m tableaux on one n, built from the
    projector of the Z images as the module docstring describes."""
    (n,) = {t.n for t in tableaux}  # ValueError unless exactly one n
    m, d = len(tableaux), 2**n
    mats = pauli_matrices(n, [r for t in tableaux for r in t.rows]).reshape(m, 2, n, d, d)
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
    return CliffordTableau._from_rows(n, tuple(rows))


def circuit_tableau(gates, n: int) -> CliffordTableau:
    """Compose a [(name, qubits)] gate list, first gate first."""
    t = CliffordTableau.identity(n)
    for name, qubits in gates:
        t = t.then(gate_tableau(name, qubits, n))
    return t


def clifford_group(n: int) -> list:
    """The 24 (n = 1) or 11520 (n = 2) Clifford tableaux, the identity first,
    closed breadth first under H_q, S_q and neighbour CNOTs both ways."""
    if not 1 <= n <= 2:
        raise ValueError(f"clifford_group takes n = 1 or 2 (n = 3 has 92897280 elements), not {n}")
    gens = [gate_tableau(g, (q,), n) for g in "HS" for q in range(1, n + 1)]
    gens += [gate_tableau("CNOT", pair, n) for pair in ((1, 2), (2, 1)) if n == 2]
    out = [CliffordTableau.identity(n)]
    seen = set(out)
    for tab in out:  # out grows while it is read: breadth first
        for gen in gens:
            nxt = tab.then(gen)
            if nxt not in seen:
                seen.add(nxt)
                out.append(nxt)
    return out
