"""Clifford tableaux: symbolic Pauli conjugation, synthesis, dense conversion.

A tableau stores the signed Pauli images of the X_i and Z_i generators.
Conjugation of arbitrary Pauli strings, composition, inversion, and exact
dense reconstruction all follow from those images; the first three are
integer operations on the images' symplectic bits (see nmrqip.qop).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qop import PauliString, all_pauli_words, n_qubits, pauli_dense


@dataclass(frozen=True)
class CliffordTableau:
    """Images of the X_i and Z_i Pauli generators under conjugation."""

    n: int
    x_images: tuple
    z_images: tuple

    def __post_init__(self):
        if len(self.x_images) != self.n or len(self.z_images) != self.n:
            raise ValueError("need one image per generator")
        for img in (*self.x_images, *self.z_images):
            if img.n != self.n:
                raise ValueError("image length mismatch")
            if img.phase not in (1 + 0j, -1 + 0j):
                raise ValueError("generator images must be Hermitian (phase +-1)")
        for i in range(self.n):
            for j in range(self.n):
                xc = self.x_images[i].commutes(self.x_images[j])
                zc = self.z_images[i].commutes(self.z_images[j])
                cross = self.x_images[i].commutes(self.z_images[j])
                if not (xc and zc):
                    raise ValueError("images break generator commutation")
                if cross != (i != j):
                    raise ValueError("images break symplectic pairing")

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "CliffordTableau":
        xs = tuple(PauliString.from_bits(n, 1 << (n - 1 - i), 0) for i in range(n))
        zs = tuple(PauliString.from_bits(n, 0, 1 << (n - 1 - i)) for i in range(n))
        return cls(n, xs, zs)

    @classmethod
    def from_unitary(cls, u: np.ndarray) -> "CliffordTableau":
        """Dense-to-tableau conversion; raises if u is not Clifford."""
        u = np.asarray(u, dtype=complex)
        n = n_qubits(u.shape[0])
        xs, zs = [], []
        for i in range(n):
            for letter, out in (("X", xs), ("Z", zs)):
                word = "I" * i + letter + "I" * (n - i - 1)
                m = u @ pauli_dense(word) @ u.conj().T
                out.append(_dense_to_pauli(m, n))
        return cls(n, tuple(xs), tuple(zs))

    # -- algebra ------------------------------------------------------------

    def conjugate(self, p: PauliString) -> PauliString:
        """C p C^dag for p = i^k X^x Z^z: i^k times the images of the set x
        bits, then the images of the set z bits."""
        if p.n != self.n:
            raise ValueError("length mismatch")
        n = self.n
        out = PauliString.from_bits(n, 0, 0, p.k)
        bits = p.x << n | p.z  # the x bits, then the z bits, qubit 1 first
        for s, img in zip(range(2 * n - 1, -1, -1), self.x_images + self.z_images):
            if bits >> s & 1:
                out = out * img
        return out

    def then(self, other: "CliffordTableau") -> "CliffordTableau":
        """Tableau of (other . self) as a unitary product: self acts first."""
        xs = tuple(other.conjugate(img) for img in self.x_images)
        zs = tuple(other.conjugate(img) for img in self.z_images)
        return CliffordTableau(self.n, xs, zs)

    def inverse(self) -> "CliffordTableau":
        """Tableau of C^dag.

        With the generator images' (x, z) bits as the rows of the symplectic
        matrix M, the inverse's bit matrix is Omega M^T Omega, where
        Omega = [[0, I], [I, 0]]: the image of X_i collects bit i of the Z
        parts, the image of Z_i bit i of the X parts.
        """
        n = self.n
        xx = [img.x for img in self.x_images]
        xz = [img.z for img in self.x_images]
        zx = [img.x for img in self.z_images]
        zz = [img.z for img in self.z_images]
        xs, zs = [], []
        for i in range(n):
            b = n - 1 - i
            for x, z, out in ((_column(zz, b), _column(xz, b), xs),
                              (_column(zx, b), _column(xx, b), zs)):
                fwd = self.conjugate(PauliString.from_bits(n, x, z))
                # fwd must be +-(X_i or Z_i); fold the sign back in
                out.append(PauliString.from_bits(n, x, z, (x & z).bit_count() + fwd.k))
        return CliffordTableau(n, tuple(xs), tuple(zs))

    # -- dense --------------------------------------------------------------

    def to_unitary(self) -> np.ndarray:
        """Exact dense unitary realizing the tableau (deterministic phase)."""
        n, d = self.n, 2**self.n
        rng = np.random.default_rng(12345)  # fixed: only used to seed a projector
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        for img in self.z_images:
            psi = psi + img.dense() @ psi
            nrm = np.linalg.norm(psi)
            if nrm < 1e-9:  # unlucky projection; restart deterministically shifted
                psi = rng.normal(size=d) + 1j * rng.normal(size=d)
                for img2 in self.z_images:
                    psi = psi + img2.dense() @ psi
                nrm = np.linalg.norm(psi)
            psi = psi / nrm
        k = int(np.argmax(np.abs(psi)))
        psi = psi * (np.abs(psi[k]) / psi[k])
        xd = [img.dense() for img in self.x_images]
        u = np.zeros((d, d), dtype=complex)
        for x in range(d):
            col = psi
            for q in range(n):
                if (x >> (n - 1 - q)) & 1:
                    col = xd[q] @ col
            u[:, x] = col
        return u

    def decompose(self):
        """Gate list [(name, qubits)] over {H, S, CNOT, X, Z} realizing the
        tableau up to global phase, first gate first."""
        rec = []  # gates applied after the target, reducing it to identity
        cur = self

        def hit(name, *qubits):
            nonlocal cur
            cur = cur.then(gate_tableau(name, qubits, self.n))
            rec.append((name, qubits))

        n = self.n
        for i in range(n):
            xi = cur.x_images[i]
            # stage A: some qubit j >= i must carry X or Y (symplecticity)
            j = next((q for q in range(i, n) if xi.word[q] in "XY"), None)
            if j is None:
                j = next(q for q in range(i, n) if xi.word[q] == "Z")
                hit("H", j + 1)
            if j != i:
                hit("CNOT", i + 1, j + 1)
                hit("CNOT", j + 1, i + 1)
                hit("CNOT", i + 1, j + 1)
            xi = cur.x_images[i]
            if xi.word[i] == "Y":
                hit("S", i + 1)
                xi = cur.x_images[i]
            # stage B: clear the X-image on every other qubit
            for q in range(n):
                if q == i:
                    continue
                letter = cur.x_images[i].word[q]
                if letter == "Y":
                    hit("S", q + 1)
                    letter = "X"
                if letter == "Z":
                    hit("H", q + 1)
                    letter = "X"
                if letter == "X":
                    hit("CNOT", i + 1, q + 1)
            # stage C: z image carries Z or Y at qubit i; normalize to Z
            if cur.z_images[i].word[i] == "Y":
                hit("H", i + 1)
                hit("S", i + 1)
                hit("H", i + 1)
            for q in range(n):
                if q == i:
                    continue
                letter = cur.z_images[i].word[q]
                if letter == "Y":
                    hit("S", q + 1)
                    letter = "X"
                if letter == "X":
                    hit("H", q + 1)
                    letter = "Z"
                if letter == "Z":
                    hit("CNOT", q + 1, i + 1)
        for i in range(n):
            if cur.x_images[i].phase == -1:
                hit("Z", i + 1)
            if cur.z_images[i].phase == -1:
                hit("X", i + 1)
        ident = CliffordTableau.identity(n)
        if cur != ident:
            raise RuntimeError("synthesis failed to reduce tableau")
        # cur = rec_k ... rec_1 . self = I  =>  self = rec_1^dag ... rec_k^dag
        out = []
        for name, qubits in reversed(rec):
            if name == "S":
                out.extend([("S", qubits)] * 3)  # S^3 = S^dag up to phase
            else:
                out.append((name, qubits))
        return out


def _dense_to_pauli(m: np.ndarray, n: int) -> PauliString:
    d = 2**n
    best = None
    for word in all_pauli_words(n):
        c = np.trace(pauli_dense(word).conj().T @ m) / d
        if abs(c) > 0.5:
            best = (word, complex(c))
            break
    if best is None:
        raise ValueError("matrix is not a signed Pauli string (not Clifford?)")
    word, c = best
    if abs(abs(c) - 1) > 1e-9:
        raise ValueError("matrix is not a signed Pauli string (not Clifford?)")
    return PauliString(word, c / abs(c))


def _column(masks, b: int) -> int:
    """Mask whose qubit-j bit is bit b of masks[j] (qubit 1 most significant)."""
    n = len(masks)
    return sum((m >> b & 1) << (n - 1 - j) for j, m in enumerate(masks))


# ---------------------------------------------------------------------------
# named gates and the single-qubit group

_GATES_1Q = {
    "H": ("Z", 1, "X", 1),
    "S": ("Y", 1, "Z", 1),
    "X": ("X", 1, "Z", -1),
    "Y": ("X", -1, "Z", -1),
    "Z": ("X", -1, "Z", 1),
    "I": ("X", 1, "Z", 1),
}


def gate_tableau(name: str, qubits, n: int) -> CliffordTableau:
    """Tableau of a named gate (H, S, X, Y, Z, I, CNOT) on 1-based qubits."""
    qubits = tuple(qubits)
    base = CliffordTableau.identity(n)
    xs, zs = list(base.x_images), list(base.z_images)

    def put(word_map: dict):
        for (kind, idx), img in word_map.items():
            (xs if kind == "x" else zs)[idx - 1] = img

    if name in _GATES_1Q:
        (q,) = qubits
        xw, xs_sign, zw, zs_sign = _GATES_1Q[name]
        put({
            ("x", q): PauliString("I" * (q - 1) + xw + "I" * (n - q), xs_sign),
            ("z", q): PauliString("I" * (q - 1) + zw + "I" * (n - q), zs_sign),
        })
    elif name == "CNOT":
        c, t = qubits
        put({
            ("x", c): _word_at(n, {c: "X", t: "X"}),
            ("z", t): _word_at(n, {c: "Z", t: "Z"}),
        })
    else:
        raise ValueError(f"unknown gate {name!r}")
    return CliffordTableau(n, tuple(xs), tuple(zs))


def _word_at(n: int, letters: dict, phase=1) -> PauliString:
    chars = ["I"] * n
    for q, c in letters.items():
        chars[q - 1] = c
    return PauliString("".join(chars), phase)


def circuit_tableau(gates, n: int) -> CliffordTableau:
    """Compose a [(name, qubits)] gate list, first gate first."""
    t = CliffordTableau.identity(n)
    for name, qubits in gates:
        t = t.then(gate_tableau(name, qubits, n))
    return t


def circuit_unitary(gates, n: int) -> np.ndarray:
    """Dense unitary of a gate list using exact per-gate matrices."""
    from .qop import embed

    u = np.eye(2**n, dtype=complex)
    for name, qubits in gates:
        u = embed(_dense_gate(name), qubits, n) @ u
    return u


def _dense_gate(name: str) -> np.ndarray:
    if name == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    if name == "S":
        return np.diag([1, 1j]).astype(complex)
    if name in ("X", "Y", "Z", "I"):
        return pauli_dense(name)
    if name == "CNOT":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    raise ValueError(f"unknown gate {name!r}")


def all_1q_cliffords():
    """The 24 single-qubit Clifford tableaux, fixed enumeration order."""
    out = []
    for xw in "XYZ":
        for xsign in (1, -1):
            for zw in "XYZ":
                if zw == xw:
                    continue
                for zsign in (1, -1):
                    xi = PauliString(xw, xsign)
                    zi = PauliString(zw, zsign)
                    out.append(CliffordTableau(1, (xi,), (zi,)))
    assert len(out) == 24
    return out


_C1 = None


def sample_1q_clifford(rng: np.random.Generator) -> CliffordTableau:
    """Uniform draw from the 24 single-qubit Cliffords."""
    global _C1
    if _C1 is None:
        _C1 = all_1q_cliffords()
    return _C1[rng.integers(24)]
