import numpy as np
import pytest

from nmrqip.clifford import CliffordTableau
from nmrqip.control import rotation
from nmrqip.qop import PAULIS, PauliString, embed


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (Wishart construction)."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def all_pauli_words(n: int) -> list:
    """All 4^n Pauli words on n qubits, identity first, lexicographic in IXYZ:
    the word enumeration the tests' word-built oracles use."""
    words = [""]
    for _ in range(n):
        words = [w + c for w in words for c in "IXYZ"]
    return words


# ---------------------------------------------------------------------------
# Clifford oracles built independently of the tableau rows in nmrqip.clifford


def dense_gate(name: str) -> np.ndarray:
    """2x2 or 4x4 matrix of a named gate (H, S, X, Y, Z, I, CNOT)."""
    if name == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    if name == "S":
        return np.diag([1, 1j]).astype(complex)
    if name in PAULIS:
        return PAULIS[name]
    if name == "CNOT":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    raise ValueError(f"unknown gate {name!r}")


def circuit_unitary(gates, n: int) -> np.ndarray:
    """Dense unitary of a [(name, qubits)] gate list, first gate first, each
    gate's matrix placed with embed."""
    u = np.eye(2**n, dtype=complex)
    for name, qubits in gates:
        u = embed(dense_gate(name), qubits, n) @ u
    return u


def all_1q_cliffords() -> list:
    """The 24 single-qubit Clifford tableaux from their signed X and Z images:
    X image X, -X, Y, -Y, Z, -Z, then Z image +-X, +-Y, +-Z, skipping the X
    image's Pauli."""
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


def rotation_unitaries() -> np.ndarray:
    """The +pi/2, -pi/2 and pi rotations about x, y and z, in that order, as
    dense exp(-i angle sigma / 2) matrices."""
    return np.array([rotation(ax, angle) for ax in "xyz"
                     for angle in (np.pi / 2, -np.pi / 2, np.pi)])
