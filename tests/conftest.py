import numpy as np
import pytest


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
