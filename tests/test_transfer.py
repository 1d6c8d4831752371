"""Relay-chain state transfer: subspace model vs the full dense Hamiltonian."""

import numpy as np
import pytest
from scipy.linalg import expm

from nmrqip.experiments.transfer import (
    TransferChain,
    dipolar_couplings,
    entangle_ends,
    one_excitation_hamiltonian,
    state_transfer,
)
from nmrqip.qop import basis_ket

from conftest import word_matrix


def dense_relay_hamiltonian(couplings, n):
    """(pi/2) sum D_jk (2 Zj Zk - Xj Xk - Yj Yk) on all 2^n dimensions."""
    ham = np.zeros((2**n, 2**n), dtype=complex)
    for j in range(n):
        for k in range(j + 1, n):
            d = couplings[j, k]
            if d == 0:
                continue
            for letter, w in (("Z", 2.0), ("X", -1.0), ("Y", -1.0)):
                word = "".join(letter if q in (j, k) else "I" for q in range(n))
                ham += (np.pi / 2) * d * w * word_matrix(word)
    return ham


def subspace_basis(n):
    """|vacuum>, then one flipped spin per site, matching the model's order."""
    kets = [basis_ket("0" * n)]
    for i in range(n):
        kets.append(basis_ket("0" * i + "1" + "0" * (n - i - 1)))
    return np.stack(kets, axis=1)


def test_one_excitation_hamiltonian_matches_dense():
    n = 4
    d = dipolar_couplings(n)
    full = dense_relay_hamiltonian(d, n)
    basis = subspace_basis(n)
    block = basis.conj().T @ full @ basis
    assert np.allclose(one_excitation_hamiltonian(d, n), block, atol=1e-12)
    # excitation number commutes with the dense Hamiltonian
    number = sum((np.eye(2**n) - word_matrix("I" * q + "Z" + "I" * (n - q - 1))) / 2
                 for q in range(n))
    assert np.abs(full @ number - number @ full).max() < 1e-12


def test_subspace_propagator_matches_dense_evolution():
    n, tau = 4, 0.37
    d = dipolar_couplings(n)
    chain = TransferChain(n, d, tau)
    basis = subspace_basis(n)
    u_full = expm(-1j * tau * dense_relay_hamiltonian(d, n))
    assert np.allclose(chain.propagator(), basis.conj().T @ u_full @ basis,
                       atol=1e-10)


def test_dipolar_couplings_shape():
    d = dipolar_couplings(5, strength=2.0)
    assert d[0, 1] == pytest.approx(2.0)
    assert d[0, 2] == pytest.approx(2.0 / 8)
    assert d[0, 3] == pytest.approx(2.0 / 27)
    assert np.all(d[4] == 0.0) and np.all(d[:, 4] == 0.0)  # sink uncoupled


def test_transfer_reaches_sink():
    chain = TransferChain(4, dipolar_couplings(4), 0.4)
    res = state_transfer(chain, iterations=100)
    assert res.fidelity >= 0.99
    assert np.all(np.diff(res.fidelities) >= -1e-12)
    assert res.max_excitation_drift <= 1e-12
    assert not res.stalled


def test_transfer_with_vacuum_component():
    chain = TransferChain(4, dipolar_couplings(4), 0.4)
    res = state_transfer(chain, iterations=120, alpha=0.6, beta=0.8)
    assert res.fidelity >= 0.99
    assert np.all(np.diff(res.fidelities) >= -1e-12)
    # vacuum keeps its weight 0.36 at every step; the tracked phase makes the
    # target reachable
    assert res.max_excitation_drift <= 1e-12
    assert res.theta == pytest.approx(chain.theta)


def test_transfer_stalls_without_couplings():
    chain = TransferChain(3, np.zeros((3, 3)), 0.4)
    res = state_transfer(chain, iterations=30)
    assert res.stalled
    assert res.fidelity == pytest.approx(0.0)


def test_chain_validation():
    d = dipolar_couplings(3)
    with pytest.raises(ValueError, match="positive"):
        TransferChain(3, d, 0.0)
    bad = d.copy()
    bad[0, 1] = 5.0
    with pytest.raises(ValueError, match="symmetric"):
        TransferChain(3, bad, 0.4)
    coupled_sink = d.copy()
    coupled_sink[0, 2] = coupled_sink[2, 0] = 1.0
    with pytest.raises(ValueError, match="sink"):
        TransferChain(3, coupled_sink, 0.4)


def test_entangle_ends_builds_bell_pair():
    chain = TransferChain(4, dipolar_couplings(4), 0.4)
    res = entangle_ends(chain, 100)
    assert res.fidelities[0] == pytest.approx(0.5)
    # fidelity 1 - eps to the Bell target puts each end's population within
    # sqrt(2 eps) of 1/2
    assert res.fidelities[-1] >= 1 - 1e-6
    assert res.extraction_residual < 1e-3
    with pytest.raises(ValueError):
        entangle_ends(chain, 0)
