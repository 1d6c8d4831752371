"""One-clean-qubit trace estimation against direct trace computation."""

import numpy as np
import pytest
from scipy.linalg import block_diag

from nmrqip import cli
from nmrqip.experiments import dqc1
from nmrqip.experiments.dqc1 import (
    Dqc1Instance,
    block_trace_direct,
    control_target_ppt,
    dqc1_block_trace,
    dqc1_input_state,
    dqc1_trace,
)
from nmrqip.qop import haar_random_unitary, partial_trace


def test_exact_mode_matches_trace(rng):
    for n in (1, 2, 3):
        for eps in (1.0, 0.5, 0.1):
            u = haar_random_unitary(2**n, rng)
            got = dqc1_trace(Dqc1Instance(u, epsilon=eps))
            want = np.trace(u) / 2**n
            assert abs(got - want) < 1e-12


def test_control_reduced_state_formula(rng):
    u = haar_random_unitary(4, rng)
    inst = Dqc1Instance(u, epsilon=0.7)
    red = partial_trace(dqc1._run_circuit(dqc1_input_state(inst), u), [1])
    # off-diagonal holds eps Tr(U)/2^{n+1}; conjugate goes above the diagonal
    assert red[1, 0] == pytest.approx(0.7 * np.trace(u) / 8, abs=1e-12)
    assert np.trace(red) == pytest.approx(1.0)


def test_circuit_never_entangles_control(rng):
    for eps in (1.0, 0.3):
        u = haar_random_unitary(4, rng)
        assert control_target_ppt(Dqc1Instance(u, epsilon=eps)) >= -1e-12


def test_sampled_mode_converges(rng):
    u = haar_random_unitary(4, rng)
    want = np.trace(u) / 4
    errs = []
    for shots in (100, 10000):
        vals = [dqc1_trace(Dqc1Instance(u, epsilon=1.0, shots=shots), rng)
                for _ in range(30)]
        errs.append(np.sqrt(np.mean([abs(v - want) ** 2 for v in vals])))
    assert errs[1] < errs[0] / 3  # ~1/sqrt(shots)
    with pytest.raises(ValueError, match="rng"):
        dqc1_trace(Dqc1Instance(u, shots=100))


def test_instance_validation(rng):
    u = haar_random_unitary(2, rng)
    with pytest.raises(ValueError):
        Dqc1Instance(u, epsilon=0.0)
    with pytest.raises(ValueError):
        Dqc1Instance(u, epsilon=1.5)
    with pytest.raises(ValueError):
        Dqc1Instance(u, shots=0)
    with pytest.raises(ValueError):
        Dqc1Instance(np.ones((2, 2)))  # not unitary


def test_block_trace_matches_direct(rng):
    for eps2 in (1.0, 0.6):
        u = block_diag(haar_random_unitary(4, rng), haar_random_unitary(4, rng))
        theta = rng.uniform(0, np.pi / 2)
        got = dqc1_block_trace(u, theta=theta, epsilon2=eps2)
        want = block_trace_direct(u, theta=theta, epsilon2=eps2)
        assert abs(got - want) < 1e-12


def test_block_trace_weights(rng):
    u0, u1 = haar_random_unitary(2, rng), haar_random_unitary(2, rng)
    u = block_diag(u0, u1)
    # theta = 0 selects block 0 alone at full polarization
    got = dqc1_block_trace(u, theta=0.0)
    assert abs(got - np.trace(u0) / 2) < 1e-12
    # eps2 = 1, generic theta: cos^2/sin^2 split
    th = 0.7
    want = (np.cos(th) ** 2 * np.trace(u0) + np.sin(th) ** 2 * np.trace(u1)) / 2
    assert abs(dqc1_block_trace(u, theta=th) - want) < 1e-12


def test_block_trace_rejects_bad_input(rng):
    with pytest.raises(ValueError, match="block diagonal"):
        dqc1_block_trace(haar_random_unitary(4, rng))
    with pytest.raises(ValueError, match="two qubits"):
        dqc1_block_trace(haar_random_unitary(2, rng))
    u = block_diag(haar_random_unitary(2, rng), haar_random_unitary(2, rng))
    with pytest.raises(ValueError):
        dqc1_block_trace(u, epsilon2=0.0)


@pytest.mark.parametrize("n", [2, 4])
def test_cli_block_unitary_matches_block_diag(monkeypatch, tmp_path, n):
    seen = []
    real = dqc1.dqc1_block_trace

    def spy(u, *args, **kwargs):
        seen.append(u)
        return real(u, *args, **kwargs)

    monkeypatch.setattr(dqc1, "dqc1_block_trace", spy)
    cfg = {"n": n, "theta": 0.7, "ppt": False}
    assert cli.run_experiment("dqc1", seed=11, out_dir=str(tmp_path), config_doc=cfg) == 0
    # the runner's draws: U for the plain trace, then the two blocks
    rng = np.random.default_rng(11)
    haar_random_unitary(2**n, rng)
    u0, u1 = haar_random_unitary(2 ** (n - 1), rng), haar_random_unitary(2 ** (n - 1), rng)
    assert len(seen) == 1 and np.array_equal(seen[0], block_diag(u0, u1))
