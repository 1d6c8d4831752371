"""Release gate: every pinned criterion must pass at its stated tolerance.

Each case prints one PASS/FAIL line so a verbose run reads like the
`nmrqip repro` table.  Failures carry the measured and expected values.
"""

import numpy as np
import pytest

from nmrqip import acceptance, cli


@pytest.mark.parametrize("name", list(acceptance.CRITERIA))
def test_criterion(name):
    res = acceptance.run_criterion(name, base_seed=0)
    status = "PASS" if res.passed else "FAIL"
    print(f"{name}: {status}  measured {res.measured}  expected {res.expected}")
    assert res.passed, f"{name}: measured {res.measured}, expected {res.expected}"


def test_criteria_registry_complete():
    assert len(acceptance.CRITERIA) == 15
    assert all(isinstance(k, str) and k for k in acceptance.CRITERIA)


class RunnerCalled(Exception):
    """Raised by a stand-in runner, so a criterion that calls it stops there."""


@pytest.mark.parametrize("criterion, experiment", [
    ("grape-cnot", "grape"),
    ("twirl-memory", "twirl"),
    ("certify-clifford", "certify"),
    ("randomized-benchmarking", "rb"),
    ("qec-codes", "qec"),
    ("magic-distillation", "distill"),
    ("contextuality", "contextuality"),
    ("weak-values", "weak"),
    ("ising-ground", "ising"),
    ("xxz-ge", "xxz"),
    ("state-transfer", "transfer"),
])
def test_criterion_checks_the_cli_runner(monkeypatch, criterion, experiment):
    # the criterion gates the run `nmrqip <experiment>` makes: it reaches the
    # runner registered in cli.EXPERIMENTS, not a copy of its assembly
    def runner(cfg, seed, shots):
        raise RunnerCalled(experiment)

    monkeypatch.setitem(cli.EXPERIMENTS, experiment, runner)
    with pytest.raises(RunnerCalled):
        acceptance.run_criterion(criterion)


def test_certify_decodes_each_block_with_one_compose(monkeypatch):
    # the exhaustive check reads a block's images of every Pauli in one
    # compose call, 1 block at n = 1 and 45 at n = 2, each equal row by
    # row to the per-table images
    calls = []
    real = acceptance.compose

    def block_compose(entries, block):
        got = real(entries, block)
        calls.append(len(block))
        assert np.array_equal(got, [real(entries, t) for t in block])
        return got

    monkeypatch.setattr(acceptance, "compose", block_compose)
    res = acceptance.run_criterion("certify-clifford", base_seed=0)
    assert res.passed and res.details["conjugations_checked"] == 172872
    assert calls == [24] + [256] * 45
