"""Workload job lists and the output checks for each job.

A workload is a fixed list of `nmrqip <experiment>` jobs; every job runs with
the benchmark seed.  Each job carries the check that decides whether its
outputs are right, so the same checks serve the subprocess runs and the
in-process traced runs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable

TRACEBACK_MARK = "Traceback (most recent call last)"


@dataclass(frozen=True)
class Job:
    """One `nmrqip <experiment> --config <config> --seed <seed>` run."""

    name: str
    experiment: str
    config: dict
    check: Callable[["Job", str], list]
    expected_exit: int = 0
    # the job whose child wall time is reported as time_to_target_s
    target: bool = False
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# reading outputs


def read_csv(out_dir: str, name: str) -> list:
    with open(os.path.join(out_dir, name), newline="") as fh:
        return list(csv.DictReader(fh))


def read_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)["summary"]


def csv_digests(out_dir: str) -> dict:
    """sha256 of every CSV the job wrote, by file name."""
    out = {}
    if not os.path.isdir(out_dir):
        return out
    for fname in sorted(os.listdir(out_dir)):
        if fname.endswith(".csv"):
            with open(os.path.join(out_dir, fname), "rb") as fh:
                out[fname] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _monotone(values) -> bool:
    return all(b >= a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# checks; each returns a list of problems, empty when the outputs are right


def check_grape_to_target(job: Job, out_dir: str) -> list:
    fids = [float(r["fidelity"]) for r in read_csv(out_dir, "fidelity_trace.csv")]
    problems = []
    if not fids or fids[-1] < job.params["target_fidelity"]:
        problems.append(f"final fidelity {fids[-1] if fids else None} below target")
    if not _monotone(fids):
        problems.append("fidelity_trace.csv is not monotone")
    return problems


def check_grape_budget(job: Job, out_dir: str) -> list:
    fids = [float(r["fidelity"]) for r in read_csv(out_dir, "fidelity_trace.csv")]
    problems = []
    # row 0 is the starting pulse, then one row per accepted iteration
    if len(fids) - 1 != job.config["max_iters"]:
        problems.append(f"{len(fids) - 1} iterations, expected {job.config['max_iters']}")
    if not _monotone(fids):
        problems.append("fidelity_trace.csv is not monotone")
    return problems


def check_twirl(job: Job, out_dir: str) -> list:
    (row,) = read_csv(out_dir, "twirl.csv")
    pr0_true, pr0_hat, stderr = (float(row[k]) for k in ("pr0_true", "pr0_hat", "stderr"))
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        masses = json.load(fh)["config"]["weight_masses"]
    problems = []
    if abs(pr0_true - (1 - sum(masses.values()))) > 1e-12:
        problems.append(f"pr0_true {pr0_true} != 1 - sum(masses)")
    if job.params.get("four_sigma") and abs(pr0_hat - pr0_true) > 4 * stderr:
        problems.append(f"|pr0_hat - pr0_true| = {abs(pr0_hat - pr0_true)} > 4 stderr")
    return problems


def check_certify(job: Job, out_dir: str) -> list:
    worst = max(float(r["abs_error"]) for r in read_csv(out_dir, "certify.csv"))
    return [] if worst <= 1e-9 else [f"certify abs_error {worst} > 1e-9"]


def check_rb(job: Job, out_dir: str) -> list:
    (row,) = read_csv(out_dir, "fit.csv")
    problems = []
    if row["ok"] != "1":
        problems.append("rb fit not ok")
    if not float(row["relative_error"]) <= 0.10:
        problems.append(f"rb relative_error {row['relative_error']} > 0.10")
    return problems


def check_spectrum(job: Job, out_dir: str) -> list:
    fid = read_csv(out_dir, "fid.csv")
    spec = read_csv(out_dir, "spectrum.csv")
    e_time = sum(float(r["fid_re"]) ** 2 + float(r["fid_im"]) ** 2 for r in fid)
    e_freq = sum(float(r["power"]) for r in spec)
    problems = []
    if abs(e_time - e_freq) > 1e-12 * e_time:
        problems.append(f"Parseval gap {abs(e_time - e_freq) / e_time:.3g} > 1e-12")
    first = job.params.get("first_fid")
    if first is not None:
        got = complex(float(fid[0]["fid_re"]), float(fid[0]["fid_im"]))
        if abs(got - first) > 1e-12:
            problems.append(f"first FID sample {got} != {first}")
    return problems


def check_qec(job: Job, out_dir: str) -> list:
    rows = read_csv(out_dir, "qec.csv")
    mean_corr = sum(float(r["fidelity_corrected"]) for r in rows) / len(rows)
    demo = read_csv(out_dir, "transversal.csv")
    bad = max(int(r["target_block_weight"]) for r in demo if r["variant"] == "bad")
    good = max(int(r["target_block_weight"]) for r in demo if r["variant"] == "transversal")
    problems = []
    if abs(mean_corr - 1) > 1e-10:
        problems.append(f"mean_corrected {mean_corr} not within 1e-10 of 1")
    if bad != 3 or good > 1:
        problems.append(f"transversal weights bad={bad} transversal={good}")
    return problems


def check_transfer(job: Job, out_dir: str) -> list:
    drift = float(read_summary(out_dir)["max_excitation_drift"])
    return [] if drift <= 1e-12 else [f"max_excitation_drift {drift} > 1e-12"]


def check_xxz(job: Job, out_dir: str) -> list:
    if not os.path.isfile(os.path.join(out_dir, "features.csv")):
        return ["no features.csv"]
    return []


# ---------------------------------------------------------------------------
# workloads


def pulse_design() -> list:
    # The d = 8 single-scale CNOT runs to its target; the d = 4 three-scale
    # ensemble gets a fixed budget because its iterations to 0.999 swing
    # with the seed.
    return [
        # At the default init_scale of 0.01 the random starting pulse decides
        # between about 85 and 350 iterations to F >= 0.99, so the time would
        # measure the seed more than the code; at 0.001, 24 of 25 seeds checked
        # took 82-100 and one took 175.  max_iters only bounds the run.
        Job("grape-malonate3", "grape",
            {"molecule": "malonate3", "control_qubit": 1, "target_qubit": 2,
             "n_steps": 400, "dt_s": 2e-5, "init_scale": 0.001, "max_iters": 300},
            check_grape_to_target, target=True, params={"target_fidelity": 0.99}),
        Job("grape-chloroform2-ensemble", "grape",
            {"molecule": "chloroform2",
             "rf_distribution": [[0.97, 0.25], [1.0, 0.5], [1.03, 0.25]],
             "max_iters": 40, "target_fidelity": 0.999},
            check_grape_budget, expected_exit=3),
    ]


def pauli_twirl() -> list:
    # Working set from in-cache (n=3: 64 Kraus operators of 8x8) to far past
    # L3 (n=7: 1156 of 128x128).
    return [
        Job("twirl-n3", "twirl", {"n": 3, "delta": 0.01}, check_twirl,
            params={"four_sigma": True}),
        Job("twirl-n5", "twirl", {"n": 5, "n_samples": 150}, check_twirl,
            params={"four_sigma": True}),
        Job("twirl-n7", "twirl", {"n": 7, "n_samples": 2}, check_twirl),
    ]


def protocol_tour() -> list:
    # Many short jobs; xxz at n = 7 is the largest size its config accepts.
    return [
        Job("spectrum-chain7", "spectrum",
            {"molecule": "chain7", "state": "pps", "n_samples": 2048},
            check_spectrum, params={"first_fid": 3.5}),
        Job("spectrum-crotonic4", "spectrum",
            {"molecule": "crotonic4", "state": "thermal", "weak_coupling": False,
             "n_samples": 8192},
            check_spectrum),
        Job("rb-n5", "rb", {"n": 5, "sequences": 20}, check_rb),
        Job("certify-n3", "certify", {"n": 3, "control_qubit": 1, "target_qubit": 3},
            check_certify),
        Job("xxz-n7", "xxz", {"n": 7, "n_points": 21}, check_xxz),
        Job("qec", "qec", {}, check_qec),
        Job("transfer-n8", "transfer", {"n": 8, "iterations": 2000}, check_transfer),
    ]


def selftest() -> list:
    """Reduced sizes of most job kinds, for selftest.py; not a benchmark workload."""
    return [
        Job("grape-chloroform2", "grape",
            {"molecule": "chloroform2", "n_steps": 20, "max_iters": 3,
             "target_fidelity": 0.999},
            check_grape_budget, expected_exit=3),
        Job("twirl-n3", "twirl", {"n": 3, "n_samples": 300}, check_twirl,
            params={"four_sigma": True}),
        Job("spectrum-chloroform2", "spectrum", {"n_samples": 256}, check_spectrum,
            params={"first_fid": 1.0}),
        Job("qec-bit-flip", "qec", {"code": "bit-flip"}, check_qec),
        Job("xxz-n4", "xxz", {"n": 4, "n_points": 5, "n_restarts": 2}, check_xxz),
    ]


WORKLOADS = {
    "pulse-design": pulse_design,
    "pauli-twirl": pauli_twirl,
    "protocol-tour": protocol_tour,
    "selftest": selftest,
}


def check_outcome(job: Job, out_dir: str, exit_code: int, stderr: str):
    """(run problems, output problems) of one finished job.

    Run problems are a wrong exit code or a traceback: the job did not
    finish as it should.  Output problems mean it finished with wrong
    results; they are only looked for when the run itself was clean.
    """
    run = []
    if TRACEBACK_MARK in stderr:
        run.append("traceback on stderr")
    if exit_code != job.expected_exit:
        run.append(f"exit {exit_code}, expected {job.expected_exit}")
    if run:
        return run, []
    try:
        return [], job.check(job, out_dir)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        return [], [f"unreadable output: {exc!r}"]
