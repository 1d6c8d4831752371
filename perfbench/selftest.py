"""Self-test of the benchmark at reduced sizes.

    python3 perfbench/selftest.py

Runs the reduced `selftest` job list through both modes of run.py and checks
that every metric named in BENCHMARK.json prints with its unit, then checks
that a corrupted CSV, a wrong exit code and a traceback each count as a
failed job.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from jobs import WORKLOADS  # noqa: E402

FAILURES = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def run_main(trace: int):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "selftest", "--seed", "7", "--seconds", "1",
                         "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def check_metrics(trace: int, declared: list) -> None:
    code, lines, result = run_main(trace)
    expect(code == 0, f"trace {trace}: run.py exits 0")
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"trace {trace}: result has exactly correct/attempted/failed/metrics")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"trace {trace}: reduced jobs all pass ({result['failed']} of "
           f"{result['attempted']} failed)")
    metrics = result["metrics"]
    expect(sorted(metrics) == sorted(m["name"] for m in declared),
           f"trace {trace}: metrics are exactly the {len(declared)} declared names")
    for m in declared:
        got = metrics.get(m["name"], {})
        shown = any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                    for line in lines[:-1])
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)) \
                or not shown:
            expect(False, f"trace {trace}: {m['name']} prints with unit {m['unit']}")
    if trace == 0:
        for m in declared:
            if not metrics[m["name"]]["value"] > 0:
                expect(False, f"end-to-end metric {m['name']} is positive")


def check_failures_counted() -> None:
    jobs = {j.name: j for j in WORKLOADS["selftest"]()}
    deadline = run.Deadline(120)
    out_root = run.WORK / "out" / "selftest" / "failures"
    out_root.mkdir(parents=True, exist_ok=True)
    store = run.CsvStore("selftest-failures", 7)
    good = jobs["spectrum-chloroform2"]
    (first,) = run.run_pass([good], 7, out_root, store, deadline)
    expect(not first["run_problems"] and not first["output_problems"],
           "a clean reduced job passes its checks")

    csv_path = out_root / good.name / "fid.csv"
    raw = csv_path.read_bytes()
    csv_path.write_bytes(raw.replace(b"e-", b"e+", 1) if b"e-" in raw else raw + b"0")
    corrupted = run.finish_job(good, str(out_root / good.name), 0, "", store, {})
    tally = run.tally([corrupted])
    expect(tally["failed"] == 1 and not tally["correct"],
           f"a corrupted CSV counts as failed: {corrupted['output_problems']}")

    csv_path.write_bytes(raw)
    wrong_exit = run.finish_job(good, str(out_root / good.name), 3, "", store, {})
    expect(run.tally([wrong_exit])["failed"] == 1,
           f"a wrong exit code counts as failed: {wrong_exit['run_problems']}")

    crashed = run.finish_job(good, str(out_root / good.name), 0,
                             "Traceback (most recent call last):\n  ValueError: boom\n",
                             store, {})
    expect(run.tally([crashed])["failed"] == 1,
           f"a traceback counts as failed: {crashed['run_problems']}")

    # an ensemble-style job that is expected to stop short (exit 3) but is
    # given a reachable target exits 0 in a real child
    budget = jobs["grape-chloroform2"]
    reachable = replace(budget, config={**budget.config, "target_fidelity": 1e-6})
    (result,) = run.run_pass([reachable], 7, out_root, store, deadline)
    expect(result["exit"] == 0 and result["run_problems"],
           f"a real child with the wrong exit code is caught: {result['run_problems']}")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.WORK = run.ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(run.WORK, ignore_errors=True)
    check_metrics(0, bench["end_to_end"])
    check_metrics(1, bench["per_layer"])
    check_failures_counted()
    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
