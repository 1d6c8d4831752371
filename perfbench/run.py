"""Benchmark of the nmrqip command line on fixed job lists.

    python3 perfbench/run.py --workload pulse-design --seed 1 --seconds 20 --trace 0

Run it from anywhere; it locates the checkout from its own path and runs the
program from `src/` there.  Each job is `python3 -m nmrqip.cli <experiment>`
in a fresh child process, one at a time (a closed loop with one client), with
BLAS/OpenMP threads pinned to 1 in the child's environment only.  Every job
gets the benchmark seed.

--trace 0 times the jobs from outside: wall clock from spawn to exit and
`os.wait4` rusage.  --trace 1 instead runs the same jobs in-process through
`cli.run_experiment`, once plain and once with every layer wrapped
(tracer.py), and reports per-layer metrics and the tracing overhead.

Both modes check every job's outputs (jobs.py) and the CSV bytes against the
first run at the same seed.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Details of the run, with the
machine probe and the environment, go to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from jobs import WORKLOADS, check_outcome, csv_digests, read_summary  # noqa: E402

# A second BLAS thread raised CPU time by about 70% on the d <= 32 jobs
# without lowering wall time on a 2-core machine.
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_REPEATS = 5
JOB_TIMEOUT_S = 150.0
RUN_BUDGET_S = 170.0  # the whole run, set-up and checks included


def unit_of(name: str) -> str:
    """Unit of a metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes") or name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("per_iteration"):
        return "evals/iter"
    if name.endswith("_dim"):
        return "dim"
    return "count"


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env.pop("NMRQIP_OUT_DIR", None)  # it would override each job's --out
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def spawn(argv, stdout_path, stderr_path, timeout: float):
    """Run one child to exit; returns (exit code, wall seconds, rusage)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def source_digest() -> str:
    """Digest of the program source, so stored CSV hashes follow the code."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


class CsvStore:
    """sha256 of each job's CSVs from the first clean run at a seed."""

    def __init__(self, workload: str, seed: int):
        self.path = WORK / "csv-sha256" / source_digest() / f"{workload}-seed{seed}.json"
        self.known = json.loads(self.path.read_text()) if self.path.is_file() else {}

    def check(self, job, digests: dict, clean: bool) -> list:
        config = json.dumps([job.experiment, job.config], sort_keys=True).encode()
        key = f"{job.name}-{hashlib.sha256(config).hexdigest()[:12]}"
        first = self.known.get(key)
        if first is None:
            if clean:
                self.known[key] = digests
            return []
        changed = sorted(f for f in set(first) | set(digests)
                         if first.get(f) != digests.get(f))
        return [f"CSV bytes differ from the first run at this seed: {changed}"] if changed else []

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def probe(tag: str, deadline: Deadline) -> dict:
    logs = WORK / "logs"
    code, _, _ = spawn([sys.executable, str(HERE / "probe.py")], logs / f"probe-{tag}.out",
                       logs / f"probe-{tag}.err", min(60.0, deadline.left()))
    if code != 0:
        return {"probe_s": None}
    return json.loads((logs / f"probe-{tag}.out").read_text().splitlines()[-1])


def measure_setup(deadline: Deadline) -> list:
    """Wall seconds of fresh `nmrqip --help` children (interpreter + import)."""
    logs = WORK / "logs"
    walls = []
    for _ in range(SETUP_REPEATS):
        code, wall, _ = spawn([sys.executable, "-m", "nmrqip.cli", "--help"],
                              logs / "setup.out", logs / "setup.err",
                              min(60.0, deadline.left()))
        if code != 0:
            raise SystemExit(f"perfbench: `nmrqip --help` exited {code}; see {logs / 'setup.err'}")
        walls.append(wall)
    return walls


def run_pass(jobs, seed: int, out_root: Path, store: CsvStore, deadline: Deadline) -> list:
    """Every job of the workload once, each in a fresh child."""
    results = []
    for job in jobs:
        out_dir = out_root / job.name
        shutil.rmtree(out_dir, ignore_errors=True)
        cfg_path = out_root / f"{job.name}.config.json"
        cfg_path.write_text(json.dumps(job.config, sort_keys=True))
        argv = [sys.executable, "-m", "nmrqip.cli", job.experiment, "--config", str(cfg_path),
                "--seed", str(seed), "--out", str(out_dir)]
        stdout_path, stderr_path = out_root / f"{job.name}.stdout", out_root / f"{job.name}.stderr"
        code, wall, usage = spawn(argv, stdout_path, stderr_path,
                                  min(JOB_TIMEOUT_S, deadline.left()))
        stderr = stderr_path.read_text(errors="replace")
        results.append(finish_job(job, str(out_dir), code, stderr, store, {
            "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024,  # Linux reports KiB
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }))
    return results


def finish_job(job, out_dir: str, code: int, stderr: str, store: CsvStore, timing: dict) -> dict:
    run_problems, output_problems = check_outcome(job, out_dir, code, stderr)
    output_problems += store.check(job, csv_digests(out_dir),
                                   clean=not (run_problems or output_problems))
    try:
        summary = read_summary(out_dir)
    except (OSError, KeyError, ValueError):
        summary = None
    return {"job": job.name, "exit": code, "target": job.target, **timing,
            "run_problems": run_problems, "output_problems": output_problems,
            "summary": summary}


def tally(results: list) -> dict:
    failed = sum(bool(r["run_problems"] or r["output_problems"]) for r in results)
    return {
        "attempted": len(results),
        "failed": failed,
        "correct": not any(r["output_problems"] for r in results),
    }


def end_to_end(workload, jobs, seed, seconds, store, deadline) -> tuple:
    setup = measure_setup(deadline)
    out_root = WORK / "out" / workload / "e2e"
    out_root.mkdir(parents=True, exist_ok=True)
    passes = []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        passes.append(run_pass(jobs, seed, out_root, store, deadline))
        pass_s = time.perf_counter() - p0
        elapsed = time.perf_counter() - t0
        if elapsed + pass_s > seconds or pass_s > deadline.left() - 10:
            break
    results = [r for p in passes for r in p]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(r["wall_s"] for r in p) for p in passes),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    target = [r["wall_s"] for r in results if r["target"]]
    extra = {
        "passes": len(passes),
        "setup_walls_s": setup,
        "cpu_s": statistics.median(sum(r["cpu_s"] for r in p) for p in passes),
        "time_to_target_s": statistics.median(target) if target else None,
    }
    return metrics, results, extra


def traced(workload, jobs, seed, store, deadline) -> tuple:
    logs = WORK / "logs"
    by_name = {j.name: j for j in jobs}
    docs = {}
    results = []
    for mode in ("untraced", "traced"):
        out_root = WORK / "out" / workload / mode
        out_root.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, str(HERE / "tracer.py"), "--workload", workload,
                "--seed", str(seed), "--out-root", str(out_root), "--mode", mode]
        if mode == "traced":
            argv += ["--spans", str(logs / f"spans-{workload}.json")]
        code, _, _ = spawn(argv, logs / f"{mode}.out", logs / f"{mode}.err",
                           deadline.left() - 5)
        if code != 0:
            raise SystemExit(f"perfbench: the {mode} child exited {code}; "
                             f"see {logs / (mode + '.err')}")
        docs[mode] = json.loads((logs / f"{mode}.out").read_text().splitlines()[-1])
        for r in docs[mode]["jobs"]:
            results.append(finish_job(by_name[r["job"]], str(out_root / r["job"]), r["exit"],
                                      r["stderr"], store, {"wall_s": r["wall_s"], "mode": mode}))
    metrics = dict(docs["traced"]["layers"])
    traced_s = sum(r["wall_s"] for r in docs["traced"]["jobs"])
    untraced_s = sum(r["wall_s"] for r in docs["untraced"]["jobs"])
    metrics["trace.traced_wall_s"] = traced_s
    metrics["trace.untraced_wall_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    extra = {"span_count": docs["traced"]["span_count"],
             "hook_errors": docs["traced"]["hook_errors"]}
    return metrics, results, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measure whole passes of the job list for this long (at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must fit in 64 bits")
    if not (SRC / "nmrqip" / "cli.py").is_file():
        print(f"perfbench: no nmrqip source at {SRC}", file=sys.stderr)
        return 2

    # a terminated run stops its running child on the way out (see spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = Deadline(RUN_BUDGET_S)
    (WORK / "logs").mkdir(parents=True, exist_ok=True)
    jobs = WORKLOADS[args.workload]()
    store = CsvStore(args.workload, args.seed)
    before = probe("before", deadline)
    if args.trace:
        metrics, results, extra = traced(args.workload, jobs, args.seed, store, deadline)
    else:
        metrics, results, extra = end_to_end(
            args.workload, jobs, args.seed, args.seconds, store, deadline)
    units = {name: unit_of(name) for name in metrics}
    after = probe("after", deadline)
    store.save()

    summary = tally(results)
    fail_share = summary["failed"] / summary["attempted"]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, **summary, "fail_share": fail_share,
        "metrics": metrics, "units": units, **extra,
        "environment": {
            "cores": os.cpu_count(),
            "affinity_cores": len(os.sched_getaffinity(0)),
            "pinned_threads": PINNED_THREADS,
            **{k: before.get(k) for k in ("python", "numpy", "scipy", "blas")},
        },
        "probe_s": {"before": before.get("probe_s"), "after": after.get("probe_s")},
        "jobs": results,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for r in results:
        problems = r["run_problems"] + r["output_problems"]
        print(f"  job {r['job']:<28} exit {r['exit']}  {r['wall_s']:8.3f} s"
              + (f"  FAILED: {'; '.join(problems)}" if problems else ""))
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")
    print(f"  {'fail_share':<44} {fail_share:>16.6g} ratio"
          f" ({summary['failed']} of {summary['attempted']} jobs)")
    if not args.trace:
        print(f"  {'cpu_s (not gated)':<44} {extra['cpu_s']:>16.6g} s")
        if extra["time_to_target_s"] is not None:
            print(f"  {'time_to_target_s (not gated)':<44} {extra['time_to_target_s']:>16.6g} s")
    for err in extra.get("hook_errors", ()):
        print(f"  warning: a tracer count failed: {err}")
    print(f"  probe_s before {before.get('probe_s')} after {after.get('probe_s')};"
          f" record {record_path.relative_to(ROOT)}")
    print(json.dumps({**summary, "metrics": {
        k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
