"""Print the sha256 of every CSV a fixed set of nmrqip runs writes.

The runs are every experiment at its default config, every job of
perfbench/jobs.py at its own config, the EXTRA_RUNS below, and
`nmrqip repro --out`, each at every given seed.  The output opens with
`# ` lines naming the numpy, its BLAS and the thread setting the runs used,
then has one line per file:

    <run> <seed> <file> <sha256>

where <run> is the experiment name, <workload>/<job> for a bench job, an
extra run's label, or repro.  Two checkouts can be compared by diffing their
output.  The runs go in process, so main sets the BLAS thread variables as
the nmrqip command does, to 1 unless the caller has set them, before numpy
loads.  CSV_DIGESTS.txt at the repo root holds the output at seed 3, which
tests/test_scripts.py compares against:

    PYTHONPATH=src python scripts/csv_digests.py --seeds 3 > CSV_DIGESTS.txt
"""

import argparse
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

from nmrqip.cli import DEFAULT_CONFIGS, main as cli_main, run_experiment

JOBS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (label, experiment, config) of paths no default run or bench job takes: a
# chain7 GRAPE whose 24 steps of d = 128 go in several chunks, the
# finite-difference gradient with amplitudes on the cap, and with an RF
# ensemble member (scale 1.03) whose scaled amplitudes pass it, certify at its
# largest n, the meter's Pauli noise, RB's single-qubit rotations sampler, twirl
# at n = 7 with many distinct Paulis, an Ising scan of 10^4 field points, an
# xxz scan at n = 7 without the crossing, one with the schema's 256 restarts,
# noiseless RB, the relay's entangling mode, the phase-flip code,
# malonate3's spectrum and GRAPE at full coupling, which has a heteronuclear
# pair (ZZ alone) and a homonuclear one (flip-flops kept), and chain7's
# spectrum at full coupling, the dense FID path at d = 128.
EXTRA_RUNS = [
    ("grape-chain7-chunks", "grape", {"molecule": "chain7", "n_steps": 24, "max_iters": 2}),
    ("grape-fd-at-cap", "grape",
     {"molecule": "chloroform2", "n_steps": 10, "u_max_hz": 200, "max_iters": 30,
      "gradient_mode": "finite-difference", "init_scale": 0.9}),
    ("grape-fd-ensemble-over-cap", "grape",
     {"molecule": "chloroform2", "n_steps": 10, "u_max_hz": 200, "max_iters": 3,
      "gradient_mode": "finite-difference", "init_scale": 1.0,
      "rf_distribution": [[0.97, 0.25], [1.0, 0.5], [1.03, 0.25]]}),
    ("certify-n4", "certify", {"n": 4, "control_qubit": 1, "target_qubit": 4}),
    ("contextuality-meter-noise", "contextuality",
     {"state": "random", "method": "meter", "noise_p": 0.05}),
    ("rb-rotations-n1", "rb", {"n": 1, "sampler": "rotations"}),
    ("twirl-n7-many", "twirl", {"n": 7, "n_samples": 20000}),
    ("ising-10k", "ising", {"n_points": 10001}),
    ("xxz-n7-no-crossing", "xxz", {"n": 7, "n_points": 4, "locate_crossing": False}),
    ("xxz-256-restarts", "xxz",
     {"n": 4, "n_points": 3, "n_restarts": 256, "locate_crossing": False}),
    ("rb-noiseless", "rb", {"error_rate": 0.0}),
    ("transfer-entangle", "transfer", {"mode": "entangle"}),
    ("qec-phase-flip", "qec", {"code": "phase-flip"}),
    ("spectrum-malonate3-full", "spectrum", {"molecule": "malonate3", "weak_coupling": False}),
    ("grape-malonate3-full", "grape",
     {"molecule": "malonate3", "n_steps": 20, "max_iters": 3, "weak_coupling": False}),
    ("spectrum-chain7-full", "spectrum",
     {"molecule": "chain7", "weak_coupling": False, "n_samples": 256}),
]


def load_jobs():
    """perfbench/jobs.py, which lists the bench jobs and hashes a run's CSVs."""
    spec = importlib.util.spec_from_file_location("perfbench_jobs", JOBS_PATH)
    jobs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(jobs)
    return jobs


def runs(jobs) -> list:
    """(run label, experiment, config) of every run but repro."""
    return [(name, name, {}) for name in sorted(DEFAULT_CONFIGS)] + [
        (f"{workload}/{job.name}", job.experiment, job.config)
        for workload, make in jobs.WORKLOADS.items() for job in make()] + EXTRA_RUNS


def digest_lines(seeds) -> list:
    """Every run at every seed, each in a fresh directory; the digest lines in run order."""
    os.environ.pop("NMRQIP_OUT_DIR", None)  # it would redirect every run's output
    jobs = load_jobs()
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            outs = []
            for i, (label, experiment, config) in enumerate(runs(jobs)):
                outs.append((label, os.path.join(tmp, f"{seed}-{i}")))
                with contextlib.redirect_stdout(io.StringIO()):
                    run_experiment(experiment, seed=seed, out_dir=outs[-1][1], config_doc=config)
            outs.append(("repro", os.path.join(tmp, f"{seed}-repro")))
            with contextlib.redirect_stdout(io.StringIO()):
                cli_main(["repro", "--seed", str(seed), "--out", outs[-1][1]])
            lines += [f"{label} {seed} {fname} {digest}" for label, out in outs
                      for fname, digest in jobs.csv_digests(out).items()]
    return lines


def environment_lines() -> list:
    """The `# ` header: numpy's version, its BLAS and the thread variables."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{var}={os.environ.get(var, 'unset')}" for var in THREAD_VARS)
    return [f"# numpy {np.__version__}", f"# blas {blas['name']} {blas['version']}",
            f"# threads {threads}"]


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    args = ap.parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads, as cli.main does
        os.environ.setdefault(var, "1")
    for line in environment_lines() + digest_lines(args.seeds):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
