"""Every script under scripts/ imports cleanly against the package, and the
CSV digests of a fresh run equal CSV_DIGESTS.txt."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nmrqip

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _load(path):
    # a module name other than "__main__" skips the script's main block, so
    # this only executes its imports and definitions
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_imports_without_running_main(path):
    assert _load(path).__name__ != "__main__"


def test_demo_scripts_print_one_line_per_table_row(capsys):
    # the demos print the default runs: a line per ising.csv and xxz.csv row,
    # and a line per tenth transfer.csv row
    from nmrqip.cli import DEFAULT_CONFIGS

    def rows(call, prefix=""):
        call()
        return [line for line in capsys.readouterr().out.splitlines()
                if line.startswith(prefix) and not line.startswith("#")]

    scans = _load(ROOT / "scripts" / "ground_state_scans.py")
    ising = rows(scans.ising_table)
    assert len(ising) == DEFAULT_CONFIGS["ising"]["n_points"]
    assert ising[0] == "-3.000  +3.000000  0.000000  1"
    assert len(rows(scans.xxz_table)) == DEFAULT_CONFIGS["xxz"]["n_points"]
    steps = rows(_load(ROOT / "scripts" / "chain_transfer_demo.py").main, "step")
    assert len(steps) == DEFAULT_CONFIGS["transfer"]["iterations"] // 10 + 1
    assert steps[-1] == "step 100  transfer fidelity 1.000000"



def _accepted(experiment, config) -> bool:
    from nmrqip.cli import ConfigError, _resolve

    try:
        _resolve(experiment, config)
    except ConfigError:
        return False
    return True


def test_csv_digests_lists_every_run_at_one_seed():
    # the digests at seed 3, made in a child process at one BLAS thread,
    # list every run and equal CSV_DIGESTS.txt line for line; a file made
    # with another numpy, BLAS or thread setting is not compared, since the
    # bytes are promised only within one environment
    from nmrqip.cli import DEFAULT_CONFIGS

    path = ROOT / "scripts" / "csv_digests.py"
    spec = importlib.util.spec_from_file_location("script_csv_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    src = str(Path(nmrqip.__file__).resolve().parents[1])
    env = {**os.environ, **dict.fromkeys(script.THREAD_VARS, "1"),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, str(path), "--seeds", "3"], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    header = [line for line in res.stdout.splitlines() if line.startswith("# ")]
    lines = [line for line in res.stdout.splitlines() if not line.startswith("# ")]
    fields = [line.split(" ") for line in lines]
    assert all(len(f) == 4 and f[1] == "3" and f[2].endswith(".csv") for f in fields)
    assert all(len(f[3]) == 64 and set(f[3]) <= set("0123456789abcdef") for f in fields)
    assert len(lines) == len({(f[0], f[2]) for f in fields})
    # every default run, every bench job whose config the schema accepts (one
    # that exits 2 at validation writes nothing), the extra runs and repro's
    # criteria.csv
    jobs = {f"{workload}/{job.name}" for workload, make in script.load_jobs().WORKLOADS.items()
            for job in make() if _accepted(job.experiment, job.config)}
    extra = {"grape-chain7-chunks": {"fidelity_trace.csv", "pulse.csv"},
             "grape-fd-at-cap": {"fidelity_trace.csv", "pulse.csv"},
             "grape-fd-ensemble-over-cap": {"fidelity_trace.csv", "pulse.csv"},
             "certify-n4": {"certify.csv"},
             "contextuality-meter-noise": {"contextuality.csv"},
             "rb-rotations-n1": {"survivals.csv", "fit.csv"},
             "twirl-n7-many": {"twirl.csv"},
             "ising-10k": {"ising.csv", "steps.csv"},
             "xxz-n7-no-crossing": {"xxz.csv", "features.csv"},
             "xxz-256-restarts": {"xxz.csv", "features.csv"},
             "rb-noiseless": {"survivals.csv", "fit.csv"},
             "transfer-entangle": {"transfer.csv"},
             "qec-phase-flip": {"qec.csv", "transversal.csv"},
             "spectrum-malonate3-full": {"fid.csv", "spectrum.csv"},
             "grape-malonate3-full": {"fidelity_trace.csv", "pulse.csv"},
             "spectrum-chain7-full": {"fid.csv", "spectrum.csv"}}
    assert [label for label, _, _ in script.EXTRA_RUNS] == list(extra)
    assert {f[0] for f in fields} == set(DEFAULT_CONFIGS) | jobs | set(extra) | {"repro"}
    for label, files in extra.items():
        assert {f[2] for f in fields if f[0] == label} == files
    assert [f[2] for f in fields if f[0] == "repro"] == ["criteria.csv"]
    committed = (ROOT / "CSV_DIGESTS.txt").read_text().splitlines()
    if header != [line for line in committed if line.startswith("# ")]:
        pytest.skip(f"CSV_DIGESTS.txt was made in another environment; this one is {header}")
    assert lines == [line for line in committed if not line.startswith("# ")]
