"""Print every line of src/nmrqip that a fixed corpus of runs never executes.

The corpus is:

* every run of scripts/csv_digests.py at seed 0: each experiment's default
  config, each bench job, its EXTRA_RUNS and `nmrqip repro`;
* from cli.SCHEMA, one reduced-size run per choice option, flipped bool and
  set nullable key, and one run of each experiment with --shots;
* the EDGE_RUNS below, each for a guard no other run trips;
* the command line's front door: usage, --help, --list, unknown names, bad
  configs, seeds and shots, a run without --out, repro's own options, and
  `nmrqip repro --only determinism` with NMRQIP_OUT_DIR set.

Lines are traced with sys.settrace, so the corpus runs several times slower
than untraced.  Output is one line per executable line that never ran and is
not part of a raise statement (validation errors are expected to stay
unreached), then a count:

    PYTHONPATH=src python scripts/src_reach.py
"""

import argparse
import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nmrqip"

# per experiment, the config keys that keep a schema variant small
REDUCED = {
    "grape": {"n_steps": 8, "max_iters": 2},
    "twirl": {"delta": 0.2},  # 60 Hoeffding samples: without replacement is accepted
    "certify": {"delta": 0.2},
    "rb": {"n": 1, "lengths": [1, 2, 4], "sequences": 3},  # n = 1 admits the rotations
    "distill": {"p_values": [0.9]},
    "ising": {"n_points": 11},
    "xxz": {"n_points": 3, "n_restarts": 2},
    "transfer": {"iterations": 10},
    "spectrum": {"n_samples": 64},
}


# (experiment, config) of guards that no other run trips: a weight_masses key
# that is not an integer (exit 2), a coupling too weak to move the excitation
# (the relay stalls), and a noise that leaves RB's survival flat below 1
EDGE_RUNS = [
    ("twirl", {"weight_masses": {"a": 0.1}}),
    ("transfer", {"coupling_strength": 1e-12}),
    ("rb", {"n": 1, "error_rate": 0.5}),
]


def schema_variants(schema) -> list:
    """(experiment, config) with one key off its default: each other choice
    option, the flipped bool, and a nullable key set to its lower limit (a
    number to the middle of its limits)."""
    out = []
    for name, (_, keys, _) in schema.items():
        for key, spec in keys.items():
            kind, default, lim = spec["kind"], spec["default"], spec["limits"]
            if kind == "choice":
                values = [v for v in lim["options"] if v != default]
            elif kind == "bool":
                values = [not default]
            elif default is None:
                values = [(lim["lo"] + lim["hi"]) / 2 if "hi" in lim and kind == "number"
                          else lim["lo"]]
            else:
                values = []
            out += [(name, {**REDUCED.get(name, {}), key: v}) for v in values]
    return out


def front_door(tmp: str) -> list:
    """argv lists for cli.main: usage, help, list, unknown names, config,
    seed and shots errors, a config file with and without --out (which
    writes runs/ising under the working directory), and repro's options."""
    paths = {}
    for label, doc in (("good", {"n_points": 5}), ("array", [1]), ("key", {"coupling": 2})):
        paths[label] = os.path.join(tmp, f"{label}.json")
        with open(paths[label], "w") as fh:
            json.dump(doc, fh)
    out = os.path.join(tmp, "front")
    return [[], ["--help"], ["teleport"], ["ising", "--list"], ["ising", "--seed", "abc"],
            ["ising", "--config", os.path.join(tmp, "missing.json")],
            ["ising", "--config", paths["array"]], ["ising", "--config", paths["key"]],
            ["ising", "--config", paths["good"], "--out", out],
            ["ising", "--config", paths["good"]],
            ["ising", "--shots", "0"], ["ising", "--seed", str(2**64)],
            ["repro", "--list"], ["repro", "--only", "teleport"], ["repro", "--bogus"],
            ["repro", "--only", "rf-selection"]]


def executable_lines(path: Path) -> set:
    """Line numbers that hold bytecode, less those inside a raise statement."""
    text = path.read_text()
    lines, codes = set(), [compile(text, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Raise):
            lines -= set(range(node.lineno, node.end_lineno + 1))
    return lines


def run_corpus(tmp: str) -> None:
    """Every run of the corpus; imported here, so that tracing sees the imports."""
    import csv_digests
    from nmrqip import cli

    csv_digests.digest_lines([0])
    for i, (name, config) in enumerate(schema_variants(cli.SCHEMA)):
        cli.run_experiment(name, out_dir=os.path.join(tmp, f"variant-{i}"), config_doc=config)
    for name in cli.SCHEMA:
        cli.run_experiment(name, out_dir=os.path.join(tmp, f"shots-{name}"), shots=8,
                           config_doc=REDUCED.get(name, {}))
    for i, (name, config) in enumerate(EDGE_RUNS):
        cli.run_experiment(name, out_dir=os.path.join(tmp, f"edge-{i}"), config_doc=config)
    for argv in front_door(tmp):
        try:
            cli.main(argv)
        except SystemExit:  # a usage error exits from inside the parser
            pass
    os.environ["NMRQIP_OUT_DIR"] = os.path.join(tmp, "env-out")
    try:
        cli.main(["repro", "--only", "determinism"])
    finally:
        del os.environ["NMRQIP_OUT_DIR"]


def reached_lines() -> dict:
    """{file name: line numbers} that the corpus executes in src."""
    prefix, hits = str(SRC) + os.sep, {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set()).add(frame.f_code.co_firstlineno)
        return local

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a run without --out writes runs/<name> here
        sys.settrace(on_call)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                run_corpus(tmp)
        finally:
            sys.settrace(None)
            os.chdir(cwd)
    return hits


def main(argv) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    os.environ.pop("NMRQIP_OUT_DIR", None)  # it would redirect every run's output
    hits = reached_lines()
    missed = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - hits.get(str(path), set())):
            missed.append(f"{path.relative_to(SRC.parents[1])}:{line}  {source[line - 1].strip()}")
    print("\n".join(missed))
    print(f"{len(missed)} unreached lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
