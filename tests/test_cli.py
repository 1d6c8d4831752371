"""Command-line contract: exits, config handling, file outputs, determinism."""

import ast
import contextlib
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nmrqip
from nmrqip import acceptance, twirl
from nmrqip.channels import Channel, pauli_probs_by_weight
from nmrqip.clifford import gate_tableau, unitaries
from nmrqip.cli import (_BLOCK_ROWS, _MAX_SAMPLES, DEFAULT_CONFIGS, EXPERIMENTS, SCHEMA,
                        _resolve, main, run_experiment, write_csv)
from nmrqip.qop import average_gate_fidelity_exact
from nmrqip.twirl import twirl_estimate_memory

from conftest import child_env, load_pulse, write_csv_rows


@pytest.fixture(autouse=True)
def isolate(tmp_path, monkeypatch):
    # keep relative default out dirs inside the sandbox and drop any ambient
    # override so each test sees a clean environment
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NMRQIP_OUT_DIR", raising=False)
    return tmp_path


def read_stdout_json(capsys):
    # error and summary documents are single-line; take the last line so
    # any repro table text printed earlier does not confuse the parse
    lines = [l for l in capsys.readouterr().out.strip().splitlines() if l]
    return json.loads(lines[-1])


def read_stdout_doc(capsys):
    # --list pretty-prints one indented document
    return json.loads(capsys.readouterr().out)


def test_usage_exits():
    assert main([]) == 2
    assert main(["--help"]) == 0


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs about half a second of every start-up
    env = child_env()
    probe = "import sys, nmrqip.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_cli_and_light_experiments_load_no_scipy_subpackage(tmp_path):
    # each of these costs 0.1-0.3 s and 14-31 MB of a run
    env = child_env()
    jobs = [
        ("twirl", {"n": 3, "n_samples": 50}),
        ("certify", {}),
        ("qec", {}),
        ("grape", {"n_steps": 20, "max_iters": 3, "target_fidelity": 0.999}),
        ("rb", {"n": 3, "sequences": 3}),
        ("rb", {"n": 1, "sampler": "rotations"}),
        ("ising", {}),
        ("contextuality", {}),
        ("weak", {}),
        ("xxz", {"n": 4, "n_points": 5}),
        ("distill", {}),
        ("spectrum", {"molecule": "chain7", "n_samples": 256}),
        ("spectrum", {"molecule": "crotonic4", "weak_coupling": False, "n_samples": 256}),
        ("spectrum", {"pulse": "none", "n_samples": 64}),
        ("transfer", {}),
        ("transfer", {"mode": "entangle"}),
        ("dqc1", {"theta": 0.7}),
    ]
    probe = f"""
import io, json, sys, contextlib
import nmrqip.cli as cli
from nmrqip import acceptance
heavy = ("scipy.linalg", "scipy.sparse", "scipy.optimize", "scipy.spatial", "scipy.special")
def loaded():
    return sorted(m for m in sys.modules if m.startswith(heavy))
report = [["import", loaded()]]
for name, cfg in {jobs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run_experiment(name, out_dir={str(tmp_path / "o")!r}, config_doc=cfg)
    report.append([name, code, loaded()])
report.append(["rf-selection", acceptance.run_criterion("rf-selection").passed, loaded()])
print(json.dumps(report))
"""
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    report = json.loads(out)
    exits = {"grape": 3}
    assert report == ([["import", []]] + [[name, exits.get(name, 0), []] for name, _ in jobs]
                      + [["rf-selection", True, []]])


def test_cli_loads_only_the_experiment_layers(tmp_path):
    # a run compiles every module it loads; --help, --list, a usage error and
    # a rejected config load no layer, no numpy and no scipy, and a run only
    # its experiment's layers
    env = child_env()
    cfg = tmp_path / "xxz7.json"
    cfg.write_text(json.dumps({"n": 7}))  # locate_crossing needs an even n: exit 2
    grape_cfg = tmp_path / "grape11.json"  # control and target on one qubit: exit 2
    grape_cfg.write_text(json.dumps({"molecule": "chloroform2", "control_qubit": 1,
                                     "target_qubit": 1}))
    bare_argvs = [["--help"], ["xxz", "--list"], ["xxz", "--config", str(cfg)],
                  ["grape", "--config", str(grape_cfg)], ["twirl", "--seed", "abc"],
                  ["repro", "--bogus"], ["repro", "--seed", "-1"]]
    molecule = ["data", "data.molecules", "qop", "spins"]
    twirl = ["channels", "clifford", "qop", "twirl"]
    jobs = [
        ("grape", {"n_steps": 20, "max_iters": 3}, 3, molecule + ["clifford", "control"]),
        ("twirl", {"n_samples": 50}, 0, twirl),
        ("certify", {"n_samples": 50}, 0, twirl),
        ("rb", {"sequences": 3}, 0, twirl),
        ("qec", {}, 0, ["clifford", "qec", "qop"]),
        ("distill", {}, 0, ["clifford", "qec", "qop"]),
        ("dqc1", {"theta": 0.7}, 0, ["experiments", "experiments.dqc1", "qop"]),
        ("contextuality", {}, 0,
         ["channels", "experiments", "experiments.contextuality", "qop"]),
        ("weak", {}, 0, ["experiments", "experiments.weakvalue", "qop"]),
        ("ising", {}, 0, ["experiments", "experiments.ising", "qop"]),
        ("xxz", {"n_points": 5}, 0, ["experiments", "experiments.xxz", "qop"]),
        ("transfer", {}, 0, ["experiments", "experiments.transfer"]),
        ("spectrum", {"n_samples": 64}, 0, molecule),
    ]
    probe = f"""
import io, json, sys, contextlib
import nmrqip.cli as cli
def loaded():
    return sorted(m for m in sys.modules if m.startswith(("nmrqip", "numpy", "scipy")))
report = []
for argv in {bare_argvs!r}:
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # a usage error exits from inside the parser
        code = exc.code
    report.append([code, loaded()])
for name, cfg, _, _ in {jobs!r}:
    # each run starts from a package holding only nmrqip and nmrqip.cli
    for m in [m for m in sys.modules if m.startswith("nmrqip.") and m != "nmrqip.cli"]:
        del sys.modules[m]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run_experiment(name, out_dir={str(tmp_path / "o")!r}, config_doc=cfg)
    report.append([code, [m for m in loaded() if m.startswith("nmrqip.")]])
print(json.dumps(report))
"""
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    bare = ["nmrqip", "nmrqip.cli"]
    assert json.loads(out) == ([[code, bare] for code in (0, 0, 2, 2, 2, 2, 2)]
                               + [[code, sorted(["nmrqip.cli"] + [f"nmrqip.{m}" for m in mods])]
                                  for _, _, code, mods in jobs])


@functools.lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    """The parsed source file, shared by the tests that read src and scripts."""
    return ast.parse(path.read_text(), str(path))


def test_src_imports_no_scipy_subpackage():
    # scipy is the test oracle only; versions.scipy is read from
    # scipy/version.py without importing the package
    src = Path(nmrqip.__file__).resolve().parent
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                bad = [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                bad = [node.module] if node.module.split(".")[0] == "scipy" else []
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                # attribute access on the bare package imports a subpackage lazily
                bad = [f"scipy.{node.attr}"] if node.value.id == "scipy" else []
            else:
                bad = []
            found += [f"{path.relative_to(src)}:{node.lineno} {name}" for name in bad]
    assert found == []


def test_cli_module_imports_only_what_every_invocation_uses():
    # --help and every rejected config pay for each of these imports
    tree = ast.parse((Path(nmrqip.__file__).resolve().parent / "cli.py").read_text())
    found = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            found |= {f"{'.' * node.level}{node.module or ''}:{a.name}" for a in node.names}
    assert found == {"__future__:annotations", "json", "math", "os", "sys", "time",
                     ".:__version__"}


def test_manifest_versions_without_importing_scipy(tmp_path):
    import platform

    import scipy

    env = child_env()
    probe = f"""
import io, sys, contextlib
import nmrqip.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run_experiment("twirl", out_dir={str(tmp_path)!r}, config_doc={{"n_samples": 50}})
print(code, "scipy" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "False"]
    versions = json.loads((tmp_path / "manifest.json").read_text())["versions"]
    assert versions == {"nmrqip": nmrqip.__version__, "numpy": np.__version__,
                        "scipy": scipy.__version__, "python": platform.python_version()}


def test_manifest_versions_without_scipy_installed(monkeypatch):
    # scipy is a test extra; without it the manifest keeps the key, as null
    import importlib.util

    real = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *a: None if name == "scipy" else real(name, *a))
    versions = nmrqip.cli._versions()
    assert set(versions) == {"nmrqip", "numpy", "scipy", "python"}
    assert versions["scipy"] is None


@pytest.mark.parametrize("argv", [["twirl", "--seed", "abc"], ["twirl", "--bogus"],
                                  ["twirl", "--shots", "1.5"], ["repro", "--bogus"],
                                  ["repro", "--seed", "-1"],
                                  ["repro", "--seed", "18446744073709551615"]])
def test_usage_error_prints_one_json_line(argv):
    env = child_env()
    res = subprocess.run([sys.executable, "-m", "nmrqip.cli", *argv], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 2
    assert res.stdout.endswith("\n") and res.stdout.count("\n") == 1
    doc = json.loads(res.stdout)
    assert doc["experiment"] == argv[0] and argv[-1] in doc["error"]
    assert res.stderr == ""


def _built_string(node) -> bool:
    """A string made at run time: + or * of parts, an f-string or a .join."""
    return (isinstance(node, ast.JoinedStr)
            or isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mult))
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "join")


def test_src_builds_no_pauli_word():
    # words only at the edges: generated Paulis are built from bits, and
    # pauli_entry parses only names and literals (code and Mermin tables)
    src = Path(nmrqip.__file__).resolve().parent
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(_tree(path)):
            bad = None
            if isinstance(node, ast.Call) and node.args and _built_string(node.args[0]):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "pauli_entry":
                    bad = "pauli_entry of a built string"
            elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                  and any(isinstance(side, ast.Constant) and side.value == "I"
                          for side in (node.left, node.right))):
                bad = '"I" * ...'
            elif "all_pauli_words" in (getattr(node, "id", None), getattr(node, "attr", None),
                                       getattr(node, "name", None)):
                bad = "all_pauli_words"
            if bad:
                found.append(f"{path.relative_to(src)}:{node.lineno} {bad}")
    assert found == []



def _used_names(nodes) -> set:
    """Names some code uses: Name ids, Attribute attrs and the parts of
    imported names.  Docstrings are string constants, so they use none."""
    out = set()
    for sub in (sub for node in nodes for sub in ast.walk(node)):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.update(sub.name.split("."))
    return out


def _src_definitions(src: Path):
    """(label, name, code a reach follows) of each top-level function, class
    and constant and each public method in src; and the module-level code
    that is neither a definition nor an import."""
    defs, always = [], []
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        for node in _tree(path).body:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{module}.{node.name}", node.name, [node]))
            elif isinstance(node, ast.ClassDef):
                # a reached class runs its bases, fields, dunder and private
                # methods; a public method is reached by its own name
                rest = [*node.bases, *node.keywords, *node.decorator_list]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defs.append((f"{module}.{node.name}.{item.name}", item.name, [item]))
                    else:
                        rest.append(item)
                defs.append((f"{module}.{node.name}", node.name, rest))
            elif (isinstance(node, (ast.Assign, ast.AnnAssign))
                  and all(isinstance(t, ast.Name) for t in targets)):
                defs += [(f"{module}.{t.id}", t.id, [node]) for t in targets]
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                always.append(node)
    return defs, always


def test_src_is_what_a_run_reaches():
    # src holds only what a run reaches: nmrqip <experiment>, the repro
    # criteria in acceptance.py, or a script.  From those files, a definition
    # whose name a reached body uses is reached, and its body is followed in
    # turn.  Names match by name alone, so a name shared with a reached one
    # counts as reached.
    src = Path(nmrqip.__file__).resolve().parent
    scripts = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
    defs, always = _src_definitions(src)
    roots = [_tree(p) for p in [src / "cli.py", src / "acceptance.py",
                                                         *scripts]]
    reached = {"main"} | _used_names(roots + always)  # main: the console entry point
    while hit := [d for d in defs if d[1] in reached]:
        defs = [d for d in defs if d[1] not in reached]
        reached |= _used_names([node for _, _, code in hit for node in code])
    assert [label for label, name, _ in defs if not name.startswith("_")] == []


def test_every_dataclass_field_is_read():
    # a result or config field that no code in src or scripts reads as an
    # attribute carries nothing a run uses; names match by name alone, as in
    # the reach test above
    src = Path(nmrqip.__file__).resolve().parent
    files = [*sorted(src.rglob("*.py")),
             *sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))]
    reads = {node.attr for path in files for node in ast.walk(_tree(path))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in sorted(src.rglob("*.py")):
        for cls in ast.walk(_tree(path)):
            if isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in cls.decorator_list):
                unread += [f"{path.relative_to(src)} {cls.name}.{item.target.id}"
                           for item in cls.body if isinstance(item, ast.AnnAssign)
                           and item.target.id not in reads]
    assert unread == []


# The defaulted parameters that no call in src or scripts sets, each with the
# reason it stays a parameter: named numerical tolerances, which keep their
# value visible in the signature.
UNSET_PARAMETERS = {
    "control._fd_gradient(h_rel)": "finite-difference step relative to the amplitude cap",
    "experiments.dqc1._block_split(atol)": "how far off-diagonal blocks may stray from 0",
    "experiments.ising.ising_ground(rtol)": "relative gap that counts levels as degenerate",
    "experiments.weakvalue.weak_value(overlap_floor)": "smallest post-selection overlap accepted",
    "experiments.xxz.xxz_ground_state(rtol)": "relative gap that counts levels as degenerate",
    "qop.check_density(atol)": "Hermiticity, trace and positivity tolerance",
    "qop.check_unitary(atol)": "unitarity tolerance",
    "spins._warn_if_strongly_coupled(ratio)": "J over chemical-shift difference that warns",
    "twirl.recommended_samples(confidence)": "Hoeffding failure probability",
}


def _defaulted_parameters(src: Path):
    """(label, name a call uses, parameter, its position after self or None
    if keyword-only) of each defaulted parameter of a function in src."""
    out = []

    def visit(node, prefix, in_class):
        for item in ast.iter_child_nodes(node):
            if isinstance(item, ast.ClassDef):
                visit(item, f"{prefix}.{item.name}", True)
            elif isinstance(item, ast.FunctionDef):
                label, args = f"{prefix}.{item.name}", item.args
                call = prefix.rsplit(".", 1)[1] if item.name == "__init__" else item.name
                bound = in_class and "staticmethod" not in [
                    getattr(d, "id", None) for d in item.decorator_list]
                pos = args.posonlyargs + args.args
                for i in range(len(pos) - len(args.defaults), len(pos)):
                    out.append((f"{label}({pos[i].arg})", call, pos[i].arg, i - bound))
                out.extend((f"{label}({a.arg})", call, a.arg, None)
                           for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
                visit(item, label, False)

    for path in sorted(src.rglob("*.py")):
        visit(_tree(path), ".".join(path.relative_to(src).with_suffix("").parts), False)
    return out


def test_every_defaulted_parameter_is_set_by_some_call():
    # a default that no call in src or scripts overrides is an option no run
    # takes; calls match by name alone, as in test_src_is_what_a_run_reaches,
    # and set a parameter by position, by keyword, or through * or **
    src = Path(nmrqip.__file__).resolve().parent
    scripts = (Path(__file__).resolve().parents[1] / "scripts").glob("*.py")
    positions, keywords = {}, {}
    for path in [*src.rglob("*.py"), *scripts]:
        for call in (node for node in ast.walk(_tree(path)) if isinstance(node, ast.Call)):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            positions[name] = max(positions.get(name, 0),
                                  math.inf if starred else len(call.args))
            keywords.setdefault(name, set()).update(
                "**" if k.arg is None else k.arg for k in call.keywords)
    unset = [label for label, name, arg, pos in _defaulted_parameters(src)
             if not ({arg, "**"} & keywords.get(name, set())
                     or pos is not None and positions.get(name, 0) > pos)]
    assert sorted(unset) == sorted(UNSET_PARAMETERS)


def test_experiment_registry_is_fixed():
    assert sorted(EXPERIMENTS) == [
        "certify", "contextuality", "distill", "dqc1", "grape", "ising",
        "qec", "rb", "spectrum", "transfer", "twirl", "weak", "xxz",
    ]
    assert sorted(DEFAULT_CONFIGS) == sorted(EXPERIMENTS)


def test_unknown_experiment_error_json(capsys):
    assert main(["teleport"]) == 2
    doc = read_stdout_json(capsys)
    assert "teleport" in doc["error"]
    assert doc["valid"] == sorted(EXPERIMENTS) + ["repro"]


def test_list_prints_defaults(capsys, tmp_path):
    assert main(["ising", "--list"]) == 0
    doc = read_stdout_doc(capsys)
    assert doc["experiment"] == "ising"
    assert doc["defaults"]["j"] == 1.0
    assert not (tmp_path / "runs").exists()  # --list must not write anything


def test_malformed_config_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["ising", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "cannot load config" in read_stdout_json(capsys)["error"]
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    assert main(["ising", "--config", str(arr), "--out", str(tmp_path / "o")]) == 2
    assert "JSON object" in read_stdout_json(capsys)["error"]


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"coupling": 2.0}))
    assert main(["ising", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    doc = read_stdout_json(capsys)
    assert "coupling" in doc["error"] and "valid keys" in doc["error"]


def test_seed_and_shots_validation(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert run_experiment("ising", seed=-1, out_dir=out) == 2
    assert "seed" in read_stdout_json(capsys)["error"]
    assert run_experiment("ising", seed=2**64, out_dir=out) == 2
    capsys.readouterr()
    assert run_experiment("dqc1", shots=0, out_dir=out) == 2
    assert "shots" in read_stdout_json(capsys)["error"]


def test_ising_run_writes_manifest_and_csv(tmp_path, capsys):
    out = tmp_path / "ising_out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_points": 13, "locate_steps": False}))
    assert main(["ising", "--config", str(cfg), "--seed", "7",
                 "--out", str(out)]) == 0
    doc = read_stdout_json(capsys)
    assert doc["exit"] == 0 and doc["out_dir"] == str(out)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "ising"
    assert manifest["seed"] == 7
    assert manifest["config"]["n_points"] == 13
    assert manifest["config_path"] == str(cfg)
    assert list(manifest["fixture_hashes"]) == ["config"]  # ising reads no molecule
    assert manifest["wall_time_s"] >= 0
    assert manifest["write_time_s"] >= 0
    assert manifest["peak_rss_mb"] > 0
    assert set(manifest["versions"]) == {"nmrqip", "numpy", "scipy", "python"}
    for fname in manifest["output_paths"]:
        assert (out / fname).is_file()

    with open(out / "ising.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "h" and len(rows) == 1 + 13
    # every cell is a float at 17 significant digits or the int degeneracy,
    # so each reads back to itself
    for row in rows[1:]:
        for cell in row:
            assert "%.17g" % float(cell) == cell
    for fname in manifest["output_paths"]:  # timings go only into the manifest
        assert "write_time_s" not in (out / fname).read_text()


def test_manifest_hashes_the_config_file_and_the_molecule(tmp_path, capsys):
    import hashlib

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"molecule": "malonate3", "n_samples": 64}))
    out = tmp_path / "s"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    molecule = Path(nmrqip.__file__).resolve().parent / "data" / "molecules" / "malonate3.json"
    hashes = json.loads((out / "manifest.json").read_text())["fixture_hashes"]
    assert hashes == {"config": hashlib.sha256(cfg.read_bytes()).hexdigest(),
                      "molecule:malonate3": hashlib.sha256(molecule.read_bytes()).hexdigest()}


def test_out_dir_env_override(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("NMRQIP_OUT_DIR", str(env_dir))
    assert main(["dqc1", "--out", str(tmp_path / "ignored")]) == 0
    doc = read_stdout_json(capsys)
    assert doc["out_dir"] == str(env_dir)
    assert (env_dir / "dqc1.csv").is_file()
    assert not (tmp_path / "ignored").exists()


def test_exact_mode_reruns_are_byte_identical(tmp_path, capsys):
    outs = []
    for d in ("a", "b"):
        out = tmp_path / d
        assert main(["dqc1", "--seed", "123", "--out", str(out)]) == 0
        outs.append((out / "dqc1.csv").read_bytes())
    assert outs[0] == outs[1]
    capsys.readouterr()


def csv_bytes(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("experiment, config", [
    ("qec", {}),  # the five-qubit code's encoder goes through unitaries
    ("certify", {}),
    ("rb", {"n": 1, "sampler": "rotations"}),  # gate lists composed by circuit_tableaux
], ids=["qec", "certify", "rb-rotations"])
def test_clifford_reruns_are_byte_identical(tmp_path, capsys, experiment, config):
    outs = []
    for d in ("a", "b"):
        out = tmp_path / d
        assert run_experiment(experiment, seed=402, out_dir=str(out), config_doc=config) == 0
        outs.append(csv_bytes(out))
    assert outs[0] and outs[0] == outs[1]
    capsys.readouterr()


@pytest.mark.parametrize("experiment, config", [
    ("xxz", {"n": 4, "n_points": 5, "n_restarts": 2}),
    ("ising", {}),
    ("contextuality", {"method": "direct"}),
    ("contextuality", {"method": "meter"}),
    ("grape", {"max_iters": 100}),  # reaches F >= 0.99 at seed 402 (exit 0)
    ("grape", {"rf_distribution": [[0.97, 0.25], [1.0, 0.5], [1.03, 0.25]],
               "max_iters": 100}),  # chloroform2 ensemble, exit 0 at seed 402
], ids=["xxz", "ising", "contextuality-direct", "contextuality-meter", "grape",
        "grape-rf-ensemble"])
def test_model_reruns_are_byte_identical(tmp_path, capsys, experiment, config):
    # the repro determinism criterion does not run xxz or the direct method
    outs = []
    for d in ("a", "b"):
        out = tmp_path / d
        assert run_experiment(experiment, seed=402, out_dir=str(out), config_doc=config) == 0
        outs.append(csv_bytes(out))
    assert outs[0] and outs[0] == outs[1]
    capsys.readouterr()


def test_csv_bytes_do_not_depend_on_an_unset_blas_thread_count(tmp_path):
    # chain7 GRAPE's CSVs change with the BLAS thread count; the CLI pins one
    # thread unless the caller sets one, so an unset variable gives the bytes
    # of OPENBLAS_NUM_THREADS=1
    config = tmp_path / "grape.json"
    config.write_text(json.dumps({"molecule": "chain7", "n_steps": 4, "max_iters": 1}))
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    base = {k: v for k, v in child_env().items() if k not in blas}
    outs = []
    for name, env in (("unset", base), ("one", {**base, "OPENBLAS_NUM_THREADS": "1"})):
        res = subprocess.run([sys.executable, "-m", "nmrqip.cli", "grape", "--config",
                              str(config), "--seed", "1", "--out", str(tmp_path / name)],
                             env=env, capture_output=True, timeout=120)
        assert res.returncode == 3  # one iteration stops short of the target
        outs.append(csv_bytes(tmp_path / name))
    assert set(outs[0]) == {"fidelity_trace.csv", "pulse.csv"} and outs[0] == outs[1]


def test_spectrum_without_signal_has_no_peak(tmp_path, capsys):
    # no pulse on a diagonal PPS leaves an all-zero spectrum
    out = tmp_path / "none"
    doc = {"pulse": "none", "n_samples": 64}
    assert run_experiment("spectrum", out_dir=str(out), config_doc=doc) == 0
    assert read_stdout_json(capsys)["peak_freq_hz"] is None
    assert json.loads((out / "manifest.json").read_text())["summary"]["peak_freq_hz"] is None
    with open(out / "spectrum.csv", newline="") as fh:
        assert all(float(r["power"]) == 0.0 for r in csv.DictReader(fh))
    doc = {"n_samples": 64}
    assert run_experiment("spectrum", out_dir=str(tmp_path / "y90"), config_doc=doc) == 0
    assert isinstance(read_stdout_json(capsys)["peak_freq_hz"], float)


def test_twirl_seed_changes_estimate_within_delta(tmp_path, capsys):
    # different seeds must give different estimates, both inside the bound
    doc = {"n_samples": 4000}
    hats = []
    for seed in (1, 2):
        out = str(tmp_path / f"s{seed}")
        assert run_experiment("twirl", seed=seed, out_dir=out,
                              config_doc=doc) == 0
        summary = read_stdout_json(capsys)
        assert summary["within_delta"] is True
        assert abs(summary["pr0_hat"] - summary["pr0_true"]) <= 0.02
        hats.append(summary["pr0_hat"])
    assert hats[0] != hats[1]


def test_grape_nonconvergence_exit_code(tmp_path, capsys):
    doc = {"n_steps": 30, "max_iters": 1}
    code = run_experiment("grape", seed=0, out_dir=str(tmp_path / "g"),
                          config_doc=doc)
    assert code == 3
    summary = read_stdout_json(capsys)
    assert summary["exit"] == 3
    assert summary["converged"] is False


def test_grape_finite_difference_runs_at_the_amplitude_cap(tmp_path, capsys):
    # box clipping puts amplitudes on the cap, and the central differences of
    # the finite-difference gradient step past it
    doc = {"molecule": "chloroform2", "n_steps": 10, "u_max_hz": 200, "max_iters": 30,
           "gradient_mode": "finite-difference", "init_scale": 0.9}
    out = tmp_path / "g"
    code = run_experiment("grape", seed=1, out_dir=str(out), config_doc=doc)
    lines = capsys.readouterr().out.strip().splitlines()
    assert code in (0, 3) and len(lines) == 1
    assert json.loads(lines[0])["exit"] == code
    with open(out / "pulse.csv") as fh:
        amps = np.array([row[2:] for row in csv.reader(fh)][1:], dtype=float)
    assert np.max(np.abs(amps)) == 2 * math.pi * 200


def test_grape_pulse_json_matches_pulse_csv_and_config(tmp_path, capsys):
    doc = {"n_steps": 12, "dt_s": 3e-5, "max_iters": 2, "init_scale": 0.4}
    out = tmp_path / "g"
    assert run_experiment("grape", seed=3, out_dir=str(out), config_doc=doc) == 3
    assert read_stdout_json(capsys)["duration_s"] == 12 * 3e-5
    amps, dt, channels = load_pulse(out / "pulse.json")
    with open(out / "pulse.csv") as fh:
        header, *rows = csv.reader(fh)
    assert dt == doc["dt_s"]
    assert [f"u_{c}_rad_s" for c in channels] == header[2:]
    assert np.array_equal(amps, np.array([row[2:] for row in rows], dtype=float))
    assert amps.shape == (12, 4) and np.any(amps)


@pytest.mark.parametrize("mode", ["exact", "finite-difference"])
def test_grape_at_the_amplitude_cap_searches_past_a_failed_quasi_newton_step(
        tmp_path, capsys, mode):
    # every amplitude sits on the cap by iteration 8 (F = 0.273139), where the
    # clipped L-BFGS direction no longer ascends but the reset step does, so
    # the run goes on to max_iters
    doc = {"molecule": "chloroform2", "n_steps": 10, "u_max_hz": 200, "max_iters": 30,
           "gradient_mode": mode, "init_scale": 0.9}
    assert run_experiment("grape", seed=1, out_dir=str(tmp_path / "g"), config_doc=doc) == 3
    summary = read_stdout_json(capsys)
    assert summary["fidelity"] > 0.273139 + 1e-4
    assert summary["message"] == "max_iters reached" and summary["iterations"] == 30


def test_grape_manifest_counts_objective_evaluations(tmp_path):
    out = tmp_path / "g"
    assert run_experiment("grape", seed=0, out_dir=str(out),
                          config_doc={"n_steps": 30, "max_iters": 5}) == 3
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["iterations"] == 5
    assert summary["evaluations"] >= summary["iterations"] + 1


def test_qec_logical_z_gate_runs(tmp_path, capsys):
    assert run_experiment("qec", out_dir=str(tmp_path / "q"), config_doc={"gate": "Z"}) == 0
    summary = read_stdout_json(capsys)
    assert summary["gate"] == "Z"
    assert abs(summary["mean_corrected"] - 1) <= 1e-10


def test_grape_bad_rf_distribution_rejected(tmp_path, capsys):
    # weights that do not sum to 1, then entries that are not numbers
    for rf in ([[0.9, 0.5], [1.1, 0.4]], [["a", 1.0]], [[1.0, None]]):
        doc = {"rf_distribution": rf}
        assert run_experiment("grape", out_dir=str(tmp_path / "g"), config_doc=doc) == 2
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert "rf_distribution" in json.loads(lines[0])["error"]


@pytest.mark.parametrize("name,key", [
    ("grape", "weak_coupling"), ("twirl", "with_replacement"), ("qec", "transversal_demo"),
    ("distill", "find_threshold"), ("dqc1", "ppt"), ("ising", "locate_steps"),
    ("xxz", "locate_jump"), ("xxz", "locate_crossing"), ("spectrum", "weak_coupling"),
])
def test_bool_keys_take_only_json_bools(tmp_path, capsys, name, key):
    # bool(...) once read 0 as false (twirl then asked for more distinct
    # Paulis than exist) and "x" as true
    for bad in (0, 1, "x", None, []):
        assert run_experiment(name, out_dir=str(tmp_path / "o"), config_doc={key: bad}) == 2
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == f"{key} must be true or false, got {bad!r}"


@pytest.mark.parametrize("name,doc,message", [
    ("certify", {"depolarizing_p": [-1]}, "depolarizing_p"),
    ("certify", {"depolarizing_p": [0.1, 2.0]}, "depolarizing_p"),
    ("transfer", {"beta": 0}, "alpha and beta"),
    ("transfer", {"alpha": 0.0, "beta": 1e-300}, "alpha and beta"),
    # a pulse's cap and step length are positive, and a search takes a step
    ("grape", {"u_max_hz": 0}, "u_max_hz"),
    ("grape", {"u_max_hz": -1}, "u_max_hz"),
    ("grape", {"dt_s": 0}, "dt_s"),
    ("grape", {"max_iters": 0}, "max_iters"),
])
def test_out_of_range_values_exit_2(tmp_path, capsys, name, doc, message):
    assert run_experiment(name, out_dir=str(tmp_path / "o"), config_doc=doc) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert message in json.loads(lines[0])["error"]
    assert not (tmp_path / "o").exists()


def assert_config_error(code, capsys, out_dir, message=""):
    """Exit 2, one JSON line whose error holds message, and no output directory."""
    assert code == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert message in json.loads(lines[0])["error"]
    assert not os.path.exists(out_dir)


# cheap xxz settings; the crossing bisection is what the tests below are about
_XXZ_SMALL = {"n_points": 2, "n_restarts": 1, "locate_jump": False}


@pytest.mark.parametrize("n", [3, 5, 7])
def test_locate_crossing_on_odd_ring_exits_2(tmp_path, capsys, n):
    # an odd ring has no alternating product state; the bisection used to
    # fail with "no dominance change in [0.5, 1.5]"
    out = str(tmp_path / "o")
    code = run_experiment("xxz", out_dir=out, config_doc={"n": n, **_XXZ_SMALL})
    assert_config_error(code, capsys, out, "locate_crossing")


def test_xxz_n7_without_crossing_runs(tmp_path, capsys):
    doc = {"n": 7, "locate_crossing": False, **_XXZ_SMALL}
    assert run_experiment("xxz", out_dir=str(tmp_path / "o"), config_doc=doc) == 0
    assert read_stdout_json(capsys)["n"] == 7


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("name,doc", [
    # these raised a traceback
    ("grape", {"dt_s": NAN}),
    ("grape", {"u_max_hz": INF}),
    ("grape", {"target_fidelity": NAN}),
    ("grape", {"init_scale": NAN}),
    ("grape", {"rf_distribution": [[NAN, 1.0]]}),
    ("grape", {"rf_distribution": [[1.0, NAN]]}),
    ("twirl", {"delta": NAN}),
    ("certify", {"delta": NAN}),
    ("rb", {"lengths": [1, INF]}),
    ("dqc1", {"epsilon": NAN}),
    ("contextuality", {"noise_p": NAN}),
    ("ising", {"j": INF}),
    ("ising", {"h_min": NAN}),
    ("ising", {"h_max": INF}),
    ("xxz", {"gamma_min": NAN, **_XXZ_SMALL}),
    ("xxz", {"gamma_max": INF, **_XXZ_SMALL}),
    ("spectrum", {"epsilon": NAN}),
    ("spectrum", {"duration_s": INF}),
    # these exited 0 with NaN in the output
    ("transfer", {"tau": NAN}),
    ("transfer", {"alpha": NAN}),
    ("weak", {"couplings": [0.1, NAN]}),
    ("twirl", {"weight_masses": {"1": NAN}}),
    ("ising", {"step_tol": NAN}),
    ("dqc1", {"theta": NAN}),
    ("grape", {"rf_distribution": [[INF, 1.0]]}),
])
def test_non_finite_values_exit_2(tmp_path, capsys, name, doc):
    out = str(tmp_path / "o")
    code = run_experiment(name, out_dir=out, config_doc=doc)
    assert_config_error(code, capsys, out, next(iter(doc)))


def test_nan_in_config_file_exits_2(tmp_path, capsys):
    # json.load reads the bare NaN token that json.dumps writes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau": NAN}))
    assert "NaN" in cfg.read_text()
    out = str(tmp_path / "o")
    code = main(["transfer", "--config", str(cfg), "--out", out])
    assert_config_error(code, capsys, out, "tau must be a finite number")


@pytest.mark.parametrize("name,key", [
    ("grape", "dt_s"), ("grape", "u_max_hz"), ("ising", "j"), ("ising", "h_max"),
    ("xxz", "gamma_max"), ("weak", "target_value"),
])
def test_huge_finite_values_exit_2(tmp_path, capsys, name, key):
    out = str(tmp_path / "o")
    code = run_experiment(name, out_dir=out, config_doc={key: 1e308})
    assert_config_error(code, capsys, out, f"{key} must be <=")


def test_weak_limits_admit_only_what_runs(tmp_path, capsys):
    # at target_value 999999 and g = 1e-12 the success probability, about
    # 1e-12, fell under weak_value's floor
    limits = {k: v["limits"] for k, v in SCHEMA["weak"][1].items()}
    doc = {"target_value": limits["target_value"]["hi"],
           "couplings": [limits["couplings"]["lo"], limits["couplings"]["hi"]]}
    assert run_experiment("weak", out_dir=str(tmp_path / "a"), config_doc=doc) == 0
    capsys.readouterr()
    out = str(tmp_path / "b")
    code = run_experiment("weak", out_dir=out, config_doc={"target_value": 999999})
    assert_config_error(code, capsys, out, "target_value")


@pytest.mark.parametrize("name,doc,message", [
    # list entries have real types and ranges
    ("rb", {"lengths": [1, 1.5, 4]}, "lengths entries must be an integer"),
    ("grape", {"rf_distribution": [[1.0, 1.5], [1.0, -0.5]]}, "rf_distribution weights"),
    ("grape", {"rf_distribution": [[0.0, 1.0]]}, "rf_distribution scales"),
    # keys the selected mode does not read are checked too
    ("dqc1", {"epsilon2": "x"}, "epsilon2"),
    ("transfer", {"mode": "entangle", "alpha": INF}, "alpha"),
    ("ising", {"locate_steps": False, "step_tol": 1.0}, "step_tol"),
    # cross-key rules
    ("xxz", {"n": 2, **_XXZ_SMALL}, "locate_crossing"),
    ("twirl", {"with_replacement": False}, "4^n - 1"),
    ("grape", {"control_qubit": 3}, "control/target"),
    ("certify", {"target_qubit": 1}, "control/target"),
    ("contextuality", {"method": "direct", "noise_p": 0.1}, "noise_p"),
    # limits the probes needed: a subnormal coupling divided by zero, and a
    # huge tau turned the fidelities into NaN
    ("weak", {"couplings": [5e-324]}, "couplings"),
    ("transfer", {"n": 3, "tau": 1e308}, "tau"),
    # a repeated length is not increasing
    ("rb", {"lengths": [1, 1]}, "lengths"),
    # a choice outside its options
    ("grape", {"gradient_mode": "bogus"}, "gradient_mode"),
])
def test_stricter_checks_exit_2(tmp_path, capsys, name, doc, message):
    out = str(tmp_path / "o")
    code = run_experiment(name, out_dir=out, config_doc=doc)
    assert_config_error(code, capsys, out, message)


@pytest.mark.parametrize("doc", [
    {"molecule": "chain7", "n_steps": 600},
    {"molecule": "chain7", "n_steps": 300, "rf_distribution": [[0.98, 0.5], [1.02, 0.5]]},
])
def test_grape_memory_is_capped(tmp_path, capsys, doc):
    # a chain7 evaluation holds about 0.5 MiB per pulse step and RF scale
    # over about 44 MB for the process (200 steps peaked at 145 MB RSS)
    out = str(tmp_path / "o")
    code = run_experiment("grape", out_dir=out, config_doc=doc)
    assert_config_error(code, capsys, out, "n_steps x rf_distribution scales x 4^n")


def test_grape_memory_cap_admits_512_step_scales_on_chain7():
    # resolving checks every rule and runs nothing: 512 x 4^7 = 2^23
    _resolve("grape", {"molecule": "chain7", "n_steps": 512})
    _resolve("grape", {"molecule": "chain7", "n_steps": 256, "rf_distribution": [[1.0, 0.5]] * 2})
    for name in ("chloroform2", "malonate3", "crotonic4"):
        _resolve("grape", {"molecule": name, "n_steps": 10_000})


@pytest.mark.parametrize("doc, shots", [
    ({"n": 5, "lengths": [99_999, 100_000], "sequences": 1_000_000}, None),
    ({"n": 5, "lengths": [99_999, 100_000], "sequences": 1}, 1_000_000),
    ({"lengths": [1, 100_000]}, 100_000),  # 100001 x 10^5 gates, just over
], ids=["sequences", "shots-over-sequences", "shots"])
def test_rb_work_is_capped(tmp_path, capsys, monkeypatch, doc, shots):
    # sum(lengths) x sequences gates, with --shots as the sequence count when
    # it is given; rejected before a gate set is built or a gate is applied
    def forbidden(*args):
        raise AssertionError("rb started work on a config over the cap")

    monkeypatch.setattr(twirl, "default_rb_sampler", forbidden)
    monkeypatch.setattr(twirl, "randomized_benchmarking", forbidden)
    out = str(tmp_path / "o")
    code = run_experiment("rb", out_dir=out, config_doc=doc, shots=shots)
    assert_config_error(code, capsys, out, "must be <= 10^10 gates")


def test_rb_work_cap_admits_10_10_gates():
    # resolving checks every rule and runs nothing: the cap itself, and a
    # sequences count over it that --shots replaces
    _resolve("rb", {"lengths": [1, 99_999]}, 100_000)
    _resolve("rb", {"lengths": [1, 99_999], "sequences": 100_000})
    _resolve("rb", {"n": 5, "lengths": [99_999, 100_000], "sequences": 1_000_000}, 1)


def test_sample_count_is_capped(tmp_path, capsys):
    # delta = 1e-3 asks Hoeffding for 2.4 million Pauli samples at n = 3
    for name in ("twirl", "certify"):
        out = str(tmp_path / name)
        code = run_experiment(name, out_dir=out, config_doc={"delta": 1e-3})
        assert_config_error(code, capsys, out, "10^6 samples")


def test_sample_cap_footprint():
    # 10^6 shots at n = 3 peak at about 66 MB under tracemalloc (the cap's
    # comment); n = 2 must stay under twice that, with and without readout
    noise = Channel(pauli_probs_by_weight(2, {1: 0.3, 2: 0.1}))
    for readout_shots in (None, 100):
        tracemalloc.start()
        try:
            twirl_estimate_memory(noise, 0.02, np.random.default_rng(1), _MAX_SAMPLES,
                                  readout_shots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 66e6


def test_undefined_fit_writes_null_not_nan(tmp_path, capsys):
    # survival 0 at every length leaves the rb fit undefined (NaN); stdout and
    # the manifest must still be RFC 8259 JSON, while the CSV keeps its nan
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    out = tmp_path / "o"
    doc = {"n": 1, "error_rate": 0.5, "lengths": [1, 2, 4, 8], "sequences": 5}
    assert run_experiment("rb", out_dir=str(out), config_doc=doc) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    stdout = json.loads(line, parse_constant=reject)
    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=reject)
    for summary in (stdout, manifest["summary"]):
        assert summary["error_rate_fit"] is None and summary["relative_error"] is None
    assert (out / "fit.csv").read_text().splitlines()[1].startswith("nan,nan,nan,nan,")


# Cheap configs the fuzzed value is merged over.
_FUZZ_BASE = {
    "grape": {"n_steps": 2, "max_iters": 1},
    "twirl": {"n": 1, "weight_masses": {"1": 0.1}, "n_samples": 3},
    "certify": {"delta": 0.45, "depolarizing_p": [0.1]},
    "rb": {"n": 1, "lengths": [1, 2], "sequences": 2},
    "qec": {"code": "bit-flip", "transversal_demo": False},
    "distill": {"p_values": [0.5], "find_threshold": False},
    "dqc1": {"n": 2},
    "contextuality": {},
    "weak": {"couplings": [0.1]},
    "ising": {"n_points": 3},
    "xxz": {"n": 4, "n_points": 2, "n_restarts": 1},
    "transfer": {"n": 2, "iterations": 2},
    "spectrum": {"n_samples": 16},
}

_SPECIAL = [NAN, INF, -INF, 1e308, -1e308, 10**400, True, None, "x", [], {}]


def _near_limits(limits, integer):
    """Each limit and its neighbours on both sides."""
    out = []
    for bound in (limits.get(k) for k in ("lo", "hi", "gt")):
        if bound is None:
            continue
        if integer:
            out += [bound - 1, bound, bound + 1]
        else:
            out += [math.nextafter(bound, -INF), bound, math.nextafter(bound, INF)]
    if integer:
        # an int key's top limit caps steps, samples or iterations: valid there
        # but minutes long, so only values just past it are drawn
        out = [v for v in out if v <= 64 or v > limits["hi"]]
    return out


def _fuzz_values(spec):
    kind, lim = spec["kind"], spec["limits"]
    if kind == "pairs":
        return (_SPECIAL + [[[x, 1.0]] for x in _near_limits(lim["scale"], False) + _SPECIAL]
                + [[[1.0, x]] for x in _near_limits(lim["weight"], False) + _SPECIAL])
    if kind == "weights":
        return (_SPECIAL + [{"1": x} for x in _near_limits(lim["values"], False) + _SPECIAL]
                + [{str(k): 0.1} for k in _near_limits(lim["keys"], True)])
    if kind == "choice":
        return list(lim["options"]) + _SPECIAL
    if kind == "bool":
        return [True, False, 0, 1] + _SPECIAL
    scalars = _near_limits(lim, kind in ("int", "ints")) + _SPECIAL
    if kind in ("numbers", "ints"):
        return scalars + [[x] for x in scalars] + [[1, x] for x in scalars]
    return scalars


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
@settings(derandomize=True, max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_one_key_exits_0_2_or_3(name, data):
    keys = SCHEMA[name][1]
    key = data.draw(st.sampled_from(sorted(keys)), label="key")
    value = data.draw(st.sampled_from(_fuzz_values(keys[key])), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "o")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run_experiment(name, out_dir=out_dir,
                                  config_doc={**_FUZZ_BASE[name], key: value})
        assert code in (0, 2, 3)
        if code == 2:
            lines = buf.getvalue().splitlines()
            assert len(lines) == 1 and "error" in json.loads(lines[0])
            assert not os.path.exists(out_dir)


@pytest.mark.parametrize("experiment, shots", [
    ("twirl", 2**63), ("certify", 2**63), ("dqc1", 2**63), ("twirl", 10**29), ("rb", 2**61),
])
def test_shots_past_what_a_run_can_take_exit_2(tmp_path, capsys, experiment, shots):
    # readouts draw binomials, which take at most 2^63 - 1 shots; rb runs
    # --shots sequences, within its sequences limit
    top = SCHEMA["rb"][1]["sequences"]["limits"]["hi"] if experiment == "rb" else 2**63 - 1
    out = tmp_path / "o"
    assert main([experiment, "--shots", str(shots), "--out", str(out)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0]) == {
        "error": f"shots must be an integer in 1..{top}"}
    assert not out.exists()


def test_largest_shots_read_out_in_range(tmp_path, capsys):
    # at 2^63 - 1 shots every readout still lies in [-1, 1]: twice the
    # binomial counts would overflow int64, so the fraction is doubled
    out = str(tmp_path / "o")
    assert main(["twirl", "--shots", str(2**63 - 1), "--out", out]) == 0
    assert read_stdout_json(capsys)["within_delta"]
    assert main(["certify", "--shots", str(2**63 - 1), "--out", out]) == 0
    assert read_stdout_json(capsys)["worst_abs_error"] < 1e-9


def test_dqc1_shots_flag(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert main(["dqc1", "--seed", "5", "--shots", "20000", "--out", out]) == 0
    summary = read_stdout_json(capsys)
    assert summary["abs_error"] < 0.05  # sampled, so only statistically close


def test_repro_list_matches_criteria(capsys):
    assert main(["repro", "--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == list(acceptance.CRITERIA)
    assert len(lines) == 15


def test_repro_rejects_unknown_criterion(capsys):
    assert main(["repro", "--only", "bogus"]) == 2
    doc = read_stdout_json(capsys)
    assert "bogus" in doc["error"]
    assert doc["valid"] == list(acceptance.CRITERIA)


def test_repro_takes_base_seeds_up_to_the_largest_offset_below_2_64(capsys):
    # the largest literal a criterion adds to the base seed is 1200 (loop
    # indices add at most 19 to smaller ones); the two criteria that add the
    # most (xxz-ge, determinism's reruns) pass at the top seed, and one more is refused
    tree = ast.parse(Path(acceptance.__file__).read_text())
    offsets = [node.right.value for node in ast.walk(tree)
               if isinstance(node, ast.BinOp) and isinstance(node.left, ast.Name)
               and node.left.id == "base_seed" and isinstance(node.right, ast.Constant)]
    top = 2**64 - 1 - max(offsets)
    assert max(offsets) == 1200
    assert main(["repro", "--only", "xxz-ge", "--only", "determinism", "--seed", str(top)]) == 0
    assert "2/2 criteria passed" in capsys.readouterr().out
    assert main(["repro", "--only", "xxz-ge", "--seed", str(top + 1)]) == 2
    assert read_stdout_json(capsys)["error"] == f"seed {top + 1} is not in 0..{top}"


def test_repro_single_criterion_writes_csv(tmp_path, capsys):
    out = tmp_path / "repro_out"
    assert main(["repro", "--only", "rf-selection", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "rf-selection" in text and "PASS" in text
    with open(out / "criteria.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["criterion", "passed", "measured", "expected"]
    assert rows[1][0] == "rf-selection" and rows[1][1] == "1"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["criteria"] == {"rf-selection": True}
    assert manifest["runtime_s"]["rf-selection"] == manifest["wall_time_s"] >= 0
    assert manifest["details"] == {"rf-selection": acceptance.run_criterion("rf-selection").details}


def test_write_csv_formats_each_column_by_dtype(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["b", "i", "f", "s"], [
        np.array([True, False, True]),
        [3, -7, 2**40],
        np.array([0.1, -0.0, math.nan]),
        ["x", "y,z", 'q"'],
    ])
    assert path.read_text() == (
        'b,i,f,s\n'
        '1,3,0.10000000000000001,x\n'
        '0,-7,0,"y,z"\n'
        '1,1099511627776,nan,"q"""\n'
    )
    write_csv(path, ["f"], [[1 / 3, 1e300, -2.5]])
    assert [float(x) for x in path.read_text().split()[1:]] == [1 / 3, 1e300, -2.5]
    # text is quoted where the csv module quotes it
    texts = ["plain", "y,z", 'q"', "two\nlines", ""]
    write_csv(tmp_path / "a.csv", ["s,t", "n"], [texts, np.arange(5, dtype=np.uint8)])
    write_csv_rows(tmp_path / "b.csv", ["s,t", "n"], list(zip(texts, range(5))))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_write_csv_header_only_and_unequal_columns(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[], np.array([])])
    assert path.read_text() == "a,b\n"
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], [[1, 2], [1.0]])
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], [[1, 2]])


def test_write_csv_matches_the_row_writer_across_blocks(tmp_path, rng):
    n = 2 * _BLOCK_ROWS + 3
    cols = [np.arange(n), rng.standard_normal(n), rng.standard_normal(n) > 0,
            np.where(rng.random(n) < 0.5, -0.0, rng.standard_normal(n))]
    write_csv(tmp_path / "a.csv", list("abcd"), cols)
    write_csv_rows(tmp_path / "b.csv", list("abcd"), list(zip(*cols)))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def _traced_peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_write_csv_holds_one_block_of_text(tmp_path, rng):
    # 0.35 MiB traced for 2^16 rows of four floats (5.42 MiB at 2^14 rows a block)
    cols = [rng.standard_normal(1 << 16) for _ in range(4)]
    assert _traced_peak_mib(lambda: write_csv(tmp_path / "t.csv", list("abcd"), cols)) < 1


@pytest.mark.parametrize("config, bound_mib", [
    # 4.73 MiB traced: the run's arrays and one block of temporaries (7.89 MiB
    # with the power column converted through a full-length list)
    ({"n_samples": 1 << 16}, 6),
    # 1.83 MiB: the dense FID products one spin at a time (2.93 MiB all at once)
    ({"molecule": "crotonic4", "state": "thermal", "weak_coupling": False,
      "n_samples": 8192}, 2.4),
])
def test_spectrum_runner_memory(config, bound_mib):
    cfg = _resolve("spectrum", config)
    assert _traced_peak_mib(lambda: EXPERIMENTS["spectrum"](cfg, 0, None)) < bound_mib


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_default_run_tables_match_the_row_writer(name, tmp_path):
    # each default run's tables, written by column and by the per-cell row writer
    result = EXPERIMENTS[name](_resolve(name, {}), 0, None)
    assert result.tables
    for fname, (header, columns) in result.tables.items():
        write_csv(tmp_path / "a.csv", header, columns)
        write_csv_rows(tmp_path / "b.csv", header, list(zip(*columns)))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes(), fname


def test_spectrum_power_is_python_complex_abs_squared(tmp_path):
    out = tmp_path / "spec"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_experiment("spectrum", out_dir=str(out)) == 0
    with open(out / "spectrum.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == DEFAULT_CONFIGS["spectrum"]["n_samples"]
    for r in rows:
        power = abs(complex(float(r["amp_re"]), float(r["amp_im"]))) ** 2
        assert r["power"] == "%.17g" % power


@pytest.mark.parametrize("n, ps", [(2, [0.0, 0.05, 0.5, 1.0, 16 / 15]),
                                   (3, [0.0, 0.2, 64 / 63]), (4, [0.1, 256 / 255])])
def test_certify_exact_fidelity_equals_the_kraus_oracle(tmp_path, n, ps):
    # fbar_exact is the closed form (d p_I + 1)/(d + 1); the oracle is the
    # average gate fidelity of the noise's Kraus set followed by the CNOT
    doc = {"n": n, "control_qubit": 1, "target_qubit": n, "depolarizing_p": ps, "n_samples": 10}
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_experiment("certify", out_dir=str(tmp_path / "o"), config_doc=doc) == 0
    with open(tmp_path / "o" / "certify.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    u = unitaries(gate_tableau("CNOT", (1, n), n))
    assert len(rows) == len(ps)
    for p, row in zip(ps, rows):
        kraus = [u @ k for k in Channel.depolarizing(n, p).kraus()]
        assert abs(float(row["fbar_exact"]) - average_gate_fidelity_exact(kraus, u)) <= 1e-12
