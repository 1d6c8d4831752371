"""In-process traced run: spans and counts at every nmrqip layer boundary.

Run as a child process by run.py:

    python3 perfbench/tracer.py --workload NAME --seed N --out-root DIR \
        --mode traced|untraced [--spans FILE]

with the checkout's src/ on PYTHONPATH.

It imports `nmrqip.cli` (timing the import), runs the workload's jobs one
after another through `cli.run_experiment`, and prints one JSON line: per-job
exit codes, tracebacks and durations and, in traced mode, the per-layer
metrics.  The untraced mode runs the same calls without any wrapper, so the
difference between the two is the tracing overhead.

Tracing wraps every public function and public method of each layer module
and rebinds the wrapper in every `nmrqip` namespace that imported the
original, so calls made through `from .x import f` are seen too.  A span is
(name, start, end, parent); a layer's self time is its spans' duration minus
the time their child spans cover.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import shutil
import sys
import time
import traceback
import types

LAYERS = ("cli", "qop", "spins", "control", "channels", "clifford", "twirl",
          "qec", "experiments", "acceptance")

# The public callables of cli that are traced.  format_cell runs once per CSV
# cell and its cost belongs in write_csv; main only parses argv.
CLI_TRACED = {"run_experiment", "write_csv"}

COMPLEX_BYTES = 16


class Tracer:
    """Spans and counters for one process; single-threaded."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        # span i: (name id, start, end, parent span index or -1)
        self.spans: list = []
        self._stack: list = []  # open spans: [index, start, child seconds]
        self.calls: dict = {}
        self.self_s: dict = {}
        self.counts: dict = {}
        self.hook_errors: list = []

    def count(self, name: str, amount=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, post=None):
        """fn inside a span; post(tracer, span index, args, kwargs, result) runs after."""
        nid = self.name_id(name)
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                spans[index] = (nid, frame[1], end, parent)
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if post is not None:
                try:
                    post(self, index, args, kwargs, result)
                except Exception as exc:  # a count must never fail the job
                    self.hook_errors.append(f"{name}: {exc!r}")
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write every span as [name, start, end, parent]."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# work counts at layer boundaries; every one is computed from argument or
# result shapes, not measured


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _post_channel_apply(tr, index, args, kwargs, result):
    ch = args[0]
    d = ch.dim
    if getattr(ch, "_depol_p", None) is not None:
        # depolarizing fast path: scale rho and add to its diagonal
        tr.count("channels.apply_flops_computed", 2 * d * d + d)
        tr.count("channels.apply_bytes_computed", 2 * d * d * COMPLEX_BYTES)
        return
    for kraus, _ in getattr(ch, "factors", ()):
        m = len(kraus)
        tr.count("channels.kraus_applied", m)
        # K @ rho @ K^dag for m Kraus operators of the full dimension d:
        # 2 m d^3 complex multiply-adds of 8 real flops each
        tr.count("channels.apply_flops_computed", 16 * m * d**3)
        # each Kraus operator read once, rho read once, the result written once
        tr.count("channels.apply_bytes_computed", (m + 2) * d * d * COMPLEX_BYTES)


def _post_step_eigh(tr, index, args, kwargs, result):
    u_target = _arg(args, kwargs, 0, "u_target")
    pulse = _arg(args, kwargs, 3, "pulse")
    tr.count("control.step_eigh_computed", pulse.n_steps)
    tr.counts["control.step_eigh_dim"] = max(
        tr.counts.get("control.step_eigh_dim", 0), u_target.shape[0])


def _post_grape_optimize(tr, index, args, kwargs, result):
    tr.count("control.grape_iterations", result.iterations)
    # Each objective evaluation is one grape_fidelity call per RF scale; all
    # spans after this one's index were opened inside this call.  Every
    # evaluation after the starting point is one line-search attempt.
    fid = tr.name_id("control.grape_fidelity")
    fid_calls = sum(1 for span in tr.spans[index + 1:] if span[0] == fid)
    scales = len(_arg(args, kwargs, 3, "cfg").rf_distribution)
    tr.count("control.line_search_attempts", fid_calls // scales - 1)


def _post_twirl_shots(tr, index, args, kwargs, result):
    tr.count("twirl.shots", result.n_samples)


def _post_write_csv(tr, index, args, kwargs, result):
    tr.count("cli.write_csv.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


POST_HOOKS = {
    "channels.Channel.apply": _post_channel_apply,
    "control.grape_fidelity": _post_step_eigh,
    "control.grape_gradient": _post_step_eigh,
    "control.grape_optimize": _post_grape_optimize,
    "twirl.twirl_estimate_memory": _post_twirl_shots,
    "twirl.certify_clifford": _post_twirl_shots,
    "cli.write_csv": _post_write_csv,
}


def _layer_modules():
    importlib.import_module("nmrqip.cli")
    return {name: (name.split(".")[1], mod) for name, mod in list(sys.modules.items())
            if mod is not None and name.startswith("nmrqip.")
            and name.split(".")[1] in LAYERS}


def instrument(tracer: Tracer) -> None:
    """Wrap the public callables of every loaded layer module."""
    modules = _layer_modules()
    wrapped: dict = {}
    for modname, (layer, mod) in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                continue
            if layer == "cli" and attr not in CLI_TRACED:
                continue
            if isinstance(obj, types.FunctionType):
                name = f"{layer}.{attr}"
                wrapped[obj] = tracer.wrap(obj, name, POST_HOOKS.get(name))
            elif isinstance(obj, type):
                _instrument_class(tracer, obj, f"{layer}.{attr}")
    # rebind in every namespace that holds an original
    for _, mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])


def _instrument_class(tracer: Tracer, cls: type, prefix: str) -> None:
    if prefix == "qop.PauliString":
        init = cls.__init__

        @functools.wraps(init)
        def counted(self, *args, **kwargs):
            tracer.count("qop.PauliString.constructed")
            init(self, *args, **kwargs)

        cls.__init__ = counted
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{prefix}.{attr}"
        post = POST_HOOKS.get(name)
        if isinstance(obj, types.FunctionType):
            setattr(cls, attr, tracer.wrap(obj, name, post))
        elif isinstance(obj, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(obj.__func__, name, post)))
        elif isinstance(obj, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(obj.__func__, name, post)))


# ---------------------------------------------------------------------------
# per-layer metrics, by layer; BENCHMARK.json lists the same names

LAYER_METRICS = (
    "cli.import_s", "cli.write_csv.self_s", "cli.write_csv.bytes",
    "cli.run_experiment.self_s",
    "qop.PauliString.constructed", "qop.embed.calls", "qop.embed.self_s",
    "spins.simulate_fid.calls", "spins.simulate_fid.self_s",
    "spins.internal_hamiltonian.calls", "spins.internal_hamiltonian.self_s",
    "control.grape_gradient.calls", "control.grape_gradient.self_s",
    "control.grape_fidelity.calls", "control.grape_fidelity.self_s",
    "control.grape_iterations", "control.fidelity_evals_per_iteration",
    "control.step_eigh_computed", "control.step_eigh_dim",
    "channels.Channel.apply.calls", "channels.Channel.apply.self_s",
    "channels.kraus_applied", "channels.apply_flops_computed",
    "channels.apply_bytes_computed", "channels.Channel.from_pauli_probs.self_s",
    "channels.Channel.kraus.self_s",
    "clifford.CliffordTableau.conjugate.calls", "clifford.CliffordTableau.conjugate.self_s",
    "clifford.CliffordTableau.then.calls", "clifford.CliffordTableau.then.self_s",
    "clifford.CliffordTableau.inverse.calls", "clifford.CliffordTableau.inverse.self_s",
    "clifford.CliffordTableau.to_unitary.calls", "clifford.CliffordTableau.to_unitary.self_s",
    "clifford.sample_1q_clifford.calls",
    "twirl.twirl_estimate_memory.self_s", "twirl.certify_clifford.self_s",
    "twirl.randomized_benchmarking.self_s", "twirl.shots",
    "qec.gate_cycle_ensemble.self_s", "qec.transversal_cnot_demo.self_s",
    "experiments.xxz_scan.self_s", "experiments.product_overlap_sweep.calls",
    "experiments.product_overlap_sweep.self_s", "experiments.branch_crossing.self_s",
    "experiments.state_transfer.self_s",
)


def layer_metrics(tracer: Tracer, import_s: float) -> dict:
    """Every LAYER_METRICS value; a layer the workload never reached reads 0."""
    counts = dict(tracer.counts)
    counts["cli.import_s"] = import_s
    for name, n in tracer.calls.items():
        counts[f"{name}.calls"] = n
    for name, t in tracer.self_s.items():
        counts[f"{name}.self_s"] = t
    iters = counts.get("control.grape_iterations", 0)
    counts["control.fidelity_evals_per_iteration"] = (
        counts.get("control.line_search_attempts", 0) / iters if iters else 0.0)
    return {name: counts.get(name, 0) for name in LAYER_METRICS}


# ---------------------------------------------------------------------------
# child entry point


def run_jobs(cli, jobs, seed: int, out_root: str) -> list:
    """Run each job in this process; returns exit code, traceback and wall."""
    results = []
    for job in jobs:
        out_dir = os.path.join(out_root, job.name)
        shutil.rmtree(out_dir, ignore_errors=True)
        stderr = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                code = cli.run_experiment(job.experiment, seed=seed, out_dir=out_dir,
                                          config_doc=job.config)
        except Exception:  # a crash is a job outcome, like exit 1 in the CLI
            code = 1
            stderr.write(traceback.format_exc())
        wall = time.perf_counter() - t0
        results.append({"job": job.name, "exit": code, "wall_s": wall,
                        "stderr": stderr.getvalue()[-4000:]})
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-root", required=True)
    ap.add_argument("--mode", choices=("traced", "untraced"), required=True)
    ap.add_argument("--spans", default=None, help="write the spans here (traced mode)")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    cli = importlib.import_module("nmrqip.cli")
    import_s = time.perf_counter() - t0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from jobs import WORKLOADS

    jobs = WORKLOADS[args.workload]()
    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        instrument(tracer)
    results = run_jobs(cli, jobs, args.seed, args.out_root)
    doc = {"import_s": import_s, "jobs": results}
    if tracer is not None:
        doc["layers"] = layer_metrics(tracer, import_s)
        doc["span_count"] = len(tracer.spans)
        doc["hook_errors"] = tracer.hook_errors
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
