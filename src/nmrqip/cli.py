"""Command-line driver: JSON configs, seeded runs, CSV results, run manifests.

Every experiment here follows the same shape: defaults merged with an
optional JSON config file, all randomness drawn from one 64-bit seed, CSV
tables (one-line header, floats at 17 significant digits) plus a
manifest.json written into the output directory, and a one-line JSON summary
on stdout.  Exit codes: 0 success, 2 usage or config error (with a
machine-readable error object on stdout), 3 pulse search that stopped short
of its target fidelity.

`repro` runs the acceptance criteria with pinned seeds and reports pass/fail
per criterion.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

from . import __version__

# Only what every invocation uses is imported here: each runner imports numpy and
# its layers in its body, and each helper its own modules, so --help, --list and
# a rejected config load no numpy (only _sample_count's rule loads a layer).


def _versions() -> dict:
    from importlib.util import find_spec

    import numpy as np

    spec, ns = find_spec("scipy"), {"version": None}  # None: scipy is not installed
    if spec is not None:  # run scipy/version.py, where scipy.__version__ comes from
        with open(os.path.join(os.path.dirname(spec.origin), "version.py")) as fh:
            exec(fh.read(), ns)
    return {"nmrqip": __version__, "numpy": np.__version__, "scipy": ns["version"],
            "python": sys.version.split()[0]}


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


class ConfigError(ValueError):
    """Bad config file or bad config value; maps to exit code 2."""


def _jsonable(v):
    """Plain-python view of nested results so json.dump never sees numpy;
    a non-finite float becomes None, since JSON has no NaN or Infinity."""
    import numpy as np

    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)) or isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v) if math.isfinite(v) else None
    return v


# ---------------------------------------------------------------------------
# CSV / manifest plumbing


# rows per write, one block of a table's text held at a time: 2^16 rows of four floats
# peak at 0.35 MiB traced (5.4 MiB at 2^14 rows a block); 2^19 rows write no slower
_BLOCK_ROWS = 1 << 10


def _column(col):
    """A column's conversion and values, by dtype: bool (as 1/0) and int with %d,
    float with %.17g and -0.0 folded into 0, anything else as its str, quoted
    if it holds a comma, a quote or a line break."""
    kind = col.dtype.kind
    if kind == "f":
        return "%.17g", (col + 0.0).tolist()
    if kind in "biu":
        return "%d", col.tolist()
    return "%s", ['"%s"' % s.replace('"', '""') if any(c in s for c in ',"\r\n') else s
                  for s in map(str, col.tolist())]


def write_csv(path: str, header, columns) -> None:
    """A one-line header, then row i of the table from entry i of every column."""
    import numpy as np

    columns = [np.asarray(c) for c in columns]
    lengths = {len(c) for c in columns}
    if len(columns) != len(header) or len(lengths) > 1:
        raise ValueError(f"{len(header)} header names for columns of lengths {sorted(lengths)}")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_column(np.array(header, str))[1]) + "\n")  # names as text
        for start in range(0, max(lengths, default=0), _BLOCK_ROWS):
            specs, values = zip(*(_column(c[start:start + _BLOCK_ROWS]) for c in columns))
            fh.write("".join(map((",".join(specs) + "\n").__mod__, zip(*values))))


def _write_manifest(out_dir: str, doc: dict) -> None:
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _sha256_bytes(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _molecule_fixture(name: str):
    """(label, contents) of a bundled molecule file, for manifest hashing."""
    from importlib.resources import files

    path = files("nmrqip.data.molecules").joinpath(name + ".json")
    return f"molecule:{name}", path.read_bytes()


class RunOutput:
    """What a runner hands back for writing; a plain class, as dataclasses would slow --help."""

    def __init__(self, tables=None, summary=None, pulses=None, exit_code=0):
        self.tables = {} if tables is None else tables  # filename -> (header, columns)
        self.summary = {} if summary is None else summary
        self.pulses = {} if pulses is None else pulses  # filename -> pulse.json document
        self.exit_code = exit_code


# ---------------------------------------------------------------------------
# config schema: SCHEMA (after the runners) gives each experiment's runner,
# every key's kind, default and limits, and the cross-key rules; _resolve
# checks a whole config against it before any computation starts


def _key(kind: str, default, **limits) -> dict:
    """One schema entry; a None default admits None besides the kind's values."""
    return {"kind": kind, "default": default, "limits": limits}


def _scalar(label, v, integer=False, lo=None, hi=None, gt=None):
    """A finite number (an int if integer) with lo <= v <= hi and v > gt."""
    if isinstance(v, bool) or not isinstance(v, int if integer else (int, float)):
        raise ConfigError(f"{label} must be {'an integer' if integer else 'a number'}, got {v!r}")
    if not integer:
        if not abs(v) <= sys.float_info.max:  # NaN, +-inf, ints past the float range
            raise ConfigError(f"{label} must be a finite number, got {v!r}")
        v = float(v)
    if lo is not None and v < lo:
        raise ConfigError(f"{label} must be >= {lo}, got {v}")
    if gt is not None and v <= gt:
        raise ConfigError(f"{label} must be > {gt}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(f"{label} must be <= {hi}, got {v}")
    return v


def _parse(key: str, spec: dict, v):
    """The value of one key, checked against its schema entry."""
    kind, lim = spec["kind"], spec["limits"]
    if v is None and spec["default"] is None:
        return None
    if kind in ("number", "int"):
        return _scalar(key, v, kind == "int", **lim)
    if kind == "bool":
        if not isinstance(v, bool):
            raise ConfigError(f"{key} must be true or false, got {v!r}")
        return v
    if kind == "choice":
        if v not in lim["options"]:
            raise ConfigError(f"{key} must be one of {sorted(lim['options'])}, got {v!r}")
        return v
    if kind in ("numbers", "ints"):  # one number or a nonempty list of them
        entries = v if isinstance(v, list) else [v]
        if not entries:
            raise ConfigError(f"{key} must be a number or a nonempty list of numbers")
        return [_scalar(f"{key} entries", x, kind == "ints", **lim) for x in entries]
    if kind == "pairs":
        if not isinstance(v, list) or not all(isinstance(p, list) and len(p) == 2 for p in v):
            raise ConfigError(f"{key} must be a list of [scale, weight] number pairs")
        return tuple((_scalar(f"{key} scales", s, **lim["scale"]),
                      _scalar(f"{key} weights", w, **lim["weight"])) for s, w in v)
    # "weights": {error weight: probability mass}; JSON object keys are strings
    if not isinstance(v, dict) or not v:
        raise ConfigError(f"{key} must map error weight -> probability mass")
    out = {}
    for k, x in v.items():
        try:
            w = int(k)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{key} keys must be integers, got {k!r}") from None
        out[_scalar(f"{key} keys", w, True, **lim["keys"])] = _scalar(
            f"{key} values", x, **lim["values"])
    return out


def _resolve(name: str, user: dict, shots=None) -> dict:
    """Parsed config: unknown keys, then every key, then the cross-key rules,
    which also see the --shots count as "shots"."""
    _, keys, rules = SCHEMA[name]
    unknown = sorted(set(user) - set(keys))
    if unknown:
        raise ConfigError(
            f"unknown config keys for {name}: {unknown}; valid keys: {sorted(keys)}"
        )
    cfg = {k: _parse(k, spec, user.get(k, spec["default"])) for k, spec in keys.items()}
    seen = {**cfg, "shots": shots}
    for holds, message in rules:
        if not holds(seen):
            raise ConfigError(message.format(**seen))
    return cfg


# ---------------------------------------------------------------------------
# experiment runners; each is (parsed config, seed, shots) -> RunOutput


def _run_grape(cfg, seed, shots):
    import numpy as np
    from .clifford import gate_tableau, unitaries
    from .control import control_channels, grape_optimize, random_pulse
    from .spins import builtin_molecule

    sys_ = builtin_molecule(cfg["molecule"])
    pair = (cfg["control_qubit"], cfg["target_qubit"])
    u_target = unitaries(gate_tableau("CNOT", pair, sys_.n))
    n_steps, dt = cfg["n_steps"], cfg["dt_s"]
    u_max = 2 * math.pi * cfg["u_max_hz"]
    names, _ = control_channels(sys_)
    init = random_pulse(n_steps, len(names), u_max, seed=seed, scale=cfg["init_scale"])
    res = grape_optimize(sys_, u_target, init, dt, u_max, cfg["max_iters"],
                         cfg["target_fidelity"], cfg["gradient_mode"], cfg["rf_distribution"],
                         weak_coupling=cfg["weak_coupling"])
    steps = np.arange(n_steps)
    return RunOutput(
        tables={
            "fidelity_trace.csv": (["iteration", "fidelity"],
                                   [range(len(res.fidelities)), res.fidelities]),
            "pulse.csv": (
                ["step", "t_s"] + [f"u_{c}_rad_s" for c in names],
                [steps, steps * dt, *res.amplitudes.T],
            ),
        },
        summary={
            "fidelity": res.fidelity,
            "iterations": res.iterations,
            "evaluations": res.evaluations,
            "converged": res.converged,
            "message": res.message,
            "duration_s": n_steps * dt,
        },
        pulses={"pulse.json": {"dt_s": dt, "channels": list(names),
                               "steps": res.amplitudes.tolist()}},
        exit_code=0 if res.converged else 3,
    )


def _run_twirl(cfg, seed, shots):
    import numpy as np
    from .channels import Channel, pauli_probs_by_weight
    from .twirl import twirl_estimate_memory

    n, delta = cfg["n"], cfg["delta"]
    probs = pauli_probs_by_weight(n, cfg["weight_masses"])
    rng = np.random.default_rng(seed)
    est = twirl_estimate_memory(
        Channel(probs), delta, rng, n_samples=cfg["n_samples"],
        readout_shots=shots, with_replacement=cfg["with_replacement"],
    )
    pr0 = probs[0]
    fbar_true = (2**n * pr0 + 1) / (2**n + 1)
    row = [pr0, est.pr0_hat, abs(est.pr0_hat - pr0), est.stderr,
           est.n_samples, est.fbar, fbar_true, delta]
    return RunOutput(
        tables={"twirl.csv": (
            ["pr0_true", "pr0_hat", "abs_error", "stderr",
             "n_samples", "fbar_hat", "fbar_true", "delta"], [[v] for v in row])},
        summary={"pr0_true": pr0, "pr0_hat": est.pr0_hat, "stderr": est.stderr,
                 "n_samples": est.n_samples, "fbar_hat": est.fbar,
                 "fbar_true": fbar_true, "within_delta": bool(abs(est.pr0_hat - pr0) <= delta)},
    )


def _run_certify(cfg, seed, shots):
    import numpy as np
    from .channels import Channel
    from .clifford import gate_tableau
    from .twirl import certify_clifford

    n = cfg["n"]
    pair = (cfg["control_qubit"], cfg["target_qubit"])
    tab = gate_tableau("CNOT", pair, n)
    rng = np.random.default_rng(seed)
    rows = []
    for p in cfg["depolarizing_p"]:
        noise = Channel.depolarizing(n, p)
        est = certify_clifford(noise, tab, cfg["delta"], rng,
                               n_samples=cfg["n_samples"], readout_shots=shots)
        p_id = noise.probs[0]  # Pr(no error), the identity entry of the Pauli vector
        exact = (2**n * p_id + 1) / (2**n + 1)  # the target unitary cancels
        rows.append([p, est.fbar, exact, abs(est.fbar - exact),
                     est.stderr, est.n_samples])
    return RunOutput(
        tables={"certify.csv": (
            ["depolarizing_p", "fbar_hat", "fbar_exact", "abs_error",
             "pr0_stderr", "n_samples"], list(zip(*rows)))},
        summary={"worst_abs_error": max(r[3] for r in rows), "points": len(rows)},
    )


def _run_rb(cfg, seed, shots):
    import numpy as np
    from .channels import Channel
    from .twirl import default_rb_sampler, randomized_benchmarking, rotation_clifford_sampler

    n, r_inj = cfg["n"], cfg["error_rate"]
    sequences = shots if shots is not None else cfg["sequences"]
    sampler = (rotation_clifford_sampler() if cfg["sampler"] == "rotations"
               else default_rb_sampler(n))
    noise = Channel.depolarizing(n, r_inj / (1 - 1 / 2**n))
    rng = np.random.default_rng(seed)
    res = randomized_benchmarking(sampler, noise, cfg["lengths"], sequences, rng)
    rel = abs(res.error_rate - r_inj) / r_inj if r_inj > 0 else 0.0
    return RunOutput(
        tables={
            "survivals.csv": (["length", "survival"], [res.lengths, res.survivals]),
            "fit.csv": ([
                "amplitude", "offset", "decay", "error_rate_fit",
                "error_rate_injected", "relative_error", "ok",
            ], [[v] for v in (res.amplitude, res.offset, res.decay, res.error_rate,
                              r_inj, rel, res.ok)]),
        },
        summary={"error_rate_fit": res.error_rate, "error_rate_injected": r_inj,
                 "relative_error": rel, "ok": res.ok, "message": res.message},
    )


_CODES = ("bit-flip", "phase-flip", "five")


def _run_qec(cfg, seed, shots):
    from .qec import (bit_flip_code, five_qubit_code, gate_cycle_ensemble, phase_flip_code,
                      transversal_cnot_demo)
    from .qop import hermitian_entries, pauli_word, spin_bits

    code = {"bit-flip": bit_flip_code, "phase-flip": phase_flip_code,
            "five": five_qubit_code}[cfg["code"]]()
    gate = cfg["gate"]
    rows, mean_unc, mean_corr = gate_cycle_ensemble(code, gate)
    errs, f_unc, f_corr = zip(*rows)
    out = RunOutput(
        tables={"qec.csv": (["error", "fidelity_uncorrected", "fidelity_corrected"],
                            [[pauli_word(code.n_physical, e) for e in errs], f_unc, f_corr])},
        summary={"code": cfg["code"], "gate": gate,
                 "mean_uncorrected": mean_unc, "mean_corrected": mean_corr},
    )
    if cfg["transversal_demo"]:
        demo = []
        for variant in ("bad", "transversal"):
            for q in range(1, 4):
                for letter in ("X", "Y", "Z"):
                    x, z = spin_bits(letter, q, 3)
                    e = int(hermitian_entries(3, x << 3 | z))
                    demo.append([variant, pauli_word(3, e), transversal_cnot_demo(variant, e)])
        out.tables["transversal.csv"] = (
            ["variant", "control_block_error", "target_block_weight"], list(zip(*demo)))
        out.summary["max_weight_bad"] = max(r[2] for r in demo if r[0] == "bad")
        out.summary["max_weight_transversal"] = max(
            r[2] for r in demo if r[0] == "transversal")
    return out


def _run_distill(cfg, seed, shots):
    from .qec import distill_magic, distillation_threshold

    rounds = cfg["rounds"]
    rows = []
    for p in cfg["p_values"]:
        res = distill_magic(p, rounds=rounds)
        rows.append([p, res.p_out, res.success_probability, res.p_out > p])
    out = RunOutput(
        tables={"distill.csv": (
            ["p_in", "p_out", "success_probability", "improved"], list(zip(*rows)))},
        summary={"rounds": rounds},
    )
    if cfg["find_threshold"]:
        thr = distillation_threshold()
        out.tables["threshold.csv"] = (["threshold"], [[thr]])
        out.summary["threshold"] = thr
    return out


def _run_dqc1(cfg, seed, shots):
    import numpy as np
    from .experiments.dqc1 import (Dqc1Instance, block_trace_direct, control_target_ppt,
                                   dqc1_block_trace, dqc1_trace, haar_block_unitary)
    from .qop import haar_random_unitary

    n, epsilon = cfg["n"], cfg["epsilon"]
    rng = np.random.default_rng(seed)
    u = haar_random_unitary(2**n, rng)
    inst = Dqc1Instance(u, epsilon=epsilon, shots=shots)
    est = dqc1_trace(inst, rng=rng if shots is not None else None)
    exact = complex(np.trace(u)) / 2**n
    row = [n, epsilon, 0 if shots is None else shots,
           exact.real, exact.imag, est.real, est.imag, abs(est - exact)]
    header = ["n", "epsilon", "shots", "trace_re_exact", "trace_im_exact",
              "trace_re_est", "trace_im_est", "abs_error"]
    if cfg["ppt"]:
        row.append(control_target_ppt(Dqc1Instance(u, epsilon=epsilon)))
        header.append("ppt_min_eigenvalue")
    out = RunOutput(
        tables={"dqc1.csv": (header, [[v] for v in row])},
        summary={"n": n, "abs_error": abs(est - exact),
                 "trace_re": exact.real, "trace_im": exact.imag},
    )
    theta, eps2 = cfg["theta"], cfg["epsilon2"]
    if theta is not None:
        ub = haar_block_unitary(2 ** (n - 1), rng)
        got = dqc1_block_trace(ub, theta, epsilon, eps2, shots=shots,
                               rng=rng if shots is not None else None)
        ref = block_trace_direct(ub, theta, eps2)
        out.tables["block_trace.csv"] = (
            ["theta", "epsilon2", "est_re", "est_im", "ref_re", "ref_im", "abs_error"],
            [[theta], [eps2], [got.real], [got.imag], [ref.real], [ref.imag], [abs(got - ref)]])
        out.summary["block_abs_error"] = abs(got - ref)
    return out


def _run_contextuality(cfg, seed, shots):
    import numpy as np
    from .channels import Channel
    from .experiments.contextuality import classical_max_beta, contextuality_beta
    from .qop import haar_random_state

    rng = np.random.default_rng(seed)
    if cfg["state"] == "mixed":
        state = np.eye(4, dtype=complex) / 4
    else:
        kets = [haar_random_state(4, rng) for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        state = sum(wi * np.outer(k, k.conj()) for wi, k in zip(w, kets))
    method, noise_p = cfg["method"], cfg["noise_p"]
    noise = None if noise_p is None else Channel.depolarizing(1, noise_p)
    res = contextuality_beta(state, noise=noise, method=method)
    classical = classical_max_beta()
    row = [res.beta, classical, method, 0.0 if noise_p is None else noise_p]
    row += list(res.rows) + list(res.columns)
    return RunOutput(
        tables={"contextuality.csv": (
            ["beta", "classical_max", "method", "noise_p",
             "row1", "row2", "row3", "col1", "col2", "col3"], [[v] for v in row])},
        summary={"beta": res.beta, "classical_max": classical,
                 "quantum_excess": res.beta - classical},
    )


def _run_weak(cfg, seed, shots):
    from .experiments.weakvalue import amplified_pair, weak_value, weak_value_exact

    target = cfg["target_value"]
    psi, phi = amplified_pair(target)
    exact = weak_value_exact(psi, "z", phi)
    rows = []
    for g in cfg["couplings"]:
        est = weak_value(psi, "z", phi, g)
        rows.append([g, est.real, est.imag, exact.real, exact.imag,
                     abs(est - exact), 5 * g])
    return RunOutput(
        tables={"weak.csv": (
            ["g", "est_re", "est_im", "exact_re", "exact_im",
             "abs_error", "error_budget"], list(zip(*rows)))},
        summary={"target_value": target,
                 "worst_abs_error": max(r[5] for r in rows)},
    )


def _run_ising(cfg, seed, shots):
    import numpy as np
    from .experiments.ising import ising_ground, magnetization_steps

    j = cfg["j"]
    res = ising_ground(j, np.linspace(cfg["h_min"], cfg["h_max"], cfg["n_points"]))
    out = RunOutput(
        tables={"ising.csv": (
            ["h", "magnetization", "entropy_bits", "degeneracy"],
            [res.h_values, res.magnetization, res.entropy_bits, res.degeneracy])},
        summary={"j": j,
                 "magnetization_values": sorted({round(float(m), 9)
                                                 for m in res.magnetization})},
    )
    if cfg["locate_steps"]:
        steps = magnetization_steps(j, tol=cfg["step_tol"])
        out.tables["steps.csv"] = (["h_step"], [steps])
        out.summary["steps"] = list(steps)
    return out


def _run_xxz(cfg, seed, shots):
    import numpy as np
    from .experiments.xxz import branch_crossing, ge_jump_location, xxz_scan

    n = cfg["n"]
    rng = np.random.default_rng(seed)
    gammas = np.linspace(cfg["gamma_min"], cfg["gamma_max"], cfg["n_points"])
    scan = xxz_scan(n, gammas, rng, n_restarts=cfg["n_restarts"])
    out = RunOutput(
        tables={"xxz.csv": (
            ["gamma", "lambda2", "ge_bits", "ferro_overlap",
             "equatorial_overlap", "neel_overlap", "degeneracy"],
            [scan.gammas, scan.lambda2, scan.ge, scan.ferro,
             scan.equatorial, scan.neel, scan.degeneracy])},
        summary={"n": n},
    )
    features = []
    if cfg["locate_jump"]:
        jump = ge_jump_location(scan)
        features.append(["ge_jump", jump])
        out.summary["ge_jump_gamma"] = jump
    if cfg["locate_crossing"]:
        cross = branch_crossing(n)
        features.append(["branch_crossing", cross])
        out.summary["branch_crossing_gamma"] = cross
    if features:
        out.tables["features.csv"] = (["feature", "gamma"], list(zip(*features)))
    return out


def _run_transfer(cfg, seed, shots):
    from .experiments.transfer import (TransferChain, dipolar_couplings, entangle_ends,
                                       state_transfer)

    n, iterations, mode = cfg["n"], cfg["iterations"], cfg["mode"]
    chain = TransferChain(n, dipolar_couplings(n, cfg["coupling_strength"]), cfg["tau"])
    if mode == "transfer":
        res = state_transfer(chain, iterations=iterations, alpha=cfg["alpha"], beta=cfg["beta"])
        summary = {"final_fidelity": res.fidelity, "theta": res.theta,
                   "stalled": res.stalled,
                   "max_excitation_drift": res.max_excitation_drift}
    else:
        res = entangle_ends(chain, iterations)
        summary = {"final_fidelity": res.fidelities[-1],
                   "extraction_residual": res.extraction_residual}
    return RunOutput(
        tables={"transfer.csv": (["iteration", "fidelity"],
                                 [range(len(res.fidelities)), res.fidelities])},
        summary={"mode": mode, **summary},
    )


def _run_spectrum(cfg, seed, shots):
    import numpy as np
    from .qop import collective_rotation
    from .spins import builtin_molecule, make_pps, simulate_fid, spectrum, thermal_state

    sys_ = builtin_molecule(cfg["molecule"])
    if cfg["state"] == "pps":
        rho = make_pps(sys_.n, cfg["epsilon"])
    else:
        rho = thermal_state(sys_, cfg["beta_scaled"])
    if cfg["pulse"] == "y90":
        u = collective_rotation("y", np.pi / 2, sys_.n)
        rho = u @ rho @ u.conj().T
    duration, n_samples = cfg["duration_s"], cfg["n_samples"]
    fid = simulate_fid(rho, sys_, duration, n_samples, weak_coupling=cfg["weak_coupling"])
    freqs, amps = spectrum(fid, n_samples / duration)
    ts = np.arange(n_samples) * (duration / n_samples)
    # an all-zero spectrum (no pulse on a diagonal state) has no peak
    peak = float(freqs[int(np.argmax(np.abs(amps)))]) if np.any(amps) else None
    # Python's complex abs per value (np.abs differs in the last digit), a block at a time
    power = np.fromiter((abs(a) ** 2 for s in range(0, len(amps), _BLOCK_ROWS)
                         for a in amps[s:s + _BLOCK_ROWS].tolist()), float, len(amps))
    return RunOutput(
        tables={
            "fid.csv": (["t_s", "fid_re", "fid_im"], [ts, fid.real, fid.imag]),
            "spectrum.csv": (["freq_hz", "amp_re", "amp_im", "power"],
                             [freqs, amps.real, amps.imag, power]),
        },
        summary={"molecule": cfg["molecule"],
                 "peak_freq_hz": peak},
    )


_MOLECULES = ("chloroform2", "malonate3", "crotonic4", "chain7")


def _cnot_fits(n_of):
    """Cross-key rule: distinct control and target qubits, both in 1..n_of(cfg)."""
    return (lambda c: c["control_qubit"] != c["target_qubit"]
            and max(c["control_qubit"], c["target_qubit"]) <= n_of(c))


def _molecule_n(c) -> int:
    """Spin count of the config's bundled molecule, read without loading spins."""
    return int(json.loads(_molecule_fixture(c["molecule"])[1])["n"])


def _sample_count(c) -> int:
    """Pauli samples a twirl or certify run draws: n_samples, else Hoeffding's."""
    if c["n_samples"] is None:
        from .twirl import recommended_samples

        return recommended_samples(c["n"], c["delta"])
    return c["n_samples"]


# a run keeps a few index and value arrays per shot: 10^6 shots at n = 3
# peak at about 66 MB under tracemalloc
_MAX_SAMPLES = 1_000_000
_SAMPLE_CAP = (lambda c: _sample_count(c) <= _MAX_SAMPLES,
               "delta={delta} needs more than 10^6 samples; set n_samples or a larger delta")


# Per experiment: (runner, {key: _key(kind, default, limits)}, ((holds, message), ...)).
# Kinds: number (finite float), int, bool, choice (options), numbers / ints (one
# value or a nonempty list), pairs ([scale, weight] list) and weights ({error
# weight: mass}).  Limits lo and hi are inclusive, gt exclusive; every int has
# an upper limit, so no size numpy cannot allocate reaches it.  A key whose
# default is None also takes None.  A rule holds on the parsed config plus
# the --shots count as "shots", and its message is formatted with them.
SCHEMA = {
    "grape": (_run_grape, {
        "molecule": _key("choice", "chloroform2", options=_MOLECULES),
        "target": _key("choice", "cnot", options=("cnot",)),
        "control_qubit": _key("int", 1, lo=1, hi=7),
        "target_qubit": _key("int", 2, lo=1, hi=7),
        "n_steps": _key("int", 250, lo=2, hi=10_000),
        # the step eigh stops converging as dt, u_max or an RF scale nears 1e308
        "dt_s": _key("number", 2e-5, lo=1e-9, hi=1.0),
        "u_max_hz": _key("number", 1.0e4, lo=1.0, hi=1e9),
        "max_iters": _key("int", 2000, lo=1, hi=1_000_000),
        "target_fidelity": _key("number", 0.99, lo=1e-6, hi=1.0),
        "gradient_mode": _key("choice", "exact", options=("exact", "finite-difference")),
        "init_scale": _key("number", 0.01, lo=0.0, hi=1.0),
        "rf_distribution": _key("pairs", [[1.0, 1.0]], scale={"gt": 0.0, "hi": 10.0},
                                weight={"lo": 0.0, "hi": 1.0}),
        "weak_coupling": _key("bool", True),
    }, (
        (_cnot_fits(_molecule_n),
         "bad control/target pair ({control_qubit}, {target_qubit}) for {molecule}"),
        (lambda c: abs(sum(w for _, w in c["rf_distribution"]) - 1.0) <= 1e-9,
         "rf_distribution weights must sum to 1"),
        # GRAPE on chain7 holds about 0.5 MiB per step and RF scale over about
        # 44 MB for the process (145 MB peak RSS for 200 steps x 1 scale);
        # 2^23 admits 512 there, about 300 MB
        (lambda c: (c["n_steps"] * len(c["rf_distribution"])
                    * 4 ** _molecule_n(c) <= 2**23),
         "n_steps x rf_distribution scales x 4^n must be <= 2^23 for {molecule}"),
    )),
    "twirl": (_run_twirl, {
        "n": _key("int", 3, lo=1, hi=7),
        "weight_masses": _key("weights", {"1": 0.38, "2": 0.14, "3": 0.04},
                              keys={"lo": 1, "hi": 7}, values={"lo": 0.0, "hi": 1.0}),
        "delta": _key("number", 0.02, lo=1e-6, hi=0.499),
        "n_samples": _key("int", None, lo=1, hi=_MAX_SAMPLES),
        "with_replacement": _key("bool", True),
    }, (
        (lambda c: max(c["weight_masses"]) <= c["n"],
         "weight_masses error weights must lie in 1..{n}"),
        (lambda c: sum(c["weight_masses"].values()) <= 1 + 1e-12,
         "weight_masses class masses sum to more than 1"),
        _SAMPLE_CAP,
        (lambda c: c["with_replacement"] or _sample_count(c) <= 4 ** c["n"] - 1,
         "without replacement at most 4^n - 1 distinct Paulis can be drawn; "
         "set n_samples or a larger delta"),
    )),
    "certify": (_run_certify, {
        "gate": _key("choice", "cnot", options=("cnot",)),
        "n": _key("int", 2, lo=1, hi=4),
        "control_qubit": _key("int", 1, lo=1, hi=4),
        "target_qubit": _key("int", 2, lo=1, hi=4),
        "depolarizing_p": _key("numbers", [0.05, 0.1, 0.2], lo=0.0),
        "delta": _key("number", 0.02, lo=1e-6, hi=0.499),
        "n_samples": _key("int", None, lo=1, hi=_MAX_SAMPLES),
    }, (
        _SAMPLE_CAP,
        (lambda c: c["n"] >= 2, "the cnot target needs n >= 2"),
        (_cnot_fits(lambda c: c["n"]),
         "bad control/target pair ({control_qubit}, {target_qubit}) for n={n}"),
        (lambda c: max(c["depolarizing_p"]) <= 4 ** c["n"] / (4 ** c["n"] - 1),
         "depolarizing_p entries must be <= 4^n/(4^n - 1), the channel's range for n={n}"),
    )),
    "rb": (_run_rb, {
        "n": _key("int", 3, lo=1, hi=5),
        "lengths": _key("ints", [1, 2, 4, 8, 16, 32, 64, 96], lo=1, hi=100_000),
        "sequences": _key("int", 30, lo=1, hi=1_000_000),
        "error_rate": _key("number", 0.0047, lo=0.0, hi=0.5),
        "sampler": _key("choice", "generators", options=("generators", "rotations")),
    }, (
        (lambda c: all(a < b for a, b in zip(c["lengths"], c["lengths"][1:])),
         "lengths must be increasing positive integers"),
        (lambda c: c["sampler"] != "rotations" or c["n"] == 1,
         "the rotations sampler is single-qubit only"),
        # at about 54 ns per gate, 10^10 gates take about 9 minutes
        (lambda c: sum(c["lengths"]) * (c["shots"] or c["sequences"]) <= 10**10,
         "sum(lengths) x sequences (--shots if given) must be <= 10^10 gates"),
    )),
    "qec": (_run_qec, {
        "code": _key("choice", "five", options=_CODES),
        "gate": _key("choice", "X", options=("I", "X", "Z", "H")),
        "transversal_demo": _key("bool", True),
    }, ()),
    "distill": (_run_distill, {
        "p_values": _key("numbers", [0.3, 0.5, 0.8, 0.9, 0.95, 1.0], lo=-1.0, hi=1.0),
        "rounds": _key("int", 1, lo=1, hi=10),
        "find_threshold": _key("bool", True),
    }, ()),
    "dqc1": (_run_dqc1, {
        "n": _key("int", 3, lo=1, hi=6),
        "epsilon": _key("number", 1.0, lo=1e-9, hi=1.0),
        "theta": _key("number", None, lo=0.0, hi=math.pi),
        "epsilon2": _key("number", 1.0, lo=1e-9, hi=1.0),
        "ppt": _key("bool", True),
    }, (
        (lambda c: c["theta"] is None or c["n"] >= 2,
         "the block-trace variant needs n >= 2"),
    )),
    "contextuality": (_run_contextuality, {
        "state": _key("choice", "mixed", options=("mixed", "random")),
        "method": _key("choice", "meter", options=("direct", "meter")),
        "noise_p": _key("number", None, lo=0.0, hi=1.0),
    }, (
        # the 1-spin channel acts on the meter, which the direct method lacks
        (lambda c: c["noise_p"] is None or c["method"] == "meter",
         "noise_p needs method meter"),
    )),
    "weak": (_run_weak, {
        # the post-selection overlap is 1/target_value and the success
        # probability at least its square; weak_value floors them at 1e-6 and
        # 1e-12, and 1e5 leaves room for rounding
        "target_value": _key("number", 2.3, lo=1.0 + 1e-9, hi=1e5),
        # the meter turns by g/2, so g = pi is already a projective readout
        "couplings": _key("numbers", [0.02, 0.05, 0.1, 0.2], lo=1e-12, hi=math.pi),
    }, ()),
    "ising": (_run_ising, {
        # j <= 1e3 keeps the step bisection's span (3 j) fine enough for step_tol
        "j": _key("number", 1.0, lo=1e-12, hi=1e3),
        # past |h| = 2j the ground state is polarized; 1e6 keeps h diag(M) far from overflow
        "h_min": _key("number", -3.0, lo=-1e6, hi=1e6),
        "h_max": _key("number", 3.0, lo=-1e6, hi=1e6),
        "n_points": _key("int", 121, lo=2, hi=1_000_000),
        "locate_steps": _key("bool", True),
        "step_tol": _key("number", 1e-6, lo=1e-12, hi=1e-2),
    }, (
        (lambda c: c["h_max"] > c["h_min"], "h_max must exceed h_min"),
    )),
    "xxz": (_run_xxz, {
        "n": _key("int", 4, lo=2, hi=7),
        # near |gamma| = 1e308 the ground-state energies overflow
        "gamma_min": _key("number", -2.0, lo=-1e6, hi=1e6),
        "gamma_max": _key("number", 2.0, lo=-1e6, hi=1e6),
        "n_points": _key("int", 41, lo=2, hi=100_000),
        "n_restarts": _key("int", 8, lo=1, hi=256),
        "locate_jump": _key("bool", True),
        "locate_crossing": _key("bool", True),
    }, (
        (lambda c: c["gamma_max"] > c["gamma_min"], "gamma_max must exceed gamma_min"),
        (lambda c: not c["locate_crossing"] or (c["n"] >= 4 and c["n"] % 2 == 0),
         "locate_crossing needs an even n >= 4 (an odd ring has no alternating "
         "product state; on 2 sites the two families tie), got n={n}"),
    )),
    "transfer": (_run_transfer, {
        "n": _key("int", 4, lo=2, hi=8),
        # near 1e308 the relay propagator turns into NaN
        "tau": _key("number", 0.4, lo=1e-9, hi=1e6),
        "coupling_strength": _key("number", 1.0, lo=1e-12, hi=1e6),
        "iterations": _key("int", 100, lo=1, hi=100000),
        "mode": _key("choice", "transfer", options=("transfer", "entangle")),
        "alpha": _key("number", 0.0),
        "beta": _key("number", 1.0),
    }, (
        # state_transfer normalizes the input amplitudes by their norm
        (lambda c: c["mode"] != "transfer" or math.hypot(c["alpha"], c["beta"]) >= 1e-15,
         "alpha and beta must not both be 0"),
    )),
    "spectrum": (_run_spectrum, {
        "molecule": _key("choice", "chloroform2", options=_MOLECULES),
        "state": _key("choice", "pps", options=("pps", "thermal")),
        "epsilon": _key("number", 1.0, lo=1e-12, hi=1.0),
        "beta_scaled": _key("number", 1e-5, lo=0.0),
        "pulse": _key("choice", "y90", options=("y90", "none")),
        # at 1e308 the FID samples turn into NaN
        "duration_s": _key("number", 0.5, lo=1e-6, hi=1e6),
        "n_samples": _key("int", 2048, lo=2, hi=1 << 20),
        "weak_coupling": _key("bool", True),
    }, ()),
}

EXPERIMENTS = {name: run for name, (run, _, _) in SCHEMA.items()}
DEFAULT_CONFIGS = {name: {k: spec["default"] for k, spec in keys.items()}
                   for name, (_, keys, _) in SCHEMA.items()}


def run(name: str, seed: int = 0, **config):
    """Summary and tables of the run `nmrqip <name>` makes at the given seed
    and config overrides, in process and without readout shots; each table
    is {column name: column}."""
    out = EXPERIMENTS[name](_resolve(name, config), seed, None)
    return out.summary, {fname: dict(zip(header, columns))
                         for fname, (header, columns) in out.tables.items()}


# ---------------------------------------------------------------------------
# driver


def _error_json(message: str, **extra) -> int:
    """Print the one-line JSON error document; returns exit code 2."""
    print(json.dumps({"error": message, **extra}, sort_keys=True, allow_nan=False))
    return 2


def _valid_names():
    return sorted(EXPERIMENTS) + ["repro"]


def _build_parser(name: str) -> argparse.ArgumentParser:
    import argparse

    ap = argparse.ArgumentParser(prog=f"nmrqip {name}")
    ap.error = lambda message: sys.exit(_error_json(message, experiment=name))  # JSON, not usage
    ap.add_argument("--config", help="JSON config file merged over the defaults")
    ap.add_argument("--seed", type=int, default=0, help="64-bit run seed")
    ap.add_argument("--out", help="output directory, default runs/<experiment> "
                                  "(NMRQIP_OUT_DIR overrides)")
    ap.add_argument("--shots", type=int, default=None,
                    help="finite readout shots where the experiment supports them")
    ap.add_argument("--list", action="store_true",
                    help="print the resolved default config without running")
    return ap


def run_experiment(name: str, config_path=None, seed: int = 0,
                   out_dir=None, shots=None, config_doc=None) -> int:
    """Programmatic entry point; same contract as the CLI."""
    user_cfg = {}
    if config_doc is not None:
        user_cfg = dict(config_doc)
    elif config_path is not None:
        try:
            with open(config_path) as fh:
                user_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return _error_json(f"cannot load config {config_path}: {exc}")
        if not isinstance(user_cfg, dict):
            return _error_json("config must be a JSON object")
    # rb runs `shots` sequences; numpy's binomial readouts take < 2^63 shots
    top = SCHEMA["rb"][1]["sequences"]["limits"]["hi"] if name == "rb" else 2**63 - 1
    if shots is not None and not 1 <= shots <= top:
        return _error_json(f"shots must be an integer in 1..{top}")
    if not 0 <= seed < 2**64:
        return _error_json("seed must fit in 64 bits")

    out_dir = os.environ.get("NMRQIP_OUT_DIR") or out_dir
    if out_dir is None:
        out_dir = os.path.join("runs", name)

    try:
        cfg = _resolve(name, user_cfg, shots)
        import numpy  # noqa: F401  before the clock: wall_time_s leaves out numpy's import
        t0 = time.perf_counter()
        result = EXPERIMENTS[name](cfg, seed, shots)
        wall = time.perf_counter() - t0
    except ConfigError as exc:
        return _error_json(str(exc), experiment=name)

    t0 = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    for fname, (header, columns) in result.tables.items():
        write_csv(os.path.join(out_dir, fname), header, columns)
    for fname, doc in result.pulses.items():
        with open(os.path.join(out_dir, fname), "w") as fh:
            json.dump(doc, fh)
    write_time = time.perf_counter() - t0

    fixture_hashes = {}
    if "molecule" in cfg:
        label, raw = _molecule_fixture(cfg["molecule"])
        fixture_hashes[label] = _sha256_bytes(raw)
    if config_path is not None:
        with open(config_path, "rb") as fh:
            fixture_hashes["config"] = _sha256_bytes(fh.read())
    _write_manifest(out_dir, {
        "experiment": name,
        "seed": seed,
        "shots": shots,
        "config_path": None if config_path is None else os.path.abspath(config_path),
        "config": _jsonable({**DEFAULT_CONFIGS[name], **user_cfg}),
        "fixture_hashes": fixture_hashes,
        "output_paths": [*result.tables, *result.pulses],
        "wall_time_s": wall,
        "write_time_s": write_time,
        "peak_rss_mb": _peak_rss_mb(),
        "versions": _versions(),
        "summary": _jsonable(result.summary),
    })
    print(json.dumps({"experiment": name, "exit": result.exit_code,
                      "out_dir": out_dir, **_jsonable(result.summary)},
                     sort_keys=True, allow_nan=False))
    return result.exit_code


def _repro_main(argv) -> int:
    import argparse

    ap = argparse.ArgumentParser(prog="nmrqip repro")
    ap.error = lambda message: sys.exit(_error_json(message, experiment="repro"))
    ap.add_argument("--list", action="store_true",
                    help="enumerate the criteria without running them")
    ap.add_argument("--only", action="append", default=None,
                    help="run a single named criterion (repeatable)")
    ap.add_argument("--seed", type=int, default=0, help="base seed for the pinned runs")
    ap.add_argument("--out", default=None,
                    help="optionally write criteria.csv + manifest here")
    args = ap.parse_args(argv)
    top = 2**64 - 1 - 1200  # xxz-ge adds 1200, the most a criterion adds, to the base seed
    if not 0 <= args.seed <= top:
        return _error_json(f"seed {args.seed} is not in 0..{top}", experiment="repro")
    from . import acceptance  # after parsing: a usage error loads no numpy

    names = list(acceptance.CRITERIA)
    if args.list:
        for name in names:
            print(name)
        return 0
    if args.only:
        unknown = sorted(set(args.only) - set(names))
        if unknown:
            return _error_json(f"unknown criteria: {unknown}", valid=names)
        names = [n for n in names if n in set(args.only)]

    results = []
    width = max(len(n) for n in names)
    for name in names:
        res = acceptance.run_criterion(name, base_seed=args.seed)
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(f"{name:<{width}}  {status}  measured {res.measured}  "
              f"expected {res.expected}  [{res.runtime_s:.1f}s]")

    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")

    out_dir = os.environ.get("NMRQIP_OUT_DIR") or args.out
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "criteria.csv"),
                  ["criterion", "passed", "measured", "expected"],
                  list(zip(*[(r.name, r.passed, r.measured, r.expected) for r in results])))
        _write_manifest(out_dir, {
            "experiment": "repro",
            "seed": args.seed,
            "criteria": {r.name: bool(r.passed) for r in results},
            "wall_time_s": sum(r.runtime_s for r in results),
            "runtime_s": {r.name: r.runtime_s for r in results},
            "peak_rss_mb": _peak_rss_mb(),
            "details": {r.name: _jsonable(r.details) for r in results},
            "versions": _versions(),
        })
    return 0 if n_pass == len(results) else 1


def main(argv=None) -> int:
    # one BLAS thread unless the caller set one, before numpy loads: CSV bytes depend on it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: nmrqip <experiment> --config PATH --seed N --out DIR"
              " [--shots K] [--list]")
        print("experiments:", " ".join(_valid_names()))
        return 0 if argv else 2
    name = argv[0]
    if name == "repro":
        return _repro_main(argv[1:])
    if name not in EXPERIMENTS:
        return _error_json(f"unknown experiment {name!r}", valid=_valid_names())
    args = _build_parser(name).parse_args(argv[1:])
    if args.list:
        print(json.dumps({"experiment": name, "defaults": DEFAULT_CONFIGS[name]},
                         indent=2, sort_keys=True, allow_nan=False))
        return 0
    return run_experiment(name, config_path=args.config, seed=args.seed,
                          out_dir=args.out, shots=args.shots)


if __name__ == "__main__":
    raise SystemExit(main())
