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

import argparse
import csv
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from importlib.resources import files as _resource_files

import numpy as np
import scipy  # for versions.scipy only; subpackages load where they are used

from . import __version__
from .channels import Channel, pauli_probs_by_weight
from .clifford import circuit_unitary, gate_tableau
from .control import (
    GrapeConfig,
    control_channels,
    grape_optimize,
    random_pulse,
    save_pulse,
)
from .experiments import (
    Dqc1Instance,
    TransferChain,
    amplified_pair,
    block_trace_direct,
    branch_crossing,
    classical_max_beta,
    contextuality_beta,
    control_target_ppt,
    dipolar_couplings,
    dqc1_block_trace,
    dqc1_trace,
    entangle_ends,
    ge_jump_location,
    ising_ground,
    magnetization_steps,
    state_transfer,
    weak_value,
    weak_value_exact,
    xxz_scan,
)
from .qec import (
    bit_flip_code,
    distill_magic,
    distillation_threshold,
    five_qubit_code,
    gate_cycle_ensemble,
    phase_flip_code,
    transversal_cnot_demo,
)
from .qop import (
    PauliString,
    average_gate_fidelity_exact,
    haar_random_state,
    haar_random_unitary,
)
from .spins import builtin_molecule, make_pps, simulate_fid, spectrum, spin_op, thermal_state
from .twirl import (
    certify_clifford,
    default_rb_sampler,
    randomized_benchmarking,
    rotation_clifford_sampler,
    twirl_estimate_memory,
)


class ConfigError(ValueError):
    """Bad config file or bad config value; maps to exit code 2."""


def _jsonable(v):
    """Plain-python view of nested results so json.dump never sees numpy."""
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)) or isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    return v


# ---------------------------------------------------------------------------
# CSV / manifest plumbing


def format_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % (float(v) + 0.0)  # +0.0 folds -0.0 into 0
    return str(v)


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if len(row) != len(header):
                raise ValueError(f"row width {len(row)} != header width {len(header)}")
            writer.writerow([format_cell(v) for v in row])


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _molecule_fixture(name: str):
    """(label, contents) of a bundled molecule file, for manifest hashing."""
    path = _resource_files("nmrqip.data.molecules").joinpath(name + ".json")
    return f"molecule:{name}", path.read_bytes()


@dataclass
class RunOutput:
    """What a runner hands back to the harness for writing."""

    tables: dict = field(default_factory=dict)  # filename -> (header, rows)
    summary: dict = field(default_factory=dict)
    fixtures: dict = field(default_factory=dict)  # label -> bytes to hash
    pulses: dict = field(default_factory=dict)  # filename -> ControlPulse
    exit_code: int = 0


def _merge_config(name: str, user: dict) -> dict:
    defaults = DEFAULT_CONFIGS[name]
    unknown = sorted(set(user) - set(defaults))
    if unknown:
        raise ConfigError(
            f"unknown config keys for {name}: {unknown}; "
            f"valid keys: {sorted(defaults)}"
        )
    out = dict(defaults)
    out.update(user)
    return out


def _require_number(cfg, key, lo=None, hi=None):
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{key} must be a number, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(f"{key} must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(f"{key} must be <= {hi}, got {v}")
    return float(v)


def _require_int(cfg, key, lo=None, hi=None):
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(f"{key} must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(f"{key} must be <= {hi}, got {v}")
    return int(v)


def _require_bool(cfg, key):
    v = cfg[key]
    if not isinstance(v, bool):
        raise ConfigError(f"{key} must be true or false, got {v!r}")
    return v


def _choice(cfg, key, options):
    v = cfg[key]
    if v not in options:
        raise ConfigError(f"{key} must be one of {sorted(options)}, got {v!r}")
    return v


def _float_list(cfg, key):
    v = cfg[key]
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return [float(v)]
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{key} must be a number or a nonempty list of numbers")
    out = []
    for x in v:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ConfigError(f"{key} entries must be numbers, got {x!r}")
        out.append(float(x))
    return out


# ---------------------------------------------------------------------------
# gate targets shared by grape / certify


def _cnot_unitary(control: int, target: int, n: int) -> np.ndarray:
    """Computational-basis CNOT; qubit 1 is the most significant bit."""
    if control == target or not (1 <= control <= n and 1 <= target <= n):
        raise ConfigError(f"bad control/target pair ({control}, {target}) for n={n}")
    return circuit_unitary([("CNOT", (control, target))], n)


# ---------------------------------------------------------------------------
# experiment runners; each is (config, seed, shots) -> RunOutput


def _run_grape(cfg, seed, shots):
    sys_ = builtin_molecule(_choice(cfg, "molecule", _MOLECULES))
    _choice(cfg, "target", ("cnot",))
    control = _require_int(cfg, "control_qubit", 1, sys_.n)
    target = _require_int(cfg, "target_qubit", 1, sys_.n)
    u_target = _cnot_unitary(control, target, sys_.n)
    n_steps = _require_int(cfg, "n_steps", 2)
    dt = _require_number(cfg, "dt_s", 1e-9)
    u_max = 2 * np.pi * _require_number(cfg, "u_max_hz", 1.0)
    rf = cfg["rf_distribution"]
    if not isinstance(rf, list) or not all(
        isinstance(p, list) and len(p) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in p)
        for p in rf
    ):
        raise ConfigError("rf_distribution must be a list of [scale, weight] number pairs")
    rf = tuple((float(s), float(w)) for s, w in rf)
    if abs(sum(w for _, w in rf) - 1.0) > 1e-9:
        raise ConfigError("rf_distribution weights must sum to 1")
    gcfg = GrapeConfig(
        max_iters=_require_int(cfg, "max_iters", 1),
        target_fidelity=_require_number(cfg, "target_fidelity", 1e-6, 1.0),
        gradient_mode=_choice(cfg, "gradient_mode", ("exact", "finite-difference")),
        rf_distribution=rf,
        u_max=u_max,
        seed=seed,
    )
    names, _ = control_channels(sys_)
    init = random_pulse(
        n_steps, dt, names, u_max=u_max, seed=seed,
        scale=_require_number(cfg, "init_scale", 0.0, 1.0),
    )
    res = grape_optimize(sys_, u_target, init, gcfg,
                         weak_coupling=_require_bool(cfg, "weak_coupling"))
    trace_rows = [[i, f] for i, f in enumerate(res.fidelities)]
    amps = res.pulse.amplitudes
    pulse_rows = [
        [m, m * dt] + [amps[m, k] for k in range(amps.shape[1])]
        for m in range(amps.shape[0])
    ]
    label, raw = _molecule_fixture(cfg["molecule"])
    return RunOutput(
        tables={
            "fidelity_trace.csv": (["iteration", "fidelity"], trace_rows),
            "pulse.csv": (
                ["step", "t_s"] + [f"u_{c}_rad_s" for c in res.pulse.channels],
                pulse_rows,
            ),
        },
        summary={
            "fidelity": res.fidelity,
            "iterations": res.iterations,
            "converged": res.converged,
            "message": res.message,
            "duration_s": res.pulse.duration,
        },
        fixtures={label: raw},
        pulses={"pulse.json": res.pulse},
        exit_code=0 if res.converged else 3,
    )


def _pauli_channel_from_cfg(cfg):
    n = _require_int(cfg, "n", 1, 7)
    masses = cfg["weight_masses"]
    if not isinstance(masses, dict) or not masses:
        raise ConfigError("weight_masses must map error weight -> probability mass")
    try:
        parsed = {int(k): float(v) for k, v in masses.items()}
        probs = pauli_probs_by_weight(n, parsed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return n, probs, Channel.from_pauli_probs(probs)


def _run_twirl(cfg, seed, shots):
    n, probs, noise = _pauli_channel_from_cfg(cfg)
    delta = _require_number(cfg, "delta", 1e-6, 0.499)
    n_samples = None if cfg["n_samples"] is None else _require_int(cfg, "n_samples", 1)
    rng = np.random.default_rng(seed)
    est = twirl_estimate_memory(
        noise, delta, rng, n_samples=n_samples, readout_shots=shots,
        with_replacement=_require_bool(cfg, "with_replacement"),
    )
    pr0 = probs["I" * n]
    fbar_true = (2**n * pr0 + 1) / (2**n + 1)
    row = [pr0, est.pr0_hat, abs(est.pr0_hat - pr0), est.stderr,
           est.n_samples, est.fbar, fbar_true, delta]
    return RunOutput(
        tables={"twirl.csv": (
            ["pr0_true", "pr0_hat", "abs_error", "stderr",
             "n_samples", "fbar_hat", "fbar_true", "delta"], [row])},
        summary={"pr0_true": pr0, "pr0_hat": est.pr0_hat, "stderr": est.stderr,
                 "n_samples": est.n_samples, "fbar_hat": est.fbar,
                 "fbar_true": fbar_true, "within_delta": bool(abs(est.pr0_hat - pr0) <= delta)},
    )


def _run_certify(cfg, seed, shots):
    n = _require_int(cfg, "n", 1, 4)
    _choice(cfg, "gate", ("cnot",))
    if n < 2:
        raise ConfigError("the cnot target needs n >= 2")
    control = _require_int(cfg, "control_qubit", 1, n)
    target = _require_int(cfg, "target_qubit", 1, n)
    u = _cnot_unitary(control, target, n)
    tab = gate_tableau("CNOT", (control, target), n)
    delta = _require_number(cfg, "delta", 1e-6, 0.499)
    n_samples = None if cfg["n_samples"] is None else _require_int(cfg, "n_samples", 1)
    rng = np.random.default_rng(seed)
    ps = _float_list(cfg, "depolarizing_p")
    try:
        depol = [Channel.depolarizing(n, p) for p in ps]
    except ValueError as exc:
        raise ConfigError(f"depolarizing_p: {exc}") from exc
    rows = []
    for p, noise in zip(ps, depol):
        noisy = noise.then(Channel.unitary(u))
        est = certify_clifford(noisy, tab, delta, rng,
                               n_samples=n_samples, readout_shots=shots)
        exact = average_gate_fidelity_exact(noisy.kraus(), u)
        rows.append([p, est.fbar, exact, abs(est.fbar - exact),
                     est.stderr, est.n_samples])
    return RunOutput(
        tables={"certify.csv": (
            ["depolarizing_p", "fbar_hat", "fbar_exact", "abs_error",
             "pr0_stderr", "n_samples"], rows)},
        summary={"worst_abs_error": max(r[3] for r in rows), "points": len(rows)},
    )


def _run_rb(cfg, seed, shots):
    n = _require_int(cfg, "n", 1, 5)
    lengths = [int(v) for v in _float_list(cfg, "lengths")]
    if any(m < 1 for m in lengths) or lengths != sorted(lengths):
        raise ConfigError("lengths must be increasing positive integers")
    sequences = shots if shots is not None else _require_int(cfg, "sequences", 1)
    r_inj = _require_number(cfg, "error_rate", 0.0, 0.5)
    sampler_name = _choice(cfg, "sampler", ("generators", "rotations"))
    if sampler_name == "rotations" and n != 1:
        raise ConfigError("the rotations sampler is single-qubit only")
    sampler = rotation_clifford_sampler() if sampler_name == "rotations" else default_rb_sampler(n)
    d = 2**n
    noise = None
    if r_inj > 0:
        noise = Channel.depolarizing(n, r_inj / (1 - 1 / d))
    rng = np.random.default_rng(seed)
    res = randomized_benchmarking(sampler, noise, lengths, sequences, rng)
    rel = abs(res.error_rate - r_inj) / r_inj if r_inj > 0 else 0.0
    return RunOutput(
        tables={
            "survivals.csv": (["length", "survival"],
                              [[m, s] for m, s in zip(res.lengths, res.survivals)]),
            "fit.csv": ([
                "amplitude", "offset", "decay", "error_rate_fit",
                "error_rate_injected", "relative_error", "ok",
            ], [[res.amplitude, res.offset, res.decay, res.error_rate,
                 r_inj, rel, res.ok]]),
        },
        summary={"error_rate_fit": res.error_rate, "error_rate_injected": r_inj,
                 "relative_error": rel, "ok": res.ok, "message": res.message},
    )


_CODES = {"bit-flip": bit_flip_code, "phase-flip": phase_flip_code, "five": five_qubit_code}


def _run_qec(cfg, seed, shots):
    code = _CODES[_choice(cfg, "code", tuple(_CODES))]()
    gate = _choice(cfg, "gate", ("I", "X", "Z", "H"))
    transversal_demo = _require_bool(cfg, "transversal_demo")
    rows, mean_unc, mean_corr = gate_cycle_ensemble(code, gate)
    table = [[err.word, f_unc, f_corr] for err, f_unc, f_corr in rows]
    out = RunOutput(
        tables={"qec.csv": (["error", "fidelity_uncorrected", "fidelity_corrected"], table)},
        summary={"code": cfg["code"], "gate": gate,
                 "mean_uncorrected": mean_unc, "mean_corrected": mean_corr},
    )
    if transversal_demo:
        demo = []
        for variant in ("bad", "transversal"):
            for q in range(3):
                for letter in ("X", "Y", "Z"):
                    word = "I" * q + letter + "I" * (2 - q)
                    w = transversal_cnot_demo(variant, PauliString(word))
                    demo.append([variant, word, w])
        out.tables["transversal.csv"] = (
            ["variant", "control_block_error", "target_block_weight"], demo)
        out.summary["max_weight_bad"] = max(r[2] for r in demo if r[0] == "bad")
        out.summary["max_weight_transversal"] = max(
            r[2] for r in demo if r[0] == "transversal")
    return out


def _run_distill(cfg, seed, shots):
    rounds = _require_int(cfg, "rounds", 1, 10)
    find_threshold = _require_bool(cfg, "find_threshold")
    rows = []
    for p in _float_list(cfg, "p_values"):
        if not -1 <= p <= 1:
            raise ConfigError(f"p_values entries must lie in [-1, 1], got {p}")
        res = distill_magic(p, rounds=rounds)
        rows.append([p, res.p_out, res.success_probability, res.p_out > p])
    out = RunOutput(
        tables={"distill.csv": (
            ["p_in", "p_out", "success_probability", "improved"], rows)},
        summary={"rounds": rounds},
    )
    if find_threshold:
        thr = distillation_threshold()
        out.tables["threshold.csv"] = (["threshold"], [[thr]])
        out.summary["threshold"] = thr
    return out


def _run_dqc1(cfg, seed, shots):
    n = _require_int(cfg, "n", 1, 6)
    epsilon = _require_number(cfg, "epsilon", 1e-9, 1.0)
    ppt = _require_bool(cfg, "ppt")
    rng = np.random.default_rng(seed)
    u = haar_random_unitary(2**n, rng)
    inst = Dqc1Instance(u, epsilon=epsilon, shots=shots)
    est = dqc1_trace(inst, rng=rng if shots is not None else None)
    exact = complex(np.trace(u)) / 2**n
    row = [n, epsilon, 0 if shots is None else shots,
           exact.real, exact.imag, est.real, est.imag, abs(est - exact)]
    header = ["n", "epsilon", "shots", "trace_re_exact", "trace_im_exact",
              "trace_re_est", "trace_im_est", "abs_error"]
    if ppt:
        row.append(control_target_ppt(Dqc1Instance(u, epsilon=epsilon)))
        header.append("ppt_min_eigenvalue")
    out = RunOutput(
        tables={"dqc1.csv": (header, [row])},
        summary={"n": n, "abs_error": abs(est - exact),
                 "trace_re": exact.real, "trace_im": exact.imag},
    )
    if cfg["theta"] is not None:
        theta = _require_number(cfg, "theta", 0.0, float(np.pi))
        eps2 = _require_number(cfg, "epsilon2", 1e-9, 1.0)
        half = 2 ** (n - 1)
        if n < 2:
            raise ConfigError("the block-trace variant needs n >= 2")
        u0 = haar_random_unitary(half, rng)
        u1 = haar_random_unitary(half, rng)
        from scipy.linalg import block_diag
        ub = block_diag(u0, u1)
        got = dqc1_block_trace(ub, theta, epsilon, eps2, shots=shots,
                               rng=rng if shots is not None else None)
        ref = block_trace_direct(ub, theta, eps2)
        out.tables["block_trace.csv"] = (
            ["theta", "epsilon2", "est_re", "est_im", "ref_re", "ref_im", "abs_error"],
            [[theta, eps2, got.real, got.imag, ref.real, ref.imag, abs(got - ref)]])
        out.summary["block_abs_error"] = abs(got - ref)
    return out


def _run_contextuality(cfg, seed, shots):
    kind = _choice(cfg, "state", ("mixed", "random"))
    rng = np.random.default_rng(seed)
    if kind == "mixed":
        state = np.eye(4, dtype=complex) / 4
    else:
        kets = [haar_random_state(4, rng) for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        state = sum(wi * np.outer(k, k.conj()) for wi, k in zip(w, kets))
    method = _choice(cfg, "method", ("direct", "meter"))
    noise = None
    if cfg["noise_p"] is not None:
        noise = Channel.depolarizing(1, _require_number(cfg, "noise_p", 0.0, 1.0))
    res = contextuality_beta(state, noise=noise, method=method)
    classical = classical_max_beta()
    row = [res.beta, classical, method,
           0.0 if cfg["noise_p"] is None else cfg["noise_p"]]
    row += list(res.rows) + list(res.columns)
    return RunOutput(
        tables={"contextuality.csv": (
            ["beta", "classical_max", "method", "noise_p",
             "row1", "row2", "row3", "col1", "col2", "col3"], [row])},
        summary={"beta": res.beta, "classical_max": classical,
                 "quantum_excess": res.beta - classical},
    )


def _run_weak(cfg, seed, shots):
    target = _require_number(cfg, "target_value", 1.0 + 1e-9)
    psi, phi = amplified_pair(target)
    exact = weak_value_exact(psi, "z", phi)
    rows = []
    for g in _float_list(cfg, "couplings"):
        if g <= 0:
            raise ConfigError("couplings must be positive")
        est = weak_value(psi, "z", phi, g)
        rows.append([g, est.real, est.imag, exact.real, exact.imag,
                     abs(est - exact), 5 * g])
    return RunOutput(
        tables={"weak.csv": (
            ["g", "est_re", "est_im", "exact_re", "exact_im",
             "abs_error", "error_budget"], rows)},
        summary={"target_value": target,
                 "worst_abs_error": max(r[5] for r in rows)},
    )


def _run_ising(cfg, seed, shots):
    j = _require_number(cfg, "j", 1e-12)
    h_min = _require_number(cfg, "h_min")
    h_max = _require_number(cfg, "h_max")
    if h_max <= h_min:
        raise ConfigError("h_max must exceed h_min")
    n_points = _require_int(cfg, "n_points", 2)
    locate_steps = _require_bool(cfg, "locate_steps")
    hs = np.linspace(h_min, h_max, n_points)
    res = ising_ground(j, hs)
    rows = [[h, m, s, int(d)] for h, m, s, d in
            zip(res.h_values, res.magnetization, res.entropy_bits, res.degeneracy)]
    out = RunOutput(
        tables={"ising.csv": (
            ["h", "magnetization", "entropy_bits", "degeneracy"], rows)},
        summary={"j": j,
                 "magnetization_values": sorted({round(float(m), 9)
                                                 for m in res.magnetization})},
    )
    if locate_steps:
        steps = magnetization_steps(j, tol=_require_number(cfg, "step_tol", 1e-12, 1e-2))
        out.tables["steps.csv"] = (["h_step"], [[s] for s in steps])
        out.summary["steps"] = list(steps)
    return out


def _run_xxz(cfg, seed, shots):
    n = _require_int(cfg, "n", 2, 7)
    g_min = _require_number(cfg, "gamma_min")
    g_max = _require_number(cfg, "gamma_max")
    if g_max <= g_min:
        raise ConfigError("gamma_max must exceed gamma_min")
    n_points = _require_int(cfg, "n_points", 2)
    restarts = _require_int(cfg, "n_restarts", 1, 256)
    locate_jump = _require_bool(cfg, "locate_jump")
    locate_crossing = _require_bool(cfg, "locate_crossing")
    rng = np.random.default_rng(seed)
    scan = xxz_scan(n, np.linspace(g_min, g_max, n_points), rng, n_restarts=restarts)
    rows = [[g, l2, ge, f, e, nl, int(d)] for g, l2, ge, f, e, nl, d in
            zip(scan.gammas, scan.lambda2, scan.ge, scan.ferro,
                scan.equatorial, scan.neel, scan.degeneracy)]
    out = RunOutput(
        tables={"xxz.csv": (
            ["gamma", "lambda2", "ge_bits", "ferro_overlap",
             "equatorial_overlap", "neel_overlap", "degeneracy"], rows)},
        summary={"n": n},
    )
    features = []
    if locate_jump:
        jump = ge_jump_location(scan)
        features.append(["ge_jump", jump])
        out.summary["ge_jump_gamma"] = jump
    if locate_crossing:
        cross = branch_crossing(n)
        features.append(["branch_crossing", cross])
        out.summary["branch_crossing_gamma"] = cross
    if features:
        out.tables["features.csv"] = (["feature", "gamma"], features)
    return out


def _run_transfer(cfg, seed, shots):
    n = _require_int(cfg, "n", 2, 8)
    tau = _require_number(cfg, "tau", 1e-9)
    strength = _require_number(cfg, "coupling_strength", 1e-12)
    iterations = _require_int(cfg, "iterations", 1, 100000)
    chain = TransferChain(n, dipolar_couplings(n, strength), tau)
    mode = _choice(cfg, "mode", ("transfer", "entangle"))
    if mode == "transfer":
        alpha, beta = _require_number(cfg, "alpha"), _require_number(cfg, "beta")
        if np.hypot(alpha, beta) < 1e-15:  # state_transfer normalizes by this
            raise ConfigError("alpha and beta must not both be 0")
        res = state_transfer(chain, iterations=iterations, alpha=alpha, beta=beta)
        summary = {"final_fidelity": res.fidelity, "theta": res.theta,
                   "stalled": res.stalled,
                   "max_excitation_drift": res.max_excitation_drift}
    else:
        res = entangle_ends(chain, iterations)
        summary = {"final_fidelity": res.fidelities[-1],
                   "extraction_residual": res.extraction_residual}
    rows = [[i, f] for i, f in enumerate(res.fidelities)]
    return RunOutput(
        tables={"transfer.csv": (["iteration", "fidelity"], rows)},
        summary={"mode": mode, **summary},
    )


def _run_spectrum(cfg, seed, shots):
    sys_ = builtin_molecule(_choice(cfg, "molecule", _MOLECULES))
    kind = _choice(cfg, "state", ("pps", "thermal"))
    if kind == "pps":
        rho = make_pps(sys_.n, _require_number(cfg, "epsilon", 1e-12, 1.0))
    else:
        rho = thermal_state(sys_, _require_number(cfg, "beta_scaled", 0.0))
    pulse = _choice(cfg, "pulse", ("y90", "none"))
    if pulse == "y90":
        total_iy = sum(spin_op("y", q, sys_.n) for q in range(1, sys_.n + 1))
        from scipy.linalg import expm
        u = expm(-1j * (np.pi / 2) * total_iy)
        rho = u @ rho @ u.conj().T
    duration = _require_number(cfg, "duration_s", 1e-6)
    n_samples = _require_int(cfg, "n_samples", 2, 1 << 20)
    fid = simulate_fid(rho, sys_, duration, n_samples,
                       weak_coupling=_require_bool(cfg, "weak_coupling"))
    freqs, amps = spectrum(fid, n_samples / duration)
    ts = np.arange(n_samples) * (duration / n_samples)
    label, raw = _molecule_fixture(cfg["molecule"])
    return RunOutput(
        tables={
            "fid.csv": (["t_s", "fid_re", "fid_im"],
                        [[t, s.real, s.imag] for t, s in zip(ts, fid)]),
            "spectrum.csv": (["freq_hz", "amp_re", "amp_im", "power"],
                             [[f, a.real, a.imag, abs(a) ** 2]
                              for f, a in zip(freqs, amps)]),
        },
        summary={"molecule": cfg["molecule"],
                 "peak_freq_hz": float(freqs[int(np.argmax(np.abs(amps)))])},
        fixtures={label: raw},
    )


_MOLECULES = ("chloroform2", "malonate3", "crotonic4", "chain7")

DEFAULT_CONFIGS = {
    "grape": {
        "molecule": "chloroform2",
        "target": "cnot",
        "control_qubit": 1,
        "target_qubit": 2,
        "n_steps": 250,
        "dt_s": 2e-5,
        "u_max_hz": 1.0e4,
        "max_iters": 2000,
        "target_fidelity": 0.99,
        "gradient_mode": "exact",
        "init_scale": 0.01,
        "rf_distribution": [[1.0, 1.0]],
        "weak_coupling": True,
    },
    "twirl": {
        "n": 3,
        "weight_masses": {"1": 0.38, "2": 0.14, "3": 0.04},
        "delta": 0.02,
        "n_samples": None,
        "with_replacement": True,
    },
    "certify": {
        "gate": "cnot",
        "n": 2,
        "control_qubit": 1,
        "target_qubit": 2,
        "depolarizing_p": [0.05, 0.1, 0.2],
        "delta": 0.02,
        "n_samples": None,
    },
    "rb": {
        "n": 3,
        "lengths": [1, 2, 4, 8, 16, 32, 64, 96],
        "sequences": 30,
        "error_rate": 0.0047,
        "sampler": "generators",
    },
    "qec": {
        "code": "five",
        "gate": "X",
        "transversal_demo": True,
    },
    "distill": {
        "p_values": [0.3, 0.5, 0.8, 0.9, 0.95, 1.0],
        "rounds": 1,
        "find_threshold": True,
    },
    "dqc1": {
        "n": 3,
        "epsilon": 1.0,
        "theta": None,
        "epsilon2": 1.0,
        "ppt": True,
    },
    "contextuality": {
        "state": "mixed",
        "method": "meter",
        "noise_p": None,
    },
    "weak": {
        "target_value": 2.3,
        "couplings": [0.02, 0.05, 0.1, 0.2],
    },
    "ising": {
        "j": 1.0,
        "h_min": -3.0,
        "h_max": 3.0,
        "n_points": 121,
        "locate_steps": True,
        "step_tol": 1e-6,
    },
    "xxz": {
        "n": 4,
        "gamma_min": -2.0,
        "gamma_max": 2.0,
        "n_points": 41,
        "n_restarts": 8,
        "locate_jump": True,
        "locate_crossing": True,
    },
    "transfer": {
        "n": 4,
        "tau": 0.4,
        "coupling_strength": 1.0,
        "iterations": 100,
        "mode": "transfer",
        "alpha": 0.0,
        "beta": 1.0,
    },
    "spectrum": {
        "molecule": "chloroform2",
        "state": "pps",
        "epsilon": 1.0,
        "beta_scaled": 1e-5,
        "pulse": "y90",
        "duration_s": 0.5,
        "n_samples": 2048,
        "weak_coupling": True,
    },
}

EXPERIMENTS = {
    "grape": _run_grape,
    "twirl": _run_twirl,
    "certify": _run_certify,
    "rb": _run_rb,
    "qec": _run_qec,
    "distill": _run_distill,
    "dqc1": _run_dqc1,
    "contextuality": _run_contextuality,
    "weak": _run_weak,
    "ising": _run_ising,
    "xxz": _run_xxz,
    "transfer": _run_transfer,
    "spectrum": _run_spectrum,
}


# ---------------------------------------------------------------------------
# driver


def _error_json(message: str, **extra) -> None:
    print(json.dumps({"error": message, **extra}, sort_keys=True))


def _valid_names():
    return sorted(EXPERIMENTS) + ["repro"]


def _build_parser(name: str) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog=f"nmrqip {name}")
    ap.add_argument("--config", help="JSON config file merged over the defaults")
    ap.add_argument("--seed", type=int, default=0, help="64-bit run seed")
    ap.add_argument("--out", default=os.path.join("runs", name),
                    help="output directory (NMRQIP_OUT_DIR overrides)")
    ap.add_argument("--shots", type=int, default=None,
                    help="finite readout shots where the experiment supports them")
    ap.add_argument("--list", action="store_true",
                    help="print the resolved config without running")
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
            _error_json(f"cannot load config {config_path}: {exc}")
            return 2
        if not isinstance(user_cfg, dict):
            _error_json("config must be a JSON object")
            return 2
    if shots is not None and shots < 1:
        _error_json("shots must be a positive integer")
        return 2
    if not 0 <= seed < 2**64:
        _error_json("seed must fit in 64 bits")
        return 2

    out_dir = os.environ.get("NMRQIP_OUT_DIR") or out_dir
    if out_dir is None:
        out_dir = os.path.join("runs", name)

    try:
        cfg = _merge_config(name, user_cfg)
        t0 = time.perf_counter()
        result = EXPERIMENTS[name](cfg, seed, shots)
        wall = time.perf_counter() - t0
    except ConfigError as exc:
        _error_json(str(exc), experiment=name)
        return 2

    os.makedirs(out_dir, exist_ok=True)
    out_paths = []
    for fname, (header, rows) in result.tables.items():
        path = os.path.join(out_dir, fname)
        write_csv(path, header, rows)
        out_paths.append(fname)
    for fname, pulse in result.pulses.items():
        save_pulse(pulse, os.path.join(out_dir, fname))
        out_paths.append(fname)

    fixture_hashes = {label: _sha256_bytes(raw)
                      for label, raw in result.fixtures.items()}
    if config_path is not None:
        with open(config_path, "rb") as fh:
            fixture_hashes["config"] = _sha256_bytes(fh.read())
    manifest = {
        "experiment": name,
        "seed": seed,
        "shots": shots,
        "config_path": None if config_path is None else os.path.abspath(config_path),
        "config": _jsonable(cfg),
        "fixture_hashes": fixture_hashes,
        "output_paths": out_paths,
        "wall_time_s": wall,
        "versions": {
            "nmrqip": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "summary": _jsonable(result.summary),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"experiment": name, "exit": result.exit_code,
                      "out_dir": out_dir, **_jsonable(result.summary)},
                     sort_keys=True))
    return result.exit_code


def _repro_main(argv) -> int:
    from . import acceptance

    ap = argparse.ArgumentParser(prog="nmrqip repro")
    ap.add_argument("--list", action="store_true",
                    help="enumerate the criteria without running them")
    ap.add_argument("--only", action="append", default=None,
                    help="run a single named criterion (repeatable)")
    ap.add_argument("--seed", type=int, default=0, help="base seed for the pinned runs")
    ap.add_argument("--out", default=None,
                    help="optionally write criteria.csv + manifest here")
    args = ap.parse_args(argv)

    names = list(acceptance.CRITERIA)
    if args.list:
        for name in names:
            print(name)
        return 0
    if args.only:
        unknown = sorted(set(args.only) - set(names))
        if unknown:
            _error_json(f"unknown criteria: {unknown}", valid=names)
            return 2
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
                  [[r.name, r.passed, r.measured, r.expected] for r in results])
        manifest = {
            "experiment": "repro",
            "seed": args.seed,
            "criteria": {r.name: bool(r.passed) for r in results},
            "wall_time_s": sum(r.runtime_s for r in results),
            "runtime_s": {r.name: r.runtime_s for r in results},
            "details": {r.name: _jsonable(r.details) for r in results},
            "versions": {"nmrqip": __version__, "numpy": np.__version__,
                         "scipy": scipy.__version__,
                         "python": platform.python_version()},
        }
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if n_pass == len(results) else 1


def main(argv=None) -> int:
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
        _error_json(f"unknown experiment {name!r}", valid=_valid_names())
        return 2
    args = _build_parser(name).parse_args(argv[1:])
    if args.list:
        print(json.dumps({"experiment": name, "defaults": DEFAULT_CONFIGS[name]},
                         indent=2, sort_keys=True))
        return 0
    return run_experiment(name, config_path=args.config, seed=args.seed,
                          out_dir=args.out, shots=args.shots)


if __name__ == "__main__":
    raise SystemExit(main())
