"""Release-gate checks, each runnable on its own with pinned seeds.

Every criterion returns a CriterionResult with the measured values, the
stated expectation, and a hard pass/fail.  `nmrqip repro` drives the full
set; tests/test_acceptance.py asserts each one.  Eleven criteria take their
run from the runner `nmrqip <experiment>` calls, through cli.run: grape-cnot,
twirl-memory, certify-clifford, randomized-benchmarking, qec-codes,
magic-distillation, contextuality, weak-values, ising-ground, xxz-ge and
state-transfer.  Every criterion holds its run to an oracle of its own
(finite differences, Kraus sums, an integer Pauli chain, exact states,
literal bounds), never one route against itself.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import cli
from .channels import Channel, pauli_probs_by_weight
from .clifford import clifford_group, compose, gate_tableau, identity, inverse, unitaries
from .control import (
    _fd_gradient,
    cnot_sequence,
    control_channels,
    grape_gradient,
    random_pulse,
    rf_selection_retention,
)
from .experiments.contextuality import METER_DEPOLARIZING_52, contextuality_beta
from .experiments.dqc1 import (
    Dqc1Instance,
    block_trace_direct,
    dqc1_block_trace,
    dqc1_trace,
    haar_block_unitary,
)
from .experiments.weakvalue import weak_value, weak_value_exact
from .experiments.xxz import equatorial_overlap, ferro_overlap, xxz_ground_state
from .qec import bit_flip_code, error_ensemble, five_qubit_code, logical_gate_cycle
from .qop import (
    average_gate_fidelity_exact,
    haar_random_state,
    haar_random_unitary,
    hermitian_entries,
    ket_density,
    pauli_entry,
    pauli_matrices,
)
from .spins import builtin_molecule, internal_hamiltonian
from .twirl import default_rb_sampler


@dataclass
class CriterionResult:
    name: str
    passed: bool
    measured: str
    expected: str
    runtime_s: float
    details: dict


# ---------------------------------------------------------------------------
# 1. pulse search reaches a CNOT on the two-spin fixture


def _crit_grape(base_seed):
    t0 = time.perf_counter()
    run, tables = cli.run("grape", base_seed + 11)
    opt_time = time.perf_counter() - t0
    fid, iters = run["fidelity"], run["iterations"]
    monotone = bool(np.all(np.diff(tables["fidelity_trace.csv"]["fidelity"]) >= -1e-12))

    # the exact gradient against finite differences on the same system
    sys_ = builtin_molecule("chloroform2")
    u_target = unitaries(gate_tableau("CNOT", (1, 2), 2))
    names, h_ctrl = control_channels(sys_)
    u_max = 2 * np.pi * 1.0e4
    h_int = internal_hamiltonian(sys_)
    worst_rel = 0.0
    for k in range(20):
        u = random_pulse(8, len(names), u_max, seed=base_seed + 100 + k, scale=0.3)
        g = grape_gradient(u_target, h_int, h_ctrl, u, 5e-5)
        g_fd = _fd_gradient(u_target, h_int, h_ctrl, u, 5e-5, u_max)
        rel = np.linalg.norm(g - g_fd) / max(np.linalg.norm(g), 1e-300)
        worst_rel = max(worst_rel, rel)

    passed = (run["converged"] and fid >= 0.99
              and iters <= 2000 and opt_time < 60.0
              and monotone and worst_rel <= 1e-6)
    return (passed,
            f"fid={fid:.4f} in {iters} iters, "
            f"monotone={monotone}, grad_rel_err={worst_rel:.2e}",
            "fid>=0.99 within 2000 iters in <60s, monotone trace, "
            "gradient within 1e-6 of finite differences on 20 pulses",
            {"fidelity": fid, "iterations": iters,
             "optimize_time_s": opt_time, "monotone": monotone,
             "gradient_rel_err": worst_rel})


# ---------------------------------------------------------------------------
# 2. the J-coupling CNOT sequence equals CNOT up to global phase


def _crit_cnot_sequence(base_seed):
    sys_ = builtin_molecule("chloroform2")
    u = cnot_sequence(sys_, 1, 2)
    cnot = unitaries(gate_tableau("CNOT", (1, 2), 2))
    overlap = abs(np.trace(u @ cnot.conj().T)) / 4
    err = abs(overlap - 1.0)
    return (err <= 1e-10,
            f"|Tr(U CNOT^dag)|/4 = 1 - {err:.2e}",
            "equal to 1 within 1e-10",
            {"overlap": overlap, "error": err})


# ---------------------------------------------------------------------------
# 3. twirl estimate recovers Pr(no error) and the average fidelity


_TWIRL_FIXTURES = (
    (0.44, {1: 0.38, 2: 0.14, 3: 0.04}),
    (0.84, {1: 0.12, 2: 0.03, 3: 0.01}),
)


def _crit_twirl(base_seed):
    t0 = time.perf_counter()
    details = {}
    passed = True
    parts = []
    d = 8
    for pr0_true, masses in _TWIRL_FIXTURES:
        noise = Channel(pauli_probs_by_weight(3, masses))
        fbar_formula = (d * pr0_true + 1) / (d + 1)
        fbar_exact = average_gate_fidelity_exact(noise.kraus(), np.eye(d))
        runs = [cli.run("twirl", base_seed + 300 + s, weight_masses=masses)[0]
                for s in range(10)]
        hats, fbars = [r["pr0_hat"] for r in runs], [r["fbar_hat"] for r in runs]
        n_samples = runs[-1]["n_samples"]
        passed &= all(abs(h - pr0_true) <= 0.02 for h in hats)
        # the exact routes, the run's fbar_true among them, must agree before
        # any anchors the estimate
        passed &= all(abs(r["fbar_true"] - fbar_exact) <= 1e-12 for r in runs)
        passed &= abs(fbar_exact - fbar_formula) <= 1e-12
        se_mean = (np.mean([r["stderr"] for r in runs]) / np.sqrt(10)) * d / (d + 1)
        fbar_gap = abs(np.mean(fbars) - fbar_exact)
        passed &= fbar_gap <= 3 * se_mean
        worst = max(abs(h - pr0_true) for h in hats)
        parts.append(f"pr0={pr0_true}: worst|err|={worst:.4f} @ {n_samples} samples, "
                     f"fbar gap {fbar_gap:.2e} vs 3SE {3 * se_mean:.2e}")
        details[f"pr0_{pr0_true}"] = {
            "worst_abs_error": worst, "n_samples": n_samples,
            "fbar_exact": fbar_exact, "fbar_mean": float(np.mean(fbars)),
            "fbar_gap": fbar_gap, "three_se": 3 * se_mean,
        }
    wall = time.perf_counter() - t0
    passed &= wall < 30.0
    details["wall_s"] = wall
    return (bool(passed),
            "; ".join(parts),
            "each seed within delta=0.02; mean fbar within 3 SE of the exact "
            "oracle; both fixtures; <30s",
            details)


# ---------------------------------------------------------------------------
# 4. Clifford certification matches the exact average fidelity


def _crit_certify(base_seed):
    tab = gate_tableau("CNOT", (1, 2), 2)
    u = unitaries(tab)
    parts, details, passed = [], {}, True
    for i, p in enumerate((0.05, 0.1, 0.2)):
        _, tables = cli.run("certify", base_seed + 400 + i, depolarizing_p=p)
        run = {k: col[0] for k, col in tables["certify.csv"].items()}
        noise = Channel.depolarizing(2, p)
        exact = average_gate_fidelity_exact([u @ k for k in noise.kraus()], u)
        gap = abs(run["fbar_hat"] - exact)
        budget = 0.02 + 3 * run["pr0_stderr"] * 4 / 5
        passed &= gap <= budget and abs(run["fbar_exact"] - exact) <= 1e-12
        parts.append(f"p={p}: |fbar-exact|={gap:.2e}<= {budget:.3f}")
        details[f"p_{p}"] = {"fbar_hat": run["fbar_hat"], "fbar_exact": exact,
                             "gap": gap, "budget": budget}

    # exhaustive readout bookkeeping: every Clifford on 1 and 2 qubits,
    # every Pauli, tableau conjugation against dense conjugation; blocks of
    # 256 tables keep each dense (block, Pauli, d, d) product near 1 MB
    checked = 0
    for n in (1, 2):
        group = clifford_group(n)
        passed &= len(group) == (24, 11520)[n - 1]  # group order mod global phase
        entries = hermitian_entries(n, np.arange(1, 4**n))  # every non-identity Pauli
        paulis = pauli_matrices(n, entries)
        for at in range(0, len(group), 256):
            block = group[at:at + 256]
            ud = unitaries(block)[:, None]
            got = pauli_matrices(n, compose(entries, block))
            passed &= np.allclose(ud @ paulis @ ud.conj().swapaxes(2, 3),
                                  got.reshape(len(block), len(entries), 2**n, 2**n), atol=1e-10)
            checked += len(block) * len(entries)
        details[f"group_size_n{n}"] = len(group)
    details["conjugations_checked"] = checked
    return (bool(passed),
            "; ".join(parts) + f"; {checked} exhaustive conjugation checks",
            "each p within delta + 3 SE of the exact oracle; tableau "
            "conjugation equals dense conjugation for every Clifford, n <= 2",
            details)


# ---------------------------------------------------------------------------
# 5. benchmarking decay recovers an injected error rate


def _crit_rb(base_seed):
    r_inj, n = 4.7e-3, 3
    run, _ = cli.run("rb", base_seed + 500)
    r_fit = run["error_rate_fit"]
    rel = abs(r_fit - r_inj) / r_inj

    # zero noise: the survival operator returns to +Z_1 exactly, so the
    # survival is exactly 1; the check runs in integer Pauli arithmetic on
    # gate indices drawn as the run draws them
    rng2 = np.random.default_rng(base_seed + 501)
    tabs, probs = default_rb_sampler(n)
    z1 = pauli_entry("ZII")
    exact_ones = 0
    for _ in range(100):
        p, total = z1, identity(n)
        for g in rng2.choice(len(tabs), size=int(rng2.integers(1, 40)), p=probs).tolist():
            p, total = compose(p, tabs[g]), compose(total, tabs[g])
        exact_ones += int(compose(p, inverse(total))) == z1
    passed = run["ok"] and rel <= 0.10 and exact_ones == 100
    return (bool(passed),
            f"r_fit={r_fit:.5g} vs {r_inj} (rel {rel:.3f}); "
            f"{exact_ones}/100 noiseless sequences at survival exactly 1",
            "fit within 10% of the injected rate; noiseless survival exactly 1 "
            "for 100 sequences",
            {"error_rate_fit": r_fit, "relative_error": rel,
             "exact_survivals": exact_ones, "fit_ok": run["ok"]})


# ---------------------------------------------------------------------------
# 6. the error-correcting codes fix what they promise


def _crit_qec(base_seed):
    psi = np.array([0.6, 0.8], dtype=complex)
    worst_gap = 0.0
    bf = bit_flip_code()
    for word in ("XII", "IXI", "IIX"):
        _, f_corr = logical_gate_cycle(bf, "I", pauli_entry(word), psi)
        worst_gap = max(worst_gap, abs(f_corr - 1.0))
    five = five_qubit_code()
    n_checked = 3
    for err in error_ensemble(5)[1:]:
        _, f_corr = logical_gate_cycle(five, "I", err, psi)
        worst_gap = max(worst_gap, abs(f_corr - 1.0))
        n_checked += 1
    run, _ = cli.run("qec", base_seed, code="bit-flip", gate="I")
    w_bad, w_tvl = run["max_weight_bad"], run["max_weight_transversal"]
    passed = worst_gap <= 1e-10 and w_bad == 3 and w_tvl <= 1
    return (bool(passed),
            f"worst |1-fidelity| = {worst_gap:.2e} over {n_checked} errors; "
            f"fanout weight {w_bad}, transversal weight {w_tvl}",
            "fidelity 1 within 1e-10 for all single X (3q) and all 15 single "
            "Paulis (5q); weights 3 vs <= 1",
            {"worst_gap": worst_gap, "weight_bad": w_bad,
             "weight_transversal": w_tvl})


# ---------------------------------------------------------------------------
# 7. distillation improves polarization above threshold


def _crit_distill(base_seed):
    t0 = time.perf_counter()
    run, tables = cli.run("distill", base_seed)
    p_out = dict(zip(tables["distill.csv"]["p_in"], tables["distill.csv"]["p_out"]))
    fixed = abs(p_out[1.0] - 1.0)
    improved = all(p_out[p] > p for p in (0.8, 0.9, 0.95))
    degraded = all(p_out[p] < p for p in (0.3, 0.5))
    thr = run["threshold"]
    wall = time.perf_counter() - t0
    passed = (fixed <= 1e-10 and improved and degraded
              and 0.55 <= thr <= 0.75 and wall < 30.0)
    return (bool(passed),
            f"|p_out(1)-1|={fixed:.1e}, improves above/degrades below, "
            f"threshold={thr:.4f}",
            "fixed point 1 within 1e-10; p_out>p_in at 0.8/0.9/0.95; "
            "p_out<p_in at 0.3/0.5; threshold in [0.55, 0.75]; <30s",
            {"fixed_point_gap": fixed, "improved": improved,
             "degraded": degraded, "threshold": thr, "wall_s": wall})


# ---------------------------------------------------------------------------
# 8. the one-clean-qubit trace estimate


def _crit_dqc1(base_seed):
    rng = np.random.default_rng(base_seed + 800)
    worst = 0.0
    for k in range(50):
        n = 1 + k % 3
        eps = (1.0, 0.5, 0.1)[k % 3]
        u = haar_random_unitary(2**n, rng)
        got = dqc1_trace(Dqc1Instance(u, epsilon=eps))
        worst = max(worst, abs(got - np.trace(u) / 2**n))

    u = haar_random_unitary(4, rng)
    exact = np.trace(u) / 4
    shot_grid = [1000, 4000, 16000, 64000]
    rms = []
    for shots in shot_grid:
        errs = []
        for _ in range(40):
            est = dqc1_trace(Dqc1Instance(u, shots=shots), rng=rng)
            errs.append(abs(est - exact) ** 2)
        rms.append(np.sqrt(np.mean(errs)))
    slope = np.polyfit(np.log(shot_grid), np.log(rms), 1)[0]

    worst_block = 0.0
    for k in range(5):
        ub = haar_block_unitary(2 ** (1 + k % 2), rng)
        theta = rng.uniform(0.1, np.pi / 2)
        got = dqc1_block_trace(ub, theta)
        worst_block = max(worst_block, abs(got - block_trace_direct(ub, theta)))

    passed = worst <= 1e-12 and -1.0 <= slope <= -0.25 and worst_block <= 1e-12
    return (bool(passed),
            f"exact err {worst:.1e} over 50 U; sampling slope {slope:.2f}; "
            f"block err {worst_block:.1e}",
            "exact within 1e-12; rms error slope in [-1, -0.25] vs shots; "
            "block variant within 1e-12 of direct weighted traces",
            {"worst_exact": worst, "slope": float(slope),
             "worst_block": worst_block})


# ---------------------------------------------------------------------------
# 9. the nine-observable grid: quantum 6, classical 4, noisy 5.2


def _crit_contextuality(base_seed):
    rng = np.random.default_rng(base_seed + 900)
    states = [np.eye(4, dtype=complex) / 4]
    for k in range(19):
        if k % 2 == 0:
            states.append(ket_density(haar_random_state(4, rng)))
        else:
            kets = [haar_random_state(4, rng) for _ in range(3)]
            w = rng.dirichlet(np.ones(3))
            states.append(sum(wi * ket_density(ket) for wi, ket in zip(w, kets)))
    worst = 0.0
    for rho in states:
        for method in ("direct", "meter"):
            beta = contextuality_beta(rho, method=method).beta
            worst = max(worst, abs(beta - 6.0))
    run, _ = cli.run("contextuality", base_seed, noise_p=METER_DEPOLARIZING_52)
    classical, noisy = run["classical_max"], run["beta"]
    passed = worst <= 1e-9 and classical == 4.0 and abs(noisy - 5.2) <= 0.15
    return (bool(passed),
            f"|beta-6| <= {worst:.1e} over 20 states x 2 methods; "
            f"classical max {classical}; noisy beta {noisy:.4f}",
            "beta=6 within 1e-9; classical max 4 over all 512 assignments; "
            "noise fixture beta within 5.2 +- 0.15",
            {"worst_quantum_gap": worst, "classical_max": classical,
             "noisy_beta": noisy})


# ---------------------------------------------------------------------------
# 10. weak values from the meter readout


def _crit_weak(base_seed):
    rng = np.random.default_rng(base_seed + 1000)
    scenarios = []
    while len(scenarios) < 10:
        psi = haar_random_state(2, rng)
        phi = haar_random_state(2, rng)
        if abs(np.vdot(phi, psi)) >= 0.3:
            scenarios.append((psi, "xyz"[len(scenarios) % 3], phi))
    worst_margin = -np.inf
    for g in (0.05, 0.1, 0.2):
        for psi, axis, phi in scenarios:
            err = abs(weak_value(psi, axis, phi, g) - weak_value_exact(psi, axis, phi))
            worst_margin = max(worst_margin, err - 5 * g)
    _, tables = cli.run("weak", base_seed, couplings=[0.02])
    amplified = complex(tables["weak.csv"]["est_re"][0], tables["weak.csv"]["est_im"][0])
    amp_gap = abs(amplified - 2.3)
    passed = worst_margin <= 0 and amp_gap <= 0.05
    return (bool(passed),
            f"max(err - 5g) = {worst_margin:.2e} over 30 runs; "
            f"amplified estimate {amplified.real:.4f} (gap {amp_gap:.4f})",
            "error <= 5g for g in {0.05, 0.1, 0.2}; amplified scenario "
            "2.3 +- 0.05 at g=0.02",
            {"worst_margin": worst_margin, "amplified": amplified.real,
             "amplified_gap": amp_gap})


# ---------------------------------------------------------------------------
# 11. frustrated triangle ground states


def _crit_ising(base_seed):
    t0 = time.perf_counter()
    j = 1.0
    _, tables = cli.run("ising", base_seed)
    ising = tables["ising.csv"]
    h_values, entropy_bits = ising["h"], ising["entropy_bits"]
    interior = {}
    for h, m, s, deg in zip(h_values, ising["magnetization"], entropy_bits, ising["degeneracy"]):
        if min(abs(h + 2 * j), abs(h), abs(h - 2 * j)) < 1e-9:
            continue  # step points mix two plateaus
        interior.setdefault(round(float(m)), []).append((h, m, s, deg))
    plateau_gap = max(abs(m - round(m)) for vals in interior.values()
                      for _, m, _, _ in vals)
    plateaus_ok = sorted(interior) == [-3, -1, 1, 3]
    steps = tables["steps.csv"]["h_step"]
    step_gap = max(abs(s - e) for s, e in zip(steps, (-2 * j, 0.0, 2 * j)))
    at_zero = entropy_bits[np.argmin(np.abs(h_values))]
    entropy_gap = abs(at_zero - np.log2(6))
    polarized = max(abs(s) for h, s in zip(h_values, entropy_bits)
                    if abs(h) > 2 * j + 1e-9)
    wall = time.perf_counter() - t0
    passed = (plateaus_ok and plateau_gap <= 1e-9 and len(steps) == 3
              and step_gap <= 1e-6 and entropy_gap <= 1e-9
              and polarized <= 1e-12 and wall < 5.0)
    return (bool(passed),
            f"plateaus {sorted(interior)}, steps at {[float(round(s, 7)) for s in steps]}, "
            f"S(0)={at_zero:.6f} bits",
            "plateaus {+3,+1,-1,-3}; steps at -2J, 0, 2J within 1e-6; "
            "entropy log2(6) at h=0 and 0 beyond |h|=2J; <5s",
            {"plateaus": sorted(interior), "steps": list(steps),
             "entropy_at_zero": float(at_zero), "entropy_gap": entropy_gap,
             "step_gap": step_gap, "wall_s": wall})


# ---------------------------------------------------------------------------
# 12. anisotropic chain: branch values, crossing, entanglement jump


def _crit_xxz(base_seed):
    psi, _, _ = xxz_ground_state(4, -2.0)
    ferro = ferro_overlap(psi)
    eq = equatorial_overlap(psi, 4)
    run, _ = cli.run("xxz", base_seed + 1200, n=4, gamma_min=-1.2, gamma_max=-0.8,
                     n_points=41, n_restarts=8)
    cross, jump = run["branch_crossing_gamma"], run["ge_jump_gamma"]
    passed = (abs(ferro - 1.0) <= 1e-9 and abs(eq - 1 / 16) <= 1e-6
              and abs(cross - 1.0) <= 0.02 and abs(jump + 1.0) <= 0.02)
    return (bool(passed),
            f"ferro branch {ferro:.6f}, equatorial branch {eq:.6f}, "
            f"crossing at {cross:.4f}, jump at {jump:.3f}",
            "branch overlaps 1 and 1/16 in the ferro phase; crossing at "
            "1.00 +- 0.02; entanglement jump at -1.00 +- 0.02",
            {"ferro": float(ferro), "equatorial": float(eq),
             "crossing": float(cross), "jump": float(jump)})


# ---------------------------------------------------------------------------
# 13. iterative end-to-end state transfer


def _crit_transfer(base_seed):
    run, tables = cli.run("transfer", base_seed)
    fid, drift = run["final_fidelity"], run["max_excitation_drift"]
    monotone = bool(np.all(np.diff(tables["transfer.csv"]["fidelity"]) >= -1e-12))
    passed = monotone and fid >= 0.99 and drift <= 1e-12
    return (bool(passed),
            f"fidelity {fid:.6f} at iter 100, monotone={monotone}, "
            f"excitation drift {drift:.1e}",
            "monotone nondecreasing; >= 0.99 by iteration 100; excitation "
            "conserved within 1e-12",
            {"final_fidelity": fid, "monotone": monotone, "drift": drift})


# ---------------------------------------------------------------------------
# 14. RF-power selection retains the calibrated signal fraction


def _crit_rf_selection(base_seed):
    retained = rf_selection_retention(0.02)
    gap = abs(retained - 0.12)
    return (gap <= 0.01,
            f"retained fraction {retained:.4f} (gap {gap:.4f})",
            "window 0.02 retains 0.12 +- 0.01 of the signal",
            {"retained": retained, "gap": gap})


# ---------------------------------------------------------------------------
# 15. exact-mode runs are byte-identical under one seed


_DETERMINISM_RUNS = (
    ("ising", {}),
    ("dqc1", {}),
    ("transfer", {}),
    ("contextuality", {}),
    ("spectrum", {"n_samples": 512, "duration_s": 0.25}),
    ("distill", {"p_values": [0.8], "find_threshold": False}),
)


def _crit_determinism(base_seed):
    saved = os.environ.pop("NMRQIP_OUT_DIR", None)
    mismatches = []
    n_files = 0
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name, overrides in _DETERMINISM_RUNS:
                dirs = []
                for rep in (0, 1):
                    out = os.path.join(tmp, f"{name}-{rep}")
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.run_experiment(name, seed=base_seed + 17,
                                                  out_dir=out,
                                                  config_doc=overrides)
                    if code != 0:
                        mismatches.append(f"{name}: exit {code}")
                    dirs.append(out)
                for fname in sorted(os.listdir(dirs[0])):
                    if not fname.endswith(".csv"):
                        continue
                    n_files += 1
                    with open(os.path.join(dirs[0], fname), "rb") as fh:
                        first = fh.read()
                    with open(os.path.join(dirs[1], fname), "rb") as fh:
                        second = fh.read()
                    if first != second:
                        mismatches.append(f"{name}/{fname}")
    finally:
        if saved is not None:
            os.environ["NMRQIP_OUT_DIR"] = saved
    passed = not mismatches
    return (passed,
            f"{n_files} CSV files byte-compared across double runs"
            + ("" if passed else f"; mismatches: {mismatches}"),
            "every exact-mode CSV byte-identical when re-run with the same seed",
            {"files_compared": n_files, "mismatches": mismatches})


CRITERIA = {
    "grape-cnot": _crit_grape,
    "cnot-sequence": _crit_cnot_sequence,
    "twirl-memory": _crit_twirl,
    "certify-clifford": _crit_certify,
    "randomized-benchmarking": _crit_rb,
    "qec-codes": _crit_qec,
    "magic-distillation": _crit_distill,
    "dqc1-trace": _crit_dqc1,
    "contextuality": _crit_contextuality,
    "weak-values": _crit_weak,
    "ising-ground": _crit_ising,
    "xxz-ge": _crit_xxz,
    "state-transfer": _crit_transfer,
    "rf-selection": _crit_rf_selection,
    "determinism": _crit_determinism,
}


def run_criterion(name: str, base_seed: int = 0) -> CriterionResult:
    fn = CRITERIA[name]
    t0 = time.perf_counter()
    passed, measured, expected, details = fn(base_seed)
    return CriterionResult(name, bool(passed), measured, expected,
                           time.perf_counter() - t0, details)
