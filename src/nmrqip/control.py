"""RF control: J-coupling gates, the NMR CNOT sequence, GRAPE, RF selection.

Control amplitudes are nutation rates in rad/s (u = gamma*B1), one (x, y)
channel pair per nuclide species.  A step of length dt under amplitude u
rotates by angle u*dt.  A piecewise-constant pulse is its (n_steps,
n_channels) amplitude array, with its step length dt and cap u_max passed
beside it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .qop import pauli_sum, rotation, spin_bits
from .spins import SpinSystem, internal_hamiltonian, iz_diagonal


def j_evolution(sys: SpinSystem, pair, t: float) -> np.ndarray:
    """exp(-i 2 pi J_ij Iz_i Iz_j t) on the pair, identity elsewhere."""
    i, j = pair
    jij = sys.j[i - 1, j - 1]
    if jij == 0.0:
        raise ValueError(f"spins {i},{j} are not coupled")
    zz = iz_diagonal(i, sys.n) * iz_diagonal(j, sys.n)  # the +-1/4 diagonal of Iz_i Iz_j
    return np.diag(np.exp(-1j * 2 * np.pi * jij * t * zz))


def cnot_sequence(sys: SpinSystem, control: int, target: int) -> np.ndarray:
    """CNOT from the NMR primitive sequence: rotations plus 1/(2J) coupling.

    sqrt(i) Rz_c(pi/2) Rz_t(-pi/2) Rx_t(pi/2) U_J(1/2J) Ry_t(pi/2),
    exactly the canonical CNOT on the (control, target) pair.
    """
    jij = sys.j[control - 1, target - 1]
    if jij == 0.0:
        raise ValueError(f"spins {control},{target} are not coupled")
    n = sys.n
    seq = (
        rotation("z", np.pi / 2, control, n)
        @ rotation("z", -np.pi / 2, target, n)
        @ rotation("x", np.pi / 2, target, n)
        @ j_evolution(sys, (control, target), 1 / (2 * jij))
        @ rotation("y", np.pi / 2, target, n)
    )
    return np.sqrt(1j) * seq


# ---------------------------------------------------------------------------
# piecewise-constant pulses and GRAPE


def control_channels(sys: SpinSystem):
    """(channel names, (n_channels, d, d) stack of Hermitian drive operators),
    one (x, y) pair per species."""
    names, ops = [], []
    for label, spins in sys.channels():
        for ax in ("x", "y"):
            names.append(f"{label}.{ax}")
            ops.append(pauli_sum(sys.n, [(0.5, *spin_bits(ax, q, sys.n)) for q in spins]))
    return tuple(names), np.array(ops)


@dataclass
class GrapeResult:
    amplitudes: np.ndarray  # (n_steps, n_channels) in rad/s
    fidelities: np.ndarray  # accepted objective value per iteration, monotone
    converged: bool
    iterations: int
    message: str
    evaluations: int  # objective evaluations, rejected line-search trials included

    @property
    def fidelity(self) -> float:
        return float(self.fidelities[-1])


# Bytes of a (steps, scales, d, d) complex temporary of one chunk of steps.  A
# chunk takes one to two budgets; at 32 KiB the chunks reuse heap pages, where
# at 128 KiB malonate3 takes 18 times the page faults and is no faster.
_STEP_CHUNK_BYTES = 1 << 15


def _step_chunks(shape, d):
    """Even slices of the steps of a (steps, *scales) record, at least two steps
    each (numpy sends a one-row product to gemv, which rounds unlike gemm)."""
    n, size = shape[0], max(2, _STEP_CHUNK_BYTES // (16 * d * d * math.prod(shape[1:])))
    k = min(n, max(1, n // size))
    return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]


def _propagators(u, h_int, h_ctrl, dt, out=None):
    """Step record (fwd, lam, v, ph) of amplitudes u[m, ..., k]: the forward
    products fwd[m] = U_{m-1}...U_0 (fwd[0] = I), and each step's eigenvalues,
    eigenvectors and phases exp(-i lam dt).  Axes between steps and channels
    (RF scales) share one eigh and one stacked product per chunk of steps.
    A record of the same shape passed as out is overwritten and returned."""
    n_ch, d = len(h_ctrl), h_int.shape[0]
    steps = u.shape[:-1]
    fwd, lam, v, ph = out or (np.empty((len(u) + 1, *steps[1:], d, d), complex),
                              np.empty((*steps, d)), np.empty((*steps, d, d), complex),
                              np.empty((*steps, d), complex))
    fwd[0] = np.eye(d)
    for c in _step_chunks(steps, d):
        drive = u[c].reshape(-1, n_ch) @ h_ctrl.reshape(n_ch, d * d)
        lam[c], v[c] = np.linalg.eigh(h_int + drive.reshape(*u[c].shape[:-1], d, d))
        ph[c] = np.exp(-1j * lam[c] * dt)
        props = (v[c] * ph[c][..., None, :]) @ v[c].conj().swapaxes(-1, -2)  # V diag(ph) V^dag
        for m in range(c.start, c.stop):
            np.matmul(props[m - c.start], fwd[m], out=fwd[m + 1])
    return fwd, lam, v, ph


def _fidelity(u_target, u) -> float:
    d = u_target.shape[0]
    return float(abs(np.trace(u_target.conj().T @ u)) ** 2 / d**2)


def _phase_divided_differences(lam, dt) -> np.ndarray:
    """(ph_a - ph_b) / (lam_a - lam_b) of ph = exp(-i lam dt) on the last axis, as
    -i dt exp(-i (lam_a + lam_b) dt / 2) sinc((lam_a - lam_b) dt / 2): no gap cut."""
    half = np.exp(-0.5j * dt * lam)
    return -1j * dt * half[..., :, None] * half[..., None, :] * np.sinc(
        dt / (2 * np.pi) * (lam[..., :, None] - lam[..., None, :]))


def _gradient(u_target, h_ctrl, dt, record) -> np.ndarray:
    """Exact d(fidelity)/du[m, ..., k] from a step record, shaped like its u.

    With W_m = V_m^dag fwd[m] U_t^dag U_{N-1}...U_{m+1} V_m and E_mk =
    V_m^dag H_k V_m, dg[m, k] = sum_ab W_m[b, a] E_mk[a, b] (-i dt) fdiv_m[a, b],
    fdiv the divided differences of exp(-i lam dt): exact, no small-dt cut.
    The steps are unitary and U_m^dag V_m = V_m diag(ph_m*), so with
    K_m = V_m^dag fwd[m] and M = U_t^dag fwd[N], W_m = K_m M K_m^dag diag(ph_m*).
    """
    fwd, lam, v, ph = record
    n_ch, d = len(h_ctrl), lam.shape[-1]
    mt = u_target.conj().T @ fwd[-1]
    g = np.trace(mt, axis1=-2, axis2=-1)
    dg = np.empty((*lam.shape[:-1], n_ch), complex)
    for c in _step_chunks(lam.shape[:-1], d):
        w = v[c].conj().swapaxes(-1, -2) @ fwd[c]  # K_m
        w = w @ mt @ w.conj().swapaxes(-1, -2)  # W_m diag(ph_m)
        fdiv = _phase_divided_differences(lam[c], dt)  # (-i dt) fdiv_m
        fdiv *= w.swapaxes(-1, -2) * ph[c].conj()[..., :, None]  # W_m^T fdiv_m
        # sum_ab X[a, b] E_k[a, b] = sum_ij H_k[i, j] (conj(V) X V^T)[i, j]
        y = v[c].conj() @ fdiv @ v[c].swapaxes(-1, -2)
        dg[c] = (y.reshape(-1, d * d) @ h_ctrl.reshape(n_ch, d * d).T).reshape(dg[c].shape)
    return 2 * np.real(np.conj(g)[..., None] * dg) / d**2


def grape_gradient(u_target, h_int, h_ctrl, u, dt) -> np.ndarray:
    """Exact d(fidelity)/du[m, k] of the pulse u, read from each step's eigenbasis."""
    return _gradient(u_target, h_ctrl, dt, _propagators(u, np.asarray(h_int, complex), h_ctrl, dt))


def _lbfgs_direction(grad, memory):
    """Uphill H grad by the two-loop recursion (Nocedal & Wright, Alg. 7.4), H0 =
    s'y/y'y; y is the fall in gradient, so H ~ the inverse negated Hessian."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    s, y, rho = memory[-1]
    q *= 1 / (rho * (y @ y))
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        q += (a - rho * (y @ q)) * s
    return q


def _fd_gradient(u_target, h_int, h_ctrl, u, dt, u_max, h_rel=1e-6):
    """Central differences of the fidelity in raw amplitudes, of step
    h_rel * max(u_max, 1 rad/s), free to pass the cap u_max."""
    h_int = np.asarray(h_int, complex)
    eps = h_rel * max(u_max, 1.0)
    grad = np.zeros_like(u)
    for m, k in np.ndindex(grad.shape):
        pair = np.stack([u] * 2, axis=1)
        pair[m, :, k] += (eps, -eps)
        up, um = _propagators(pair, h_int, h_ctrl, dt)[0][-1]
        grad[m, k] = (_fidelity(u_target, up) - _fidelity(u_target, um)) / (2 * eps)
    return grad


def random_pulse(n_steps: int, n_channels: int, u_max: float, seed: int = 0,
                 scale: float = 0.01) -> np.ndarray:
    """Small random starting pulse, uniform in +-scale*u_max."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=(n_steps, n_channels)) * u_max


def grape_optimize(
    sys: SpinSystem,
    u_target: np.ndarray,
    amps: np.ndarray,
    dt: float,
    u_max: float,
    max_iters: int,
    target_fidelity: float,
    gradient_mode: str,
    rf_distribution,
    weak_coupling: bool = True,
) -> GrapeResult:
    """Pulse engineering by box-projected L-BFGS in x = u/u_max, bounds +-1,
    from the starting amplitudes amps of steps of length dt.

    Two-loop quasi-Newton directions (memory 10) are clipped to the box and
    halved until an Armijo test passes; with no pair stored (first step, or
    after a reset) a step moves the largest amplitude by 1% of the cap.  A
    quasi-Newton search that fails resets the memory and searches again
    along that step; only a failed reset-step search is a stall.  The
    objective is the rf_distribution-weighted fidelity of the scaled pulses;
    only accepted steps enter its monotone trace.  Stalls return best-so-far,
    not converged.
    """
    if np.shape(u_target) != (sys.dim,) * 2:
        raise ValueError(f"u_target shape {np.shape(u_target)} is not {(sys.dim,) * 2}")
    h_int = internal_hamiltonian(sys, weak_coupling=weak_coupling)
    names, h_ctrl = control_channels(sys)
    if np.shape(amps)[1:] != (len(names),):
        raise ValueError(f"pulse shape {np.shape(amps)} does not match channels {names}")
    dist = tuple(rf_distribution)
    scales = np.array([[s] for s, _ in dist])
    slopes = np.array([w * s for s, w in dist])  # dF/du = sum_s w s F_s'(s u)

    def objective(amps, record=None):
        """Weighted fidelity, summed in rf_distribution order, and one step
        record for all RF scales, amplitudes shaped (steps, scales, channels)."""
        record = _propagators(amps[:, None, :] * scales, h_int, h_ctrl, dt, record)
        return sum(w * _fidelity(u_target, u) for (_, w), u in zip(dist, record[0][-1])), record

    def gradient(amps, record) -> np.ndarray:
        if gradient_mode == "exact":
            return slopes @ _gradient(u_target, h_ctrl, dt, record)
        total = np.zeros_like(amps)
        for s, w in dist:
            # each member steps by h_rel of its own scaled cap
            total += w * s * _fd_gradient(u_target, h_int, h_ctrl, s * amps, dt,
                                          max(1.0, abs(s)) * u_max)
        return total

    def line_search(x, d, phi, grad):
        """(x', amplitudes, fidelity) of the first clipped step x' = x + t d,
        t = 1, 1/2, ... (40 tries), that passes the Armijo test, or None."""
        nonlocal record, evaluations
        t = 1.0
        for _ in range(40):
            cand = np.clip(x + t * d, -1, 1)
            cand_amps = u_max * cand.reshape(amps.shape)
            phi_new, record = objective(cand_amps, record)  # the run's one record
            evaluations += 1
            # strict increase too: clipping can turn a step's slope negative
            if phi_new > phi and phi_new - phi >= 1e-4 * (grad @ (cand - x)):
                return cand, cand_amps, phi_new
            t *= 0.5
        return None

    x = (amps / u_max).ravel()
    phi, record = objective(amps)
    evaluations = 1
    trace = [phi]
    memory = deque(maxlen=10)  # (s, y, 1/s'y) of recent steps with s'y > 0
    converged = phi >= target_fidelity
    message = "already at target" if converged else "max_iters reached"
    it = 0
    grad = None
    while not converged and it < max_iters:
        grad, last = u_max * gradient(amps, record).ravel(), grad  # dF/dx
        if last is not None and step @ (y := last - grad) > 0:  # concave along step
            memory.append((step, y, 1 / (step @ y)))
        gmax = np.max(np.abs(grad))
        if gmax < 1e-10:
            message = f"gradient norm below 1e-10 at fidelity {phi:.6f}"
            break
        d = _lbfgs_direction(grad, memory) if memory else None
        found = line_search(x, d, phi, grad) if d is not None and d @ grad > 0 else None
        if found is None:
            # clipping to the box can leave an L-BFGS direction no ascent where
            # the reset step, which moves the largest amplitude by 1% of the
            # cap, still has one
            memory.clear()
            found = line_search(x, 1e-2 * grad / gmax, phi, grad)
        if found is None:
            message = f"line search stalled at fidelity {phi:.6f}"
            break
        step = found[0] - x
        x, amps, phi = found
        trace.append(phi)
        it += 1
        if phi >= target_fidelity:
            converged = True
            message = f"target reached in {it} iterations"
    return GrapeResult(amps, np.array(trace), converged, it, message, evaluations)


# ---------------------------------------------------------------------------
# RF selection


def default_b1_distribution():
    """Histogram fixture of normal B1 scale factors (mean 1, sd 0.13245) in
    500 bins over [0.5, 1.5], calibrated so that a +-2% homogeneity window
    retains 12% of the ensemble."""
    edges = np.linspace(0.5, 1.5, 501)
    weights = np.diff([0.5 * math.erfc(-x / math.sqrt(2)) for x in (edges - 1.0) / 0.13245])
    weights /= weights.sum()
    return edges, weights


def rf_selection_retention(homogeneity_window: float) -> float:
    """Fraction of the default_b1_distribution ensemble whose B1 scale lies
    within +-window of nominal."""
    if homogeneity_window < 0:
        raise ValueError("window must be >= 0")
    edges, weights = default_b1_distribution()
    lo, hi = 1.0 - homogeneity_window, 1.0 + homogeneity_window
    left, right = edges[:-1], edges[1:]
    overlap = np.clip(np.minimum(right, hi) - np.maximum(left, lo), 0.0, None)
    frac = np.where(right > left, overlap / (right - left), 0.0)
    return float(np.sum(weights * frac))
