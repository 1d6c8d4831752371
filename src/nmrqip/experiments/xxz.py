"""Geometric entanglement across the XXZ chain's phase diagram.

H = sum_i (X_i X_{i+1} + Y_i Y_{i+1} + gamma Z_i Z_{i+1}) on a periodic
chain.  The ground state's geometric entanglement E = -log2 max|<prod|psi>|^2
picks up both transitions: a jump at gamma = -1 (first order, out of the
ferromagnetic phase) and a derivative cusp at gamma = 1 (infinite order,
into the antiferromagnetic phase), where correlation-function diagnostics
stay smooth.

The product-state maximization is the alternating sweep: hold all factors
but one fixed, replace that factor with its normalized environment
contraction (the local optimum), and sweep back and forth until stationary;
all random restarts sweep as one batch, each stopping where it would alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..qop import pauli_sum


def xxz_hamiltonian(n: int, gamma: float) -> np.ndarray:
    if not 2 <= n <= 7:
        raise ValueError("chain length out of the supported range 2..7")
    terms = []
    for i in range(n):
        bond = 1 << (n - 1 - i) | 1 << (n - 1 - (i + 1) % n)
        terms += [(1.0, bond, 0), (1.0, bond, bond), (gamma, 0, bond)]
    return pauli_sum(n, terms)


def _total_z(n: int) -> np.ndarray:
    """Diagonal of sum_i Z_i: n - 2 popcount(a) on basis state a."""
    return n - 2 * np.bitwise_count(np.arange(2**n)).astype(int)


def xxz_ground_state(n: int, gamma: float, rtol: float = 1e-9):
    """Ground state with a deterministic rule for degenerate ground spaces.

    Inside a degenerate space the total-z operator is diagonalized first;
    the zero-magnetization sector is preferred (largest magnetization if no
    zero sector exists), and remaining freedom is resolved by projecting the
    lowest-index computational basis state with support onto the sector.
    Returns (state, energy, degeneracy).
    """
    energies, vectors = np.linalg.eigh(xxz_hamiltonian(n, gamma))
    e0 = energies[0]
    sel = np.abs(energies - e0) <= rtol * max(1.0, abs(e0))
    space = vectors[:, sel]
    deg = space.shape[1]
    if deg == 1:
        return space[:, 0], float(e0), 1

    msub = (space.conj().T * _total_z(n)) @ space
    mvals, mvecs = np.linalg.eigh(msub)
    mvals = np.round(mvals.real, 6)
    zero = np.abs(mvals) < 1e-6
    pick = np.where(zero)[0] if zero.any() else np.where(mvals == mvals.max())[0]
    sector = space @ mvecs[:, pick]
    for b in range(2**n):
        amps = sector[b].conj()
        if np.linalg.norm(amps) > 1e-8:
            state = sector @ amps
            return state / np.linalg.norm(state), float(e0), deg
    return sector[:, 0], float(e0), deg


def _norms(v: np.ndarray) -> np.ndarray:
    """Norms over the last axis of a complex array, in np.linalg.norm's
    operation order, so that each equals the norm of its vector alone."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def _sweep(psi, factors: np.ndarray, sites, update, max_sweeps: int):
    """Alternating sweeps of every row of factors (R, n, 2) at once, in place;
    returns each row's final squared overlap and its sweep count.

    At each site one einsum gives every row's environment, psi contracted
    with the conjugates of its other factors.  update(env, live) gives each
    row's new factor and overlap and the rows that take them; a row it clears
    in live sits out the rest of the sweep.  A row stops after the first
    sweep that moves its overlap by less than 1e-13: as if swept alone.
    """
    n = factors.shape[1]
    tensor = np.asarray(psi, dtype=complex).reshape((2,) * n)
    lam, sweeps = np.zeros(len(factors)), np.zeros(len(factors), dtype=int)
    active = np.arange(len(factors))
    for _ in range(max_sweeps):
        f, prev = factors[active], lam[active]
        cur, live = prev.copy(), np.ones(active.size, dtype=bool)
        for site in sites:
            conj = f.conj()
            others = [a for j in range(n) if j != site for a in (conj[:, j], [n, j])]
            env = np.einsum(tensor, list(range(n)), *others, [n, site])
            new, overlap, take = update(env, live)
            np.copyto(f[:, site], new, where=take[:, None])
            np.copyto(cur, overlap, where=take)
        factors[active], lam[active] = f, cur
        sweeps[active] += 1
        active = active[np.abs(cur - prev) >= 1e-13]
        if not active.size:
            break
    return np.array([x**2 for x in lam]), sweeps  # scalar squares; array ** 2 can differ


def _local_optimum(env: np.ndarray, live: np.ndarray):
    """The normalized environment (the exact local optimum); a vanishing one
    ends its row's sweep."""
    norm = _norms(env)
    live &= norm >= 1e-15
    return np.divide(env, norm[:, None], out=env, where=live[:, None]), norm, live


def product_overlap_sweep(psi: np.ndarray, n: int, rng: np.random.Generator, n_restarts: int = 1):
    """Alternating local maximization of |<prod|psi>| from n_restarts random
    starts, all swept back and forth as one batch, at most 500 times; returns
    per restart (lambda^2, factors, sweeps), of shapes (R,), (R, n, 2), (R,).

    Each site update is the exact local optimum, so the overlap never
    decreases along a sweep.
    """
    draw = rng.normal(size=(n_restarts, n, 2, 2))  # restart by restart, site by site
    factors = draw[:, :, 0] + 1j * draw[:, :, 1]
    factors /= _norms(factors)[..., None]
    sites = [*range(n), *range(n - 1, -1, -1)]  # back and forth
    lam2, sweeps = _sweep(psi, factors, sites, _local_optimum, max_sweeps=500)
    return lam2, factors, sweeps


# -- the three competing product families ------------------------------------


def ferro_overlap(psi: np.ndarray) -> float:
    """Best polarized product state: max of |<00..0|psi>|^2, |<11..1|psi>|^2."""
    return float(max(abs(psi[0]) ** 2, abs(psi[-1]) ** 2))


def neel_overlap(psi: np.ndarray, n: int) -> float:
    """Best alternating computational product state."""
    b1 = int("01" * (n // 2) + "01"[: n % 2], 2)
    b2 = int("10" * (n // 2) + "10"[: n % 2], 2)
    return float(max(abs(psi[b1]) ** 2, abs(psi[b2]) ** 2))


def _equator(phi: np.ndarray) -> np.ndarray:
    """Equatorial factors (|0> + e^{i phi}|1>)/sqrt2, one per phase."""
    return np.stack([np.ones_like(phi), np.exp(1j * phi)], axis=-1) / np.sqrt(2)


def _phase_aligned(env: np.ndarray, live: np.ndarray):
    """The equatorial factor in phase with the environment; a vanishing
    environment leaves its row's factor as it is."""
    new = _equator(np.angle(env[:, 1]) - np.angle(env[:, 0]))
    overlap = np.vecdot(new, env)
    return new, np.hypot(overlap.real, overlap.imag), _norms(env) >= 1e-14


def equatorial_overlap(psi: np.ndarray, n: int) -> float:
    """Best product of equatorial states (|0> + e^{i phi}|1>)/sqrt2.

    Same alternating sweep, forward only, at most 300 times and four seeds as
    one batch (seed s starts from phases drawn by default_rng(s)), but each
    site update keeps the factor on the equator and only aligns its phase
    with the environment.
    """
    phases = np.array([np.random.default_rng(seed).uniform(0, 2 * np.pi, n)
                       for seed in range(4)])
    lam2, _ = _sweep(psi, _equator(phases), range(n), _phase_aligned, max_sweeps=300)
    return float(np.max(lam2, initial=0.0))


@dataclass(frozen=True)
class XxzScan:
    gammas: np.ndarray
    ge: np.ndarray
    lambda2: np.ndarray
    ferro: np.ndarray
    equatorial: np.ndarray
    neel: np.ndarray
    degeneracy: np.ndarray

    def __post_init__(self):
        for name in ("gammas", "ge", "lambda2", "ferro", "equatorial", "neel", "degeneracy"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def xxz_scan(n: int, gammas, rng: np.random.Generator, n_restarts: int = 16) -> XxzScan:
    gammas = np.array(gammas, dtype=float, ndmin=1)  # a copy: the scan freezes its own
    rows = []
    for gamma in gammas:
        psi, _, deg = xxz_ground_state(n, gamma)
        best = product_overlap_sweep(psi, n, rng, n_restarts)[0].max()
        rows.append((float(-np.log2(best)), best, ferro_overlap(psi),
                     equatorial_overlap(psi, n), neel_overlap(psi, n), deg))
    ge, lam2, ferro, equ, neel, deg = np.array(rows).reshape(-1, 6).T
    return XxzScan(gammas, ge, lam2, ferro, equ, neel, deg.astype(int))


def ge_jump_location(scan: XxzScan) -> float:
    """Midpoint of the grid interval with the largest GE jump."""
    diffs = np.abs(np.diff(scan.ge))
    k = int(np.argmax(diffs))
    return float((scan.gammas[k] + scan.gammas[k + 1]) / 2)


# the gamma bracket branch_crossing bisects, down to a width of 1e-3
_CROSSING_BRACKET = (0.5, 1.5)


def branch_crossing(n: int) -> float:
    """Where the equatorial and alternating product families swap dominance.

    Bisects the sign change of (equatorial - neel) overlap along gamma in
    _CROSSING_BRACKET.  Only even rings of 4 or more sites have one: an odd
    periodic ring admits no alternating product state, and on 2 sites the
    two overlaps tie.
    """
    if n % 2 or n < 4:
        raise ValueError(f"no branch crossing on a ring of n={n} sites; "
                         "it needs an even n >= 4")

    def gap(gamma: float) -> float:
        psi, _, _ = xxz_ground_state(n, gamma)
        return equatorial_overlap(psi, n) - neel_overlap(psi, n)

    lo, hi = _CROSSING_BRACKET
    glo, ghi = gap(lo), gap(hi)
    if np.sign(glo) == np.sign(ghi):
        raise ValueError(f"no dominance change in [{lo}, {hi}]")
    while hi - lo > 1e-3:
        mid = (lo + hi) / 2
        gmid = gap(mid)
        if np.sign(gmid) == np.sign(glo):
            lo, glo = mid, gmid
        else:
            hi, ghi = mid, gmid
    return (lo + hi) / 2
