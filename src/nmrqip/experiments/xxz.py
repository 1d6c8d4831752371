"""Geometric entanglement across the XXZ chain's phase diagram.

H = sum_i (X_i X_{i+1} + Y_i Y_{i+1} + gamma Z_i Z_{i+1}) on a periodic
chain.  The ground state's geometric entanglement E = -log2 max|<prod|psi>|^2
picks up both transitions: a jump at gamma = -1 (first order, out of the
ferromagnetic phase) and a derivative cusp at gamma = 1 (infinite order,
into the antiferromagnetic phase), where correlation-function diagnostics
stay smooth.

The product-state maximization is the alternating sweep: hold all factors
but one fixed, replace that factor with its normalized environment
contraction (the local optimum), and sweep back and forth until stationary.
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
    a = np.arange(2**n)
    return n - 2 * sum((a >> s) & 1 for s in range(n))


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


def _environment(tensor: np.ndarray, factors, site: int, n: int) -> np.ndarray:
    args = [tensor, list(range(n))]
    for j in range(n):
        if j != site:
            args += [np.conj(factors[j]), [j]]
    return np.einsum(*args, [site])


def product_overlap_sweep(psi: np.ndarray, n: int, factors=None, rng=None, max_sweeps: int = 500):
    """Alternating local maximization of |<prod|psi>|; returns (lambda^2, factors).

    Each site update is the exact local optimum, so the overlap never
    decreases along a sweep.
    """
    tensor = np.asarray(psi, dtype=complex).reshape((2,) * n)
    if factors is None:
        if rng is None:
            raise ValueError("random initialization needs an rng")
        factors = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(n)]
        factors = [v / np.linalg.norm(v) for v in factors]
    else:
        factors = [np.asarray(v, dtype=complex) / np.linalg.norm(v) for v in factors]
    lam = 0.0
    for _ in range(max_sweeps):
        prev = lam
        for site in list(range(n)) + list(range(n - 1, -1, -1)):
            env = _environment(tensor, factors, site, n)
            norm = np.linalg.norm(env)
            if norm < 1e-15:
                break
            factors[site] = env / norm
            lam = norm
        if abs(lam - prev) < 1e-13:
            break
    return lam**2, factors


@dataclass(frozen=True)
class GeResult:
    lambda2: float
    ge: float
    restarts: tuple


def _state_ge(psi: np.ndarray, n: int, rng: np.random.Generator, n_restarts: int) -> GeResult:
    """Geometric entanglement of psi, best of n_restarts random-start sweeps."""
    values = [product_overlap_sweep(psi, n, rng=rng)[0] for _ in range(n_restarts)]
    best = max(values)
    return GeResult(best, float(-np.log2(best)), tuple(values))


# -- the three competing product families ------------------------------------


def ferro_overlap(psi: np.ndarray) -> float:
    """Best polarized product state: max of |<00..0|psi>|^2, |<11..1|psi>|^2."""
    return float(max(abs(psi[0]) ** 2, abs(psi[-1]) ** 2))


def neel_overlap(psi: np.ndarray, n: int) -> float:
    """Best alternating computational product state."""
    b1 = int("01" * (n // 2) + "01"[: n % 2], 2)
    b2 = int("10" * (n // 2) + "10"[: n % 2], 2)
    return float(max(abs(psi[b1]) ** 2, abs(psi[b2]) ** 2))


def equatorial_overlap(psi: np.ndarray, n: int, n_seeds: int = 4, max_sweeps: int = 300) -> float:
    """Best product of equatorial states (|0> + e^{i phi}|1>)/sqrt2.

    Same alternating sweep, but each site update keeps the factor on the
    equator and only aligns its phase with the environment contraction.
    """
    tensor = np.asarray(psi, dtype=complex).reshape((2,) * n)
    best = 0.0
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        phases = rng.uniform(0, 2 * np.pi, n)
        factors = [np.array([1, np.exp(1j * p)]) / np.sqrt(2) for p in phases]
        lam = 0.0
        for _ in range(max_sweeps):
            prev = lam
            for site in range(n):
                env = _environment(tensor, factors, site, n)
                if np.linalg.norm(env) < 1e-14:
                    continue
                phi = np.angle(env[1]) - np.angle(env[0])
                factors[site] = np.array([1, np.exp(1j * phi)]) / np.sqrt(2)
                lam = abs(np.vdot(factors[site], env))
            if abs(lam - prev) < 1e-13:
                break
        best = max(best, lam**2)
    return float(best)


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
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    ge, lam2, ferro, equ, neel, deg = [], [], [], [], [], []
    for gamma in gammas:
        psi, _, d = xxz_ground_state(n, gamma)
        res = _state_ge(psi, n, rng, n_restarts)
        ge.append(res.ge)
        lam2.append(res.lambda2)
        ferro.append(ferro_overlap(psi))
        equ.append(equatorial_overlap(psi, n))
        neel.append(neel_overlap(psi, n))
        deg.append(d)
    return XxzScan(
        gammas,
        np.array(ge),
        np.array(lam2),
        np.array(ferro),
        np.array(equ),
        np.array(neel),
        np.array(deg, dtype=int),
    )


def ge_jump_location(scan: XxzScan) -> float:
    """Midpoint of the grid interval with the largest GE jump."""
    diffs = np.abs(np.diff(scan.ge))
    k = int(np.argmax(diffs))
    return float((scan.gammas[k] + scan.gammas[k + 1]) / 2)


def branch_crossing(n: int, lo: float = 0.5, hi: float = 1.5, tol: float = 1e-3) -> float:
    """Where the equatorial and alternating product families swap dominance.

    Bisects the sign change of (equatorial - neel) overlap along gamma.  Only
    even rings of 4 or more sites have one: an odd periodic ring admits no
    alternating product state, and on 2 sites the two overlaps tie.
    """
    if n % 2 or n < 4:
        raise ValueError(f"no branch crossing on a ring of n={n} sites; "
                         "it needs an even n >= 4")

    def gap(gamma: float) -> float:
        psi, _, _ = xxz_ground_state(n, gamma)
        return equatorial_overlap(psi, n) - neel_overlap(psi, n)

    glo, ghi = gap(lo), gap(hi)
    if glo == 0:
        return lo
    if ghi == 0:
        return hi
    if np.sign(glo) == np.sign(ghi):
        raise ValueError(f"no dominance change in [{lo}, {hi}]")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        gmid = gap(mid)
        if gmid == 0:
            return mid
        if np.sign(gmid) == np.sign(glo):
            lo, glo = mid, gmid
        else:
            hi, ghi = mid, gmid
    return (lo + hi) / 2
