"""Spin-system models: molecules, internal Hamiltonians, PPS, and readout.

Internal Hamiltonians are returned in angular-frequency units (rad/s); all
molecule parameters (offsets, couplings) are stored in Hz.  Spin operators
are I_a = sigma_a/2 throughout.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .qop import pauli_sum, spin_bits


@dataclass(frozen=True)
class SpinSystem:
    """Rotating-frame model of an n-spin molecule.

    offsets: per-spin offset nu_i in Hz relative to the channel carrier.
    couplings: symmetric n x n scalar-coupling matrix J_ij in Hz, zero diagonal.
    t1, t2star: per-spin relaxation times in seconds, t1_i >= t2star_i > 0.
    species: per-spin nuclide tags; spins of one species share an RF channel.
    """

    n: int
    offsets: tuple
    couplings: tuple
    t1: tuple
    t2star: tuple
    species: tuple = ()
    name: str = ""

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError("need at least one spin")
        object.__setattr__(self, "offsets", tuple(float(v) for v in self.offsets))
        object.__setattr__(self, "t1", tuple(float(v) for v in self.t1))
        object.__setattr__(self, "t2star", tuple(float(v) for v in self.t2star))
        j = np.array(self.couplings, dtype=float)
        if j.shape != (n, n):
            raise ValueError(f"couplings must be {n}x{n}")
        if np.max(np.abs(j - j.T)) > 0:
            raise ValueError("coupling matrix must be symmetric")
        if np.max(np.abs(np.diagonal(j))) > 0:
            raise ValueError("coupling matrix must have zero diagonal")
        object.__setattr__(self, "couplings", tuple(map(tuple, j)))
        if len(self.offsets) != n or len(self.t1) != n or len(self.t2star) != n:
            raise ValueError("per-spin arrays must have length n")
        species = tuple(self.species) if self.species else tuple("H" for _ in range(n))
        if len(species) != n:
            raise ValueError("species must have length n")
        object.__setattr__(self, "species", species)
        for i, (a, b) in enumerate(zip(self.t1, self.t2star)):
            if not (a >= b > 0):
                raise ValueError(f"spin {i + 1}: need t1 >= t2star > 0, got {a}, {b}")

    @property
    def j(self) -> np.ndarray:
        return np.array(self.couplings, dtype=float)

    def channels(self):
        """Species groups as (label, 1-based spin list), in first-seen order."""
        groups: dict = {}
        for i, s in enumerate(self.species, start=1):
            groups.setdefault(s, []).append(i)
        return list(groups.items())

    @property
    def dim(self) -> int:
        return 2**self.n


def raising_op(spin: int, n: int) -> np.ndarray:
    """I+ = Ix + i Iy on one 1-based spin of n: the FID readout operator."""
    return pauli_sum(n, [(0.5, *spin_bits("x", spin, n)), (0.5j, *spin_bits("y", spin, n))])


def iz_diagonal(spin: int, n: int) -> np.ndarray:
    """Diagonal of I_z on one 1-based spin: +1/2 where its bit is 0, -1/2 where 1."""
    return 0.5 - ((np.arange(2**n) >> (n - spin)) & 1)


def hamiltonian_diagonal(sys: SpinSystem, couplings: bool = True) -> np.ndarray:
    """Real diagonal (rad/s) of the Zeeman Hamiltonian, plus the weak-coupling
    ZZ terms when `couplings` is set.

    Terms are added in the order of the dense sum they replace, so
    np.diag of this vector equals that sum bit for bit.
    """
    zs = [iz_diagonal(i, sys.n) for i in range(1, sys.n + 1)]
    h = np.zeros(sys.dim)
    for nu, z in zip(sys.offsets, zs):
        if nu != 0.0:
            h -= 2 * np.pi * nu * z
    if couplings:
        j = sys.j
        for i in range(sys.n):
            for k in range(i + 1, sys.n):
                if j[i, k] != 0.0:
                    h += 2 * np.pi * j[i, k] * (zs[i] * zs[k])
    return h


def internal_hamiltonian(sys: SpinSystem, weak_coupling: bool = True) -> np.ndarray:
    """Rotating-frame internal Hamiltonian in rad/s.

    Weak form: -sum 2 pi nu_i Iz_i + sum_{i<j} 2 pi J_ij Iz_i Iz_j (diagonal).
    Full form adds 2 pi J_ij (Ix_i Ix_j + Iy_i Iy_j) for each pair of one species:
    each species has its own rotating frame, so a heteronuclear pair keeps ZZ alone.
    Requesting the weak form when some homonuclear pair has
    |2 pi J| > 0.1 |delta omega| emits a warning but still returns it.
    """
    h = np.diag(hamiltonian_diagonal(sys))
    if weak_coupling:
        _warn_if_strongly_coupled(sys)
        return h.astype(complex)
    terms = []
    for i, k, jik in _homonuclear_pairs(sys):
        pair, c = 1 << (sys.n - 1 - i) | 1 << (sys.n - 1 - k), 2 * np.pi * jik / 4
        terms += [(c, pair, 0), (c, pair, pair)]  # XX, YY
    return h + pauli_sum(sys.n, terms)


def _homonuclear_pairs(sys: SpinSystem) -> list:
    """(i, k, J_ik in Hz) of each coupled pair of one species, 0-based, i < k."""
    j = sys.j
    return [(i, k, j[i, k]) for i in range(sys.n) for k in range(i + 1, sys.n)
            if sys.species[i] == sys.species[k] and j[i, k] != 0.0]


def _warn_if_strongly_coupled(sys: SpinSystem, ratio: float = 0.1):
    for i, k, jik in _homonuclear_pairs(sys):
        d_omega = 2 * np.pi * abs(sys.offsets[i] - sys.offsets[k])
        if abs(2 * np.pi * jik) > ratio * d_omega:
            warnings.warn(f"spins {i + 1},{k + 1}: weak-coupling form requested but "
                          f"|2piJ| exceeds {ratio} of the offset difference", stacklevel=3)


def thermal_state(sys: SpinSystem, beta_scaled: float) -> np.ndarray:
    """exp(-beta H_Z)/Z for the Zeeman part; the maximally mixed state at beta=0."""
    if beta_scaled < 0:
        raise ValueError("beta_scaled must be >= 0")
    w = hamiltonian_diagonal(sys, couplings=False)
    logp = -beta_scaled * (w - w.min())
    p = np.exp(logp)
    p /= p.sum()
    return np.diag(p).astype(complex)


def make_pps(n: int, epsilon: float) -> np.ndarray:
    """Pseudo-pure state (1-eps)/2^n I + eps |0...0><0...0|."""
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    d = 2**n
    rho = (1 - epsilon) / d * np.eye(d, dtype=complex)
    rho[0, 0] += epsilon
    return rho


# Byte budget for one time block of simulate_fid, at 32 bytes a sample per eigenvalue
# and per counted amplitude: n d when dense, where one spin's d are held at a time, so
# with room to spare.  The block lengths fix the FID's bytes: keep the formula as it is.
_FID_BLOCK_BYTES = 4 << 20
_FID_DENSE_SHARE = 1 / 32  # where the two FID paths cross over at n = 4..7


def simulate_fid(
    rho: np.ndarray,
    sys: SpinSystem,
    duration: float,
    n_samples: int,
    weak_coupling: bool = True,
) -> np.ndarray:
    """Ensemble free-induction signal sum_i Tr(rho(t) (Ix_i + i Iy_i)) e^(-t/T2*_i).

    rho evolves under the internal Hamiltonian with eigenvalues w, so in its
    eigenbasis rho(t)[a, b] = rho_e[a, b] e^(-i w_a t) conj(e^(-i w_b t)).
    The weak form is diagonal: its eigenbasis is the computational basis and
    w comes from `hamiltonian_diagonal`, with no diagonalization.

    Spin i's readout is a line list: line (a, b) has amplitude
    A_i[a, b] = rho_e[a, b] ob_i[b, a], with ob_i = Ix_i + i Iy_i in the
    eigenbasis, frequency w_a - w_b and decay rate 1/T2*_i.  The signal is
    summed over blocks of samples, each within `_FID_BLOCK_BYTES`, from the
    phases ph = e^(-i w t).  If at most `_FID_DENSE_SHARE` of the n 4^n
    amplitudes are nonzero (weak form: 2^n / 2 lines per spin), those are kept
    as arrays (i, a, b, A) and spin i sums A ph[a] conj(ph[b]); a larger share
    (full coupling) stays n dense 2^n x 2^n matrices, each times conj(ph) in
    turn (BLAS), so one spin's products are held at a time.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if duration <= 0:
        raise ValueError("duration must be positive")
    n, d = sys.n, sys.dim
    if weak_coupling:
        _warn_if_strongly_coupled(sys)
        w = hamiltonian_diagonal(sys)
        rho_e = np.asarray(rho, dtype=complex)
    else:
        w, v = np.linalg.eigh(internal_hamiltonian(sys, weak_coupling=False))
        rho_e = v.conj().T @ rho @ v
    amps = np.empty((n, d, d), dtype=complex)
    for i in range(n):
        ob = raising_op(i + 1, n)
        if not weak_coupling:
            ob = v.conj().T @ ob @ v
        np.multiply(rho_e, ob.T, out=amps[i])
    n_lines = np.count_nonzero(amps)
    dense = n_lines > _FID_DENSE_SHARE * amps.size
    if not dense:
        spin, a, b = np.nonzero(amps)
        amps, bounds = amps[spin, a, b], np.searchsorted(spin, np.arange(n + 1))
    t2 = np.array(sys.t2star)[:, None]
    ts = np.arange(n_samples) * (duration / n_samples)
    sig = np.empty(n_samples, dtype=complex)
    block = max(1, _FID_BLOCK_BYTES // (32 * (d + (n * d if dense else n_lines))))
    for start in range(0, n_samples, block):
        t = ts[start:start + block]
        x = np.outer(w, t)  # rows: eigenvalue, columns: sample
        # e^(-i x) as cos and -sin in the real and imaginary views: np.exp's values, cheaper
        ph = np.empty(x.shape, dtype=complex)
        np.cos(x, out=ph.real)
        np.negative(np.sin(x, out=ph.imag), out=ph.imag)
        if dense:
            phc = ph.conj()
            per_spin = np.stack([np.einsum("at,at->t", amp @ phc, ph) for amp in amps])
        else:
            terms = ph[a]
            terms *= ph.conj()[b]
            per_spin = np.stack([amps[lo:hi] @ terms[lo:hi] for lo, hi in zip(bounds, bounds[1:])])
        sig[start:start + block] = np.einsum("it,it->t", per_spin, np.exp(-t / t2))
    return sig


def spectrum(fid: np.ndarray, sample_rate: float):
    """Discrete spectrum of a uniformly sampled FID.

    Returns (freqs_hz, amplitudes), frequency-sorted.  The "ortho" FFT
    normalization keeps sum |s|^2 equal in both domains.
    """
    fid = np.asarray(fid, dtype=complex)
    amps = np.fft.fftshift(np.fft.fft(fid, norm="ortho"))
    freqs = np.fft.fftshift(np.fft.fftfreq(len(fid), d=1.0 / sample_rate))
    return freqs, amps


# ---------------------------------------------------------------------------
# molecule registry

_MOLECULE_KEYS = {"name", "n", "offsets_hz", "j_hz", "t1_s", "t2star_s", "species"}


def _j_matrix(n: int, entries) -> np.ndarray:
    j = np.zeros((n, n))
    for row in entries:
        i, k, val = int(row[0]), int(row[1]), float(row[2])
        if not (1 <= i < k <= n):
            raise ValueError(f"bad coupling entry {row}: need 1 <= i < j <= n")
        if j[i - 1, k - 1] != 0.0:
            raise ValueError(f"duplicate coupling entry for spins {i},{k}")
        j[i - 1, k - 1] = j[k - 1, i - 1] = val
    return j


def load_molecule(path) -> SpinSystem:
    """Read a molecule JSON file (keys: n, offsets_hz, j_hz, t1_s, t2star_s, species)."""
    with open(path) as fh:
        raw = json.load(fh)
    unknown = set(raw) - _MOLECULE_KEYS
    if unknown:
        raise ValueError(f"unknown molecule keys {sorted(unknown)}")
    n = int(raw["n"])
    return SpinSystem(
        n=n,
        offsets=raw["offsets_hz"],
        couplings=_j_matrix(n, raw.get("j_hz", [])),
        t1=raw["t1_s"],
        t2star=raw["t2star_s"],
        species=tuple(raw.get("species", ())),
        name=str(raw.get("name", "")),
    )


def builtin_molecule(name: str) -> SpinSystem:
    """Load one of the bundled molecule fixtures by name."""
    from importlib.resources import files

    path = files("nmrqip.data.molecules").joinpath(name + ".json")
    if not path.is_file():
        avail = sorted(p.name[:-5] for p in files("nmrqip.data.molecules").iterdir()
                       if p.name.endswith(".json"))
        raise ValueError(f"no molecule {name!r}; available: {avail}")
    return load_molecule(path)
