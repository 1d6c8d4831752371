"""Stabilizer codes, syndrome cycles, transversality, magic-state distillation.

Codes are k=1 stabilizer codes given by the packed Pauli entries of their
generators and logicals, as is every error and correction (nmrqip.qop); their
encoding unitaries are built from a completed Clifford tableau, so
encode/decode are exact Clifford unitaries rather than hand-built gate lists.
Syndromes are measured by projectors on the code register; the tests keep the
equivalent ancilla circuit (one ancilla per generator) as their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations, product

import numpy as np

from .clifford import circuit_tableau, compose, tableau, unitaries
from .qop import (SIGMA_X, SIGMA_Y, SIGMA_Z, basis_ket, commutes, hermitian_entries,
                  ket_density, partial_trace, pauli_entry, pauli_matrices, spin_bits,
                  state_fidelity)

MAGIC_AXIS = (SIGMA_X + SIGMA_Y + SIGMA_Z) / np.sqrt(3)


def _gf2_solve(rows, rhs, width: int) -> int:
    """One solution s of parity(rows[r] & s) = rhs[r] over GF(2).

    Rows and s are width-bit int masks, eliminated from the most significant
    bit down; free variables are set to 0.
    """
    aug = [row << 1 | b for row, b in zip(rows, rhs)]  # rhs in bit 0
    m = len(aug)
    pivots = []
    row = 0
    for col in range(width - 1, -1, -1):
        bit = 2 << col
        piv = next((r for r in range(row, m) if aug[r] & bit), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        for r in range(m):
            if r != row and aug[r] & bit:
                aug[r] ^= aug[row]
        pivots.append(col)
        row += 1
    if any(aug[r] & 1 for r in range(row, m)):
        raise ValueError("inconsistent GF(2) system")
    return sum((aug[r] & 1) << col for r, col in enumerate(pivots))


@dataclass(frozen=True)
class StabilizerCode:
    """k=1 stabilizer code with explicit generators and logical operators,
    each the packed entry of a Pauli on n_physical qubits.  The encoding
    unitary, syndrome projectors and lookup table are cached per code value
    and shared by every caller, the arrays read-only."""

    name: str
    n_physical: int
    generators: tuple
    logical_x: int
    logical_z: int

    def __post_init__(self):
        n = self.n_physical
        for g in self.generators:
            if not 0 <= g < 1 << (2 * n + 2):
                raise ValueError("generator length mismatch")
        for a, b in combinations(self.generators, 2):
            if not commutes(n, a, b):
                raise ValueError("generators must commute")
        for logical in (self.logical_x, self.logical_z):
            for g in self.generators:
                if not commutes(n, logical, g):
                    raise ValueError("logicals must commute with generators")
        if commutes(n, self.logical_x, self.logical_z):
            raise ValueError("logical X and Z must anticommute")
        if len(self.generators) != n - 1:
            raise ValueError("wrong number of generators")

    # -- encoding -----------------------------------------------------------

    def encoding_tableau(self) -> np.ndarray:
        """Clifford with X_1 -> logical X, Z_1 -> logical Z, Z_j -> generators."""
        n = self.n_physical
        z_imgs = [self.logical_z, *self.generators]
        x_imgs = [self.logical_x]
        # the row (z, x) of P against the unknown key (x, z) has the parity of
        # the commutator: 1 exactly when P anticommutes with the solution
        for j in range(1, n):
            rows = [(p >> 2 & (1 << n) - 1) << n | p >> (n + 2) for p in (*z_imgs, *x_imgs)]
            rhs = [int(k == j) for k in range(n)] + [0] * len(x_imgs)
            x_imgs.append(int(hermitian_entries(n, _gf2_solve(rows, rhs, 2 * n))))
        return tableau(n, x_imgs, z_imgs)

    @cache
    def encoding_unitary(self) -> np.ndarray:
        u = unitaries(self.encoding_tableau())
        u.setflags(write=False)
        return u

    # -- syndrome machinery --------------------------------------------------

    def syndrome_of(self, error: int):
        return tuple(0 if commutes(self.n_physical, error, g) else 1 for g in self.generators)

    @cache
    def syndrome_projectors(self) -> np.ndarray:
        """(2^g, d, d) stack of P_s = prod_k (I + (-1)^{s_k} g_k)/2, s_k bit g-1-k of s."""
        d, g = 2**self.n_physical, len(self.generators)
        gens = pauli_matrices(self.n_physical, self.generators)
        projs = np.empty((2**g, d, d), dtype=complex)
        for s in range(2**g):
            projs[s] = np.eye(d)
            for k, gen in enumerate(gens):
                sign = 1 - 2 * (s >> (g - 1 - k) & 1)
                projs[s] = projs[s] @ (np.eye(d) + sign * gen) / 2
        projs.setflags(write=False)
        return projs

    @cache
    def lookup_table(self):
        """Min-weight correction per syndrome (support, then X, Z, Y tie-break:
        the phase-flip code, where Z and Y share syndromes, corrects Z by Z)."""
        n = self.n_physical
        table = {}
        for w in range(n + 1):
            for support in combinations(range(1, n + 1), w):
                for axes in product(("X", "Z", "Y"), repeat=w):
                    x = z = 0
                    for q, axis in zip(support, axes):
                        bx, bz = spin_bits(axis, q, n)
                        x, z = x | bx, z | bz
                    err = int(hermitian_entries(n, x << n | z))
                    s = self.syndrome_of(err)
                    if s not in table:
                        table[s] = err
            if len(table) == 2 ** len(self.generators):
                break
        return table


def bit_flip_code() -> StabilizerCode:
    return StabilizerCode(
        "bit-flip-3", 3,
        (pauli_entry("ZZI"), pauli_entry("IZZ")),
        logical_x=pauli_entry("XXX"), logical_z=pauli_entry("ZZZ"),
    )


def phase_flip_code() -> StabilizerCode:
    return StabilizerCode(
        "phase-flip-3", 3,
        (pauli_entry("XXI"), pauli_entry("IXX")),
        logical_x=pauli_entry("ZZZ"), logical_z=pauli_entry("XXX"),
    )


def five_qubit_code() -> StabilizerCode:
    return StabilizerCode(
        "five-qubit", 5,
        (pauli_entry("XZZXI"), pauli_entry("IXZZX"),
         pauli_entry("XIXZZ"), pauli_entry("ZXIXZ")),
        logical_x=pauli_entry("XXXXX"), logical_z=pauli_entry("ZZZZZ"),
    )


def encode(code: StabilizerCode, psi: np.ndarray) -> np.ndarray:
    """Density operator of a single-qubit ket encoded into the codespace."""
    psi = np.asarray(psi, dtype=complex)
    rest = basis_ket(0, code.n_physical - 1)
    return ket_density(code.encoding_unitary() @ np.kron(psi, rest))


def decode(code: StabilizerCode, rho: np.ndarray) -> np.ndarray:
    """Inverse encoding then reduction to the logical qubit."""
    u = code.encoding_unitary()
    full = u.conj().T @ rho @ u
    return partial_trace(full, [1])


def syndrome_extract(code: StabilizerCode, rho: np.ndarray):
    """Projective measurement of the generators: outcome s has probability
    Re Tr(P_s rho) and leaves P_s rho P_s / Tr.  The most probable outcome is
    selected (exact when the syndrome is definite).  Returns (syndrome bits,
    post-measurement state).
    """
    g = len(code.generators)
    rho = np.asarray(rho, dtype=complex)
    projs = code.syndrome_projectors()
    outcome = int(np.argmax(np.einsum("sij,ji->s", projs, rho).real))
    proj = projs[outcome]
    post = proj @ rho @ proj
    post /= np.trace(post).real
    syndrome = tuple((outcome >> (g - 1 - k)) & 1 for k in range(g))
    return syndrome, post


def recover(code: StabilizerCode, syndrome) -> int:
    """Minimum-weight correction for the syndrome, from the lookup table."""
    table = code.lookup_table()
    key = tuple(int(b) for b in syndrome)
    if key not in table:
        raise ValueError(f"syndrome {key} outside lookup table")
    return table[key]


def correction_cycle(code: StabilizerCode, rho: np.ndarray) -> np.ndarray:
    """syndrome_extract + recover + apply, returning the corrected state."""
    syndrome, post = syndrome_extract(code, rho)
    corr = pauli_matrices(code.n_physical, recover(code, syndrome))[0]
    return corr @ post @ corr.conj().T


# ---------------------------------------------------------------------------
# logical gates and the error-ensemble demonstration

_LOGICAL_GATES = {
    "I": np.eye(2, dtype=complex),
    "X": SIGMA_X,
    "Z": SIGMA_Z,
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
}


def logical_gate(code: StabilizerCode, gate: str) -> np.ndarray:
    """Encoded realization E (u x I) E^dag of a single-qubit gate."""
    u = _LOGICAL_GATES.get(gate)
    if u is None:
        raise ValueError(f"unsupported logical gate {gate!r}; have {', '.join(_LOGICAL_GATES)}")
    e = code.encoding_unitary()
    d_rest = 2 ** (code.n_physical - 1)
    return e @ np.kron(u, np.eye(d_rest, dtype=complex)) @ e.conj().T


def error_ensemble(n: int):
    """{identity} plus X, Z and Y on each qubit (3n + 1 errors; 16 for n=5)."""
    keys = [x << n | z for q in range(1, n + 1) for x, z in (spin_bits(a, q, n) for a in "XZY")]
    return hermitian_entries(n, np.array([0, *keys])).tolist()


def logical_gate_cycle(code: StabilizerCode, gate: str, error: int, psi=None):
    """encode -> logical gate -> error -> decode, with and without correction.

    Returns (fidelity_uncorrected, fidelity_corrected) of the decoded logical
    qubit against the ideal gate output.
    """
    if psi is None:
        psi = basis_ket("0")
    ideal = _LOGICAL_GATES[gate] @ np.asarray(psi, dtype=complex)
    rho = encode(code, np.asarray(psi, dtype=complex))
    lg = logical_gate(code, gate)
    rho = lg @ rho @ lg.conj().T
    e = pauli_matrices(code.n_physical, error)[0]
    rho = e @ rho @ e.conj().T
    f_unc = state_fidelity(decode(code, rho), ket_density(ideal))
    corrected = correction_cycle(code, rho)
    f_corr = state_fidelity(decode(code, corrected), ket_density(ideal))
    return float(f_unc), float(f_corr)


def gate_cycle_ensemble(code: StabilizerCode, gate: str):
    """Per-error fidelity rows plus the ensemble means, for the input |0>.

    Returns (rows, mean_uncorrected, mean_corrected) with rows of
    (error, f_uncorrected, f_corrected).
    """
    rows = []
    for err in error_ensemble(code.n_physical):
        f_unc, f_corr = logical_gate_cycle(code, gate, err)
        rows.append((err, f_unc, f_corr))
    mu = float(np.mean([r[1] for r in rows]))
    mc = float(np.mean([r[2] for r in rows]))
    return rows, mu, mc


def transversal_cnot_demo(variant: str, error: int) -> int:
    """Error weight landing on the target block of a two-block logical CNOT.

    Blocks are 3-qubit repetition codes on qubits 1-3 and 4-6.  'bad' fans a
    single physical control out to every target qubit; 'transversal' uses
    pairwise CNOTs.  The injected error, an entry on the 3-qubit control
    block, is conjugated through the circuit tableau and its weight on block
    2 is returned.
    """
    if variant == "bad":
        gates = [("CNOT", (1, t)) for t in (4, 5, 6)]
    elif variant == "transversal":
        gates = [("CNOT", (q, q + 3)) for q in (1, 2, 3)]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    x, z = error >> 5, error >> 2 & 0b111  # qubits 1-3 are the top bits of 6
    e = int(compose(x << 11 | z << 5 | error & 3, circuit_tableau(gates, 6)))
    return ((e >> 8 | e >> 2) & 0b111).bit_count()  # qubits 4-6


# ---------------------------------------------------------------------------
# magic states and distillation


def magic_density(p: float) -> np.ndarray:
    """(I + p (sigma_x + sigma_y + sigma_z)/sqrt(3)) / 2."""
    if not -1 <= p <= 1:
        raise ValueError("polarization must lie in [-1, 1]")
    return (np.eye(2, dtype=complex) + p * MAGIC_AXIS) / 2


def m_polarization(rho: np.ndarray):
    """(literal overlap 2 Tr(rho_M rho), magic-axis Bloch projection)."""
    rho_m = magic_density(1.0)
    literal = 2 * float(np.trace(rho_m @ rho).real)
    return literal, literal - 1.0


@cache
def _distill_ops():
    """The 5-qubit code's trivial-syndrome projector, |0_L>, |1_L> and fixup rotation."""
    code = five_qubit_code()
    proj = code.syndrome_projectors()[0]
    logical_x, logical_z = pauli_matrices(5, [code.logical_x, code.logical_z])
    p0 = proj @ (np.eye(32) + logical_z) / 2
    w, v = np.linalg.eigh(p0)
    ket0 = v[:, int(np.argmax(w))]
    k = int(np.argmax(np.abs(ket0) > 1e-8))
    ket0 = ket0 * np.exp(-1j * np.angle(ket0[k]))
    ket1 = logical_x @ ket0
    fixup = (SIGMA_X - SIGMA_Y) / np.sqrt(2)  # maps the decoded axis back onto +m
    return proj, ket0, ket1, fixup


@dataclass(frozen=True)
class DistillResult:
    p_out: float
    success_probability: float


def distill_magic(p_in: float, rounds: int = 1) -> DistillResult:
    """Five-to-one magic-state distillation on the 5-qubit code.

    Five copies of the p-polarized state are projected onto the codespace
    (trivial-syndrome post-selection); the logical qubit is read out and a
    fixed Clifford rotation returns it to the magic axis.
    """
    if not -1 <= p_in <= 1:
        raise ValueError("p_in must lie in [-1, 1]")
    proj, k0, k1, fixup = _distill_ops()
    p = float(p_in)
    success = 1.0
    for _ in range(rounds):
        rho5 = reduce(np.kron, [magic_density(p)] * 5)
        projected = proj @ rho5 @ proj
        succ = float(np.trace(projected).real)
        if succ < 1e-15:
            raise RuntimeError("post-selection probability vanished")
        out = np.array([
            [k0.conj() @ projected @ k0, k0.conj() @ projected @ k1],
            [k1.conj() @ projected @ k0, k1.conj() @ projected @ k1],
        ]) / succ
        rho_out = fixup @ out @ fixup
        # rounding can step just past a pure state's polarization of +-1
        p = min(max(m_polarization(rho_out)[1], -1.0), 1.0)
        success = succ
    return DistillResult(float(p), float(success))


def distillation_threshold() -> float:
    """Fixed-point polarization where distillation stops improving: 60
    bisection steps in [0.5, 0.9]."""
    lo, hi = 0.5, 0.9
    for _ in range(60):
        mid = (lo + hi) / 2
        if distill_magic(mid).p_out > mid:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2
