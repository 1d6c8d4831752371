import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

import nmrqip
from nmrqip.channels import Channel
from nmrqip.clifford import compose, identity, inverse, tableau, unitaries
from nmrqip.control import _fidelity, _phase_divided_differences, _propagators
from nmrqip.experiments.ising import ising_hamiltonian, magnetization_operator
from nmrqip.qop import (PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z, embed, n_qubits, pauli_matrices,
                        pauli_sum, rotation, spin_bits, tensor)
from nmrqip.spins import hamiltonian_diagonal

KET1 = np.array([0, 1], dtype=complex)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def child_env() -> dict:
    """Environment for a child interpreter that imports this checkout's nmrqip."""
    src = str(Path(nmrqip.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (Wishart construction)."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def all_pauli_words(n: int) -> list:
    """All 4^n Pauli words on n qubits, identity first, lexicographic in IXYZ:
    the word enumeration the tests' word-built oracles use."""
    words = [""]
    for _ in range(n):
        words = [w + c for w in words for c in "IXYZ"]
    return words


def spin_op(axis: str, spin: int, n: int) -> np.ndarray:
    """I_axis on one 1-based spin of an n-spin register (dense 2^n matrix)."""
    return pauli_sum(n, [(0.5, *spin_bits(axis, spin, n))])


def zeeman_hamiltonian(sys) -> np.ndarray:
    """The dense, diagonal Zeeman part of a spin system's Hamiltonian (rad/s)."""
    return np.diag(hamiltonian_diagonal(sys, couplings=False)).astype(complex)


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """(x, y, z) expectation triple of a single-qubit state."""
    if rho.shape != (2, 2):
        raise ValueError("bloch_vector is for one qubit")
    return np.array([np.trace(rho @ s).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])


def word_matrix(word: str, phase=1) -> np.ndarray:
    """The phase times the Kronecker product of the word's PAULIS letters."""
    return phase * tensor(*(PAULIS[c] for c in word))


def signed_entry(word: str, phase=1) -> int:
    """Packed entry x << (n + 2) | z << 2 | k of the phase (+-1 or +-i) times
    a Pauli word, from its letters: X sets an x bit, Z a z bit and Y = i X Z
    both, adding 1 to k."""
    n, x, z = len(word), 0, 0
    for c in word:
        x, z = x << 1 | (c in "XY"), z << 1 | (c in "YZ")
    return x << (n + 2) | z << 2 | (word.count("Y") + (1, 1j, -1, -1j).index(phase)) % 4


def pauli_weight(n: int, entry: int) -> int:
    """Number of qubits the Pauli of a packed entry acts on nontrivially."""
    return ((entry >> (n + 2) | entry >> 2) & (1 << n) - 1).bit_count()


def gate_fidelity_hs(u_th: np.ndarray, u_exp: np.ndarray) -> float:
    """Squared Hilbert-Schmidt gate overlap |Tr(U_th U_exp^dag)|^2 / 4^n."""
    u_th = np.asarray(u_th, dtype=complex)
    u_exp = np.asarray(u_exp, dtype=complex)
    if u_th.shape != u_exp.shape:
        raise ValueError("shape mismatch")
    d = u_th.shape[0]
    n_qubits(d)
    return float(abs(np.trace(u_th @ u_exp.conj().T)) ** 2 / d**2)


# ---------------------------------------------------------------------------
# channel fixtures: Pauli vectors indexed x * 2 + z (I, Z, X, Y), and the
# Kraus-sum oracle, per factor from Pauli words


def bit_flip(p: float) -> Channel:
    return Channel([1 - p, 0.0, p, 0.0])


def phase_flip(p: float) -> Channel:
    return Channel([1 - p, p, 0.0, 0.0])


def kraus_sum(kraus, rho: np.ndarray) -> np.ndarray:
    """sum_K K rho K^dag, the explicit Kraus-map oracle."""
    return sum(k @ rho @ k.conj().T for k in kraus)


def factor_kraus(factors, n: int) -> list:
    """Per factor (probs, qubits), the Kraus list sqrt(p_Q) Q of its Paulis Q,
    each built from its word and placed with embed, not by the channel."""
    out = []
    for probs, qubits in factors:
        m = len(qubits)
        out.append([np.sqrt(probs[signed_entry(w) >> 2]) * embed(word_matrix(w), qubits, n)
                    for w in all_pauli_words(m)])
    return out


def factor_kraus_sum(factors, n: int, rho: np.ndarray) -> np.ndarray:
    """Each factor in turn as the Kraus sum of its factor_kraus list."""
    for kraus in factor_kraus(factors, n):
        rho = kraus_sum(kraus, rho)
    return rho


def composite_pauli_vector(factors, n: int) -> np.ndarray:
    """Full-register Pauli vector (entry x << n | z) of the factors applied in
    turn, read off their factor_kraus lists.  A Kraus operator c i^k X^x Z^z
    holds c i^k (-1)^popcount(z & a) at row a ^ x of column a, so column 0
    gives x and |c|^2, and the columns 2^j give the z bits.  The factors then
    combine by XOR convolution: X^x Z^z X^x' Z^z' is X^(x^x') Z^(z^z') up to
    phase."""
    idx, cols = np.arange(4**n), 1 << np.arange(n)
    total = (idx == 0).astype(float)
    for kraus in factor_kraus(factors, n):
        vec = np.zeros(4**n)
        for k in kraus:
            x = int(np.argmax(np.abs(k[:, 0])))
            lead = k[x, 0]
            z = int(cols[(k[cols ^ x, cols] * np.conj(lead)).real < 0].sum())
            vec[x << n | z] += abs(lead) ** 2
        total = sum(vec[b] * total[idx ^ b] for b in np.flatnonzero(vec))
    return total


def draw_rb_indices(gate_set, lengths, shots, rng) -> list:
    """Per length m, the (m, shots) gate indices that
    nmrqip.twirl.randomized_benchmarking draws from rng, in one draw each."""
    tabs, probs = gate_set
    return [rng.choice(len(tabs), size=(m, shots), p=probs) for m in lengths]


def dense_rb_survivals(gate_set, noise, drawn) -> list:
    """Mean Z_1 survival per drawn (m, shots) index array by the density-matrix
    loop: each gate's dense unitary, then the noise as a Kraus sum, and after
    the sequence the dense recovery and the noise once more."""
    tabs, _ = gate_set
    n, kraus = noise.n, noise.kraus()
    z1 = word_matrix("Z" + "I" * (n - 1))
    survivals = []
    for idx in drawn:
        acc = 0.0
        for seq in idx.T.tolist():
            rho = (np.eye(2**n, dtype=complex) + z1) / 2**n
            total = identity(n)
            for g in seq:
                u = unitaries(tabs[g])
                rho = kraus_sum(kraus, u @ rho @ u.conj().T)
                total = compose(total, tabs[g])
            rec = unitaries(inverse(total))
            rho = kraus_sum(kraus, rec @ rho @ rec.conj().T)
            acc += float(np.trace(z1 @ rho).real)
        survivals.append(acc / idx.shape[1])
    return survivals


def tableau_rb_survivals(gate_set, noise, idx) -> np.ndarray:
    """Per-sequence Z_1 survivals of an (m, shots) index array by the per-gate
    row-product loop: map the Pauli through each gate's generator rows,
    multiply by the noise's eigenvalue there, and by the eigenvalue at Z_1
    for the recovery."""
    tabs, _ = gate_set
    n, lam = noise.n, noise.eigenvalues()
    rows = [generator_rows(t) for t in tabs]
    z1 = 1 << (n - 1)
    out = []
    for seq in idx.T.tolist():
        survival, (x, z, k) = 1.0, (0, z1, 0)
        for g in seq:
            x, z, k = row_product(rows[g], x, z, k)
            survival *= float(lam[x << n | z])
        out.append(survival * float(lam[z1]))
    return np.array(out)


def exact_rb_survivals(gate_set, noise, lengths) -> list:
    """Expected Z_1 survival per length, lambda_Z1 1^T (Lambda P)^m e_Z1.

    P moves a key x << n | z to its image under a gate with the gate's
    probability; each gate's image keys are the row products of every
    Pauli, and P is applied by bincount over them.  Lambda is the noise's
    eigenvalue per key."""
    tabs, probs = gate_set
    n = noise.n
    mask = (1 << n) - 1
    images = np.array([[x << n | z for x, z, _ in
                        (row_product(generator_rows(t), key >> n, key & mask)
                         for key in range(4**n))]
                       for t in tabs])
    lam = noise.eigenvalues()
    vec = np.zeros(4**n)
    vec[1 << (n - 1)] = 1.0
    out, done = [], 0
    for m in lengths:
        for _ in range(m - done):
            vec = lam * np.bincount(images.ravel(), weights=np.outer(probs, vec).ravel(),
                                    minlength=4**n)
        done = m
        out.append(float(lam[1 << (n - 1)] * vec.sum()))
    return out


def eigh_ground_point(j: float, h: float, rtol: float):
    """(magnetization, entropy in bits, degeneracy) of the Ising triangle's
    uniform ground-space mixture by dense diagonalization: eigh of H, the
    mixture's trace against the magnetization operator, and the von Neumann
    entropy from eigvalsh of the mixture."""
    energies, vectors = np.linalg.eigh(ising_hamiltonian(j, h))
    e0 = energies[0]
    sel = np.abs(energies - e0) <= rtol * max(1.0, abs(e0))
    deg = int(sel.sum())
    basis = vectors[:, sel]
    rho = basis @ basis.conj().T / deg
    mag = float(np.real(np.trace(rho @ magnetization_operator())))
    probs = np.linalg.eigvalsh(rho)
    probs = probs[probs > 1e-15]
    entropy = float(-(probs * np.log2(probs)).sum())
    return mag, entropy, deg


def depolarizing_for_beta(target_beta: float, n_couplings: int = 3) -> float:
    """Meter depolarizing strength per coupling that degrades the Mermin
    value 6 to target_beta: beta = 6 (1 - p)^n_couplings."""
    if not 0 < target_beta <= 6:
        raise ValueError("target beta must be in (0, 6]")
    return 1 - (target_beta / 6) ** (1 / n_couplings)


def load_pulse(path):
    """(amplitudes, dt, channels) of the pulse.json a grape run writes."""
    with open(path) as fh:
        doc = json.load(fh)
    return np.array(doc["steps"], dtype=float), float(doc["dt_s"]), tuple(doc["channels"])


def grape_fidelity(u_target, h_int, h_ctrl, u, dt) -> float:
    """Squared normalized Hilbert-Schmidt overlap of the propagator of pulse u."""
    fwd, _, _, _ = _propagators(u, np.asarray(h_int, complex), h_ctrl, dt)
    return _fidelity(u_target, fwd[-1])


# ---------------------------------------------------------------------------
# GRAPE's step record and gradient over the whole pulse at once, the oracle
# for nmrqip.control, which builds and consumes the record in chunks of steps


def whole_pulse_propagators(u, h_int, h_ctrl, dt):
    """Step record (fwd, lam, v, ph) of amplitudes u[m, ..., k], every step in
    one eigh and one stacked product."""
    n_ch, d = len(h_ctrl), h_int.shape[0]
    drive = u.reshape(-1, n_ch) @ h_ctrl.reshape(n_ch, d * d)
    lam, v = np.linalg.eigh(h_int + drive.reshape(*u.shape[:-1], d, d))
    ph = np.exp(-1j * lam * dt)
    props = (v * ph[..., None, :]) @ v.conj().swapaxes(-1, -2)
    fwd = np.empty((len(u) + 1, *u.shape[1:-1], d, d), complex)
    fwd[0] = np.eye(d)
    for m in range(len(u)):
        np.matmul(props[m], fwd[m], out=fwd[m + 1])
    return fwd, lam, v, ph


def whole_pulse_gradient(u_target, h_ctrl, dt, record):
    """d(fidelity)/du[m, ..., k] from a step record, every step's K_m, W_m and
    divided differences held at once.  The divided differences are the
    library's own, which test_control checks against their series."""
    fwd, lam, v, ph = record
    n_ch, d = len(h_ctrl), lam.shape[-1]
    mt = u_target.conj().T @ fwd[-1]
    g = np.trace(mt, axis1=-2, axis2=-1)
    w = v.conj().swapaxes(-1, -2) @ fwd[:-1]
    w = w @ mt @ w.conj().swapaxes(-1, -2)
    fdiv = _phase_divided_differences(lam, dt)
    fdiv *= w.swapaxes(-1, -2) * ph.conj()[..., :, None]
    y = v.conj() @ fdiv @ v.swapaxes(-1, -2)
    dg = y.reshape(-1, d * d) @ h_ctrl.reshape(n_ch, d * d).T
    return 2 * np.real(np.conj(g)[..., None] * dg.reshape(*lam.shape[:-1], n_ch)) / d**2


# ---------------------------------------------------------------------------
# Clifford oracles: the generator-row product, the row-patch gate builder and
# the one-at-a-time group closure, which read a tableau only through its
# table, its generator rows decoded here and compose, and dense gates built
# independently of the tableau rows


def table_qubits(t) -> int:
    """n of a table, or a stack of tables, of width 4^n."""
    return (t.shape[-1].bit_length() - 1) // 2


def generator_keys(n: int) -> np.ndarray:
    """Keys of X_1..X_n, then Z_1..Z_n: the table positions of the
    generator images."""
    return 1 << np.arange(2 * n)[::-1]


def generator_rows(t: np.ndarray) -> tuple:
    """(x, z, k) images of X_1..X_n, then Z_1..Z_n, decoded from the table's
    generator entries x << (n + 2) | z << 2 | k."""
    n = table_qubits(t)
    return tuple((e >> (n + 2), e >> 2 & (1 << n) - 1, e & 3)
                 for e in t[generator_keys(n)].tolist())


def pauli_product(n: int, p: int, q: int) -> int:
    """Entry of p q from the bits: Z^z1 X^x2 = (-1)^popcount(z1 & x2) X^x2 Z^z1."""
    k = p + q + 2 * (p >> 2 & (1 << n) - 1 & q >> (n + 2)).bit_count()
    return (p ^ q) & ~3 | k & 3


def row_product(rows, x: int, z: int, k: int = 0) -> tuple:
    """(x, z, k) of C i^k X^x Z^z C^dag from C's 2n generator rows alone:
    i^k times the rows of the set x bits, then those of the set z bits,
    qubit 1 first; the oracle for every entry of a tableau's image table."""
    n = len(rows) // 2
    bits, top = x << n | z, 2 * n - 1
    x = z = 0
    while bits:
        s = bits.bit_length() - 1
        bits ^= 1 << s
        rx, rz, rk = rows[top - s]
        # (i^k X^x Z^z)(i^rk X^rx Z^rz): moving Z^z past X^rx signs it
        k += rk + 2 * (z & rx).bit_count()
        x ^= rx
        z ^= rz
    return x, z, k % 4


# (x, z, k) images of X and Z under a one-qubit gate, on one bit
_ROWS_1Q = {
    "H": ((0, 1, 0), (1, 0, 0)),
    "S": ((1, 1, 1), (0, 1, 0)),
    "X": ((1, 0, 0), (0, 1, 2)),
    "Y": ((1, 0, 2), (0, 1, 2)),
    "Z": ((1, 0, 2), (0, 1, 0)),
    "I": ((1, 0, 0), (0, 1, 0)),
}


def gate_tableau_by_rows(name: str, qubits, n: int) -> np.ndarray:
    """Tableau of a named gate by patching the identity's generator rows on
    the gate's qubits and building the table through the validating
    constructor; the oracle for nmrqip.clifford's gate rule."""
    rows = [(1 << (n - 1 - i), 0, 0) for i in range(n)] + [(0, 1 << (n - 1 - i), 0)
                                                           for i in range(n)]
    if name == "CNOT":
        c, t = qubits
        both = 1 << (n - c) | 1 << (n - t)
        rows[c - 1] = (both, 0, 0)  # X_c -> X_c X_t
        rows[n + t - 1] = (0, both, 0)  # Z_t -> Z_c Z_t
    else:
        (q,) = qubits
        s = n - q
        (xx, xz, xk), (zx, zz, zk) = _ROWS_1Q[name]
        rows[q - 1] = (xx << s, xz << s, xk)
        rows[n + q - 1] = (zx << s, zz << s, zk)
    ps = [x << (n + 2) | z << 2 | k for x, z, k in rows]
    return tableau(n, ps[:n], ps[n:])


def closure_one_at_a_time(n: int) -> list:
    """The Cliffords on n <= 2 by the per-tableau breadth-first closure: each
    member then each generator (H_q, S_q, neighbour CNOTs both ways, built by
    gate_tableau_by_rows) in turn, composed table by table and deduplicated
    by a set of table bytes; the order nmrqip.clifford.clifford_group keeps."""
    gens = [gate_tableau_by_rows(g, (q,), n) for g in "HS" for q in range(1, n + 1)]
    gens += [gate_tableau_by_rows("CNOT", pair, n) for pair in ((1, 2), (2, 1)) if n == 2]
    out = [identity(n)]
    seen = {out[0].tobytes()}
    for tab in out:  # out grows while it is read: breadth first
        for gen in gens:
            nxt = compose(tab, gen)
            if nxt.tobytes() not in seen:
                seen.add(nxt.tobytes())
                out.append(nxt)
    return out


def dense_gate(name: str) -> np.ndarray:
    """2x2 or 4x4 matrix of a named gate (H, S, X, Y, Z, I, CNOT)."""
    if name == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    if name == "S":
        return np.diag([1, 1j]).astype(complex)
    if name in PAULIS:
        return PAULIS[name]
    if name == "CNOT":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    raise ValueError(f"unknown gate {name!r}")


def circuit_unitary(gates, n: int) -> np.ndarray:
    """Dense unitary of a [(name, qubits)] gate list, first gate first, each
    gate's matrix placed with embed."""
    u = np.eye(2**n, dtype=complex)
    for name, qubits in gates:
        u = embed(dense_gate(name), qubits, n) @ u
    return u


def from_unitaries(stack) -> np.ndarray:
    """(m, 4^n) tables of an (m, d, d) stack of Clifford unitaries, each
    through the validating constructor; raises if one is not Clifford: the inverse of
    nmrqip.clifford.unitaries.

    Column a of i^k X^x Z^z holds i^k (-1)^popcount(z & a) at row a ^ x, so
    column 0 of a conjugated generator gives x and k, and the columns 2^j
    give the z bits; the Paulis rebuilt from them must match within 1e-9.
    """
    stack = np.asarray(stack, dtype=complex)
    n = n_qubits(stack.shape[-1])
    gens = pauli_matrices(n, generator_keys(n) << 2)  # X_1..Z_n, each its key at phase 0
    images = stack[:, None] @ gens @ stack.conj().transpose(0, 2, 1)[:, None]
    mats = images.reshape(-1, 2**n, 2**n)  # all m * 2n conjugated generators
    r = np.arange(len(mats))
    x = np.argmax(np.abs(mats[:, :, 0]), axis=1)
    lead = mats[r, x, 0]
    k = np.argmin(np.abs(lead[:, None] - [1, 1j, -1, -1j]), axis=1)  # nearest i^k
    cols = 1 << np.arange(n)
    flips = (mats[r[:, None], cols ^ x[:, None], cols] * lead.conj()[:, None]).real < 0
    z = (flips * cols).sum(axis=1)
    if not np.allclose(pauli_matrices(n, x << (n + 2) | z << 2 | k), mats, rtol=0, atol=1e-9):
        raise ValueError("matrix is not a signed Pauli string (not Clifford?)")
    paulis = (x << (n + 2) | z << 2 | k).tolist()
    return np.array([tableau(n, paulis[at:at + n], paulis[at + n:at + 2 * n])
                     for at in range(0, len(paulis), 2 * n)])


def from_unitary(u: np.ndarray) -> np.ndarray:
    """Tableau of one Clifford unitary; raises if u is not Clifford."""
    return from_unitaries(np.asarray(u)[None])[0]


def all_1q_cliffords() -> np.ndarray:
    """The (24, 4) tables of the single-qubit Cliffords from their signed X
    and Z images: X image X, -X, Y, -Y, Z, -Z, then Z image +-X, +-Y, +-Z,
    skipping the X image's Pauli."""
    out = []
    for xw in "XYZ":
        for xsign in (1, -1):
            for zw in "XYZ":
                if zw == xw:
                    continue
                for zsign in (1, -1):
                    out.append(tableau(1, (signed_entry(xw, xsign),), (signed_entry(zw, zsign),)))
    assert len(out) == 24
    return np.array(out)


def signed_paulis(n: int, idx, sign) -> list:
    """The entries of (-1)^sign P for drawn (index, sign) arrays, P the
    Hermitian Pauli at key x << n | z, built from its bits."""
    mask = (1 << n) - 1
    return [i << 2 | ((i >> n & i & mask).bit_count() + 2 * s) % 4
            for i, s in zip(np.asarray(idx).tolist(), np.asarray(sign).tolist())]


def dense_shot_values(n: int, image, idx, sign, output_pauli, readout_shots, rng):
    """Dense reference for nmrqip.twirl._shot_values: per-shot coefficients
    of output_pauli(M) in image((I + M)/d) for the drawn input Paulis
    M = (-1)^sign P_idx.  image, the process on a dense state, is called once
    per distinct signed Pauli and each shot gathers its value; with
    readout_shots every shot then gets its own binomial readout, drawn in
    shot order in one call."""
    d, mask = 2**n, (1 << n) - 1
    keys, inv = np.unique(idx << 1 | sign, return_inverse=True)
    chi = np.empty(len(keys))
    for j, key in enumerate(keys.tolist()):
        x, z = key >> (n + 1), key >> 1 & mask
        p = x << (n + 2) | z << 2 | ((x & z).bit_count() + 2 * (key & 1)) % 4
        rho = (np.eye(d, dtype=complex) + pauli_matrices(n, p)[0]) / d
        chi[j] = np.einsum("ij,ji->", pauli_matrices(n, output_pauli(p))[0], image(rho)).real
    chis = chi[inv]
    if readout_shots:
        q = np.clip((1 + chis) / 2, 0.0, 1.0)
        chis = 2 * rng.binomial(readout_shots, q) / readout_shots - 1
    return chis


def rotation_unitaries() -> np.ndarray:
    """The +pi/2, -pi/2 and pi rotations about x, y and z, in that order, as
    dense exp(-i angle sigma / 2) matrices."""
    return np.array([rotation(ax, angle) for ax in "xyz"
                     for angle in (np.pi / 2, -np.pi / 2, np.pi)])


def write_csv_rows(path, header, rows) -> None:
    """The per-cell CSV writer that the column writer replaced, kept as its
    oracle: each cell formatted by its own type, one row at a time."""

    def cell(v) -> str:
        if isinstance(v, (bool, np.bool_)):
            return "1" if v else "0"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return "%.17g" % (float(v) + 0.0)
        return str(v)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            assert len(row) == len(header)
            writer.writerow([cell(v) for v in row])


# ---------------------------------------------------------------------------
# XXZ product-state sweeps one restart and one seed at a time, the oracles for
# nmrqip.experiments.xxz, which sweeps every restart (and every seed) as one batch


def _one_environment(tensor, factors, site: int, n: int) -> np.ndarray:
    args = [tensor, list(range(n))]
    for j in range(n):
        if j != site:
            args += [np.conj(factors[j]), [j]]
    return np.einsum(*args, [site])


def restart_sweep(psi, n: int, rng, max_sweeps: int = 500):
    """(lambda^2, factors, sweeps) of one random-start alternating sweep:
    the start drawn site by site from rng, then back-and-forth sweeps of
    exact local updates until the overlap moves by less than 1e-13."""
    tensor = np.asarray(psi, dtype=complex).reshape((2,) * n)
    factors = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(n)]
    factors = [v / np.linalg.norm(v) for v in factors]
    lam, sweeps = 0.0, 0
    for _ in range(max_sweeps):
        prev = lam
        sweeps += 1
        for site in list(range(n)) + list(range(n - 1, -1, -1)):
            env = _one_environment(tensor, factors, site, n)
            norm = np.linalg.norm(env)
            if norm < 1e-15:
                break
            factors[site] = env / norm
            lam = norm
        if abs(lam - prev) < 1e-13:
            break
    return lam**2, factors, sweeps


def seed_equatorial_sweeps(psi, n: int, n_seeds: int = 4, max_sweeps: int = 300):
    """Per seed s (phases from default_rng(s)), (lambda^2, sweeps) of the
    equatorial sweep: each site update keeps its factor on the equator and
    aligns its phase with the environment."""
    tensor = np.asarray(psi, dtype=complex).reshape((2,) * n)
    out = []
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        phases = rng.uniform(0, 2 * np.pi, n)
        factors = [np.array([1, np.exp(1j * p)]) / np.sqrt(2) for p in phases]
        lam, sweeps = 0.0, 0
        for _ in range(max_sweeps):
            prev = lam
            sweeps += 1
            for site in range(n):
                env = _one_environment(tensor, factors, site, n)
                if np.linalg.norm(env) < 1e-14:
                    continue
                phi = np.angle(env[1]) - np.angle(env[0])
                factors[site] = np.array([1, np.exp(1j * phi)]) / np.sqrt(2)
                lam = abs(np.vdot(factors[site], env))
            if abs(lam - prev) < 1e-13:
                break
        out.append((lam**2, sweeps))
    return out
