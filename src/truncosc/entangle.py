"""Two-mode beam-splitter entanglement over the half-line.

Pipeline: embed a coherent state (and the relevant extremal state) into
full-line oscillator levels, apply the su(2) beam splitter in its
spectral form (cached generator eigenpairs per block total, see below),
re-express both modes in the orthonormal half-line basis built from odd
full-line levels, partial-trace, and take the linear entropy.

The splitter exp(tau K+ - tau* K-) with tau = (theta/2) e^{i phi}
factorizes as

    exp(e^{i phi} tan(theta/2) K+) (cos(theta/2))^{-2 K0}
    exp(-e^{-i phi} tan(theta/2) K-)

— note the tangent in the outer factors; the middle factor carries the
cosine of theta/2 itself.  All blocks conserve total photon number, so
each factor is a finite sum inside a fixed-total block.

Inside the fixed-total block the generators form an su(2) triple
(K+ steps up, K- steps down, K0 is half the mode-number difference),
so the block unitary is a spin rotation.  The triangular factorized
evaluation above is exact arithmetic but numerically explosive: its
outer factors carry entries of size ~ tan(theta/2)^k sqrt(binomials),
which grow like e^{total} and cancel catastrophically in float64 —
unitarity is already off by 1e-5 at total 30 and by many orders of
magnitude at total > 60.  The production evaluation therefore
diagonalizes the (real symmetric tridiagonal) rotation generator and
exponentiates its spectrum, which is unitary to machine precision at
any block size; the factorized triangular form is kept as
`beamsplitter_block_bch` for cross-checks on small blocks.

The generator's eigenpairs (lambda, V) depend on the block's total
alone, not on theta or phi, so they are cached per total.  numpy's
dense `eigh` solves for them, so entropy runs never load scipy; its
dsyevd finds the matrix already tridiagonal and runs the same dstedc as
scipy's eigh_tridiagonal, whose pairs it reproduces bit for bit on
every total a scan populates (a test pins this).  Applying the
splitter never forms a block: each anti-diagonal x of the amplitudes
becomes phase * V (e^{i theta lambda} * V^T (conj(phase) * x)), with
the real and imaginary parts passed through the real V separately.
The partner-tower projections onto the half-line basis do not depend
on |z| either and are built once per cutoff.

`entropy_scan` builds the Gram matrices of both cutoffs before its
first splitter solve.  Building one holds two P x nodes Hermite tables
(12 MB each at basis 80, P = 239), more than anything else a scan
allocates; built first, they are freed before the eigenvector cache
fills (18 MB) instead of sitting on top of it.  Each |z|'s coherent
state is built once, before its solves, and serves both cutoffs.

Half-line geometry: restrictions of full-line levels to (0, inf) are
not orthogonal across parities; their normalized overlaps form the Gram
matrix.  Restricted odd levels, scaled by sqrt(2), are orthonormal AND
complete on the half-line, so they serve as the working basis for the
partial trace, and the change of basis is just sqrt(2) times the odd
rows of the Gram matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .coherent import WINDOWS, CoherentState, Family, build_cs
from .errors import (
    CutoffExceeded,
    ExpansionResidualTooLarge,
    GramNotPSD,
)
from .fock import Basis, hermite_normalized, rows
from .numerics import gauss_halfline, hyp2f1_terminating

__all__ = [
    "GramMatrix",
    "TwoModeState",
    "BeamSplitterSetting",
    "EntropyRecord",
    "halfline_overlap",
    "gram_matrix",
    "beamsplitter_block",
    "beamsplitter_block_bch",
    "beamsplitter_block_oracle",
    "beamsplitter_apply",
    "embed_cs_in_two_modes",
    "reduced_density",
    "linear_entropy",
    "entropy_scan",
]


# ----------------------------------------------------------------------------
# half-line overlaps and the Gram matrix
# ----------------------------------------------------------------------------

def _overlap_quadrature(alpha: int, beta: int) -> float:
    rule = gauss_halfline(alpha + beta + 16)
    h = hermite_normalized(max(alpha, beta), rule.nodes)
    log_scale = 0.5 * ((alpha + beta) * math.log(2.0)
                       + math.lgamma(alpha + 1) + math.lgamma(beta + 1))
    return float(np.sum(rule.weights * h[alpha] * h[beta]) * math.exp(log_scale))


def halfline_overlap(alpha: int, beta: int, method: str = "auto") -> float:
    """int_0^inf e^{-x^2} H_alpha H_beta dx (physicists' polynomials).

    Closed form sqrt(pi) 2F1[-a,-b; 1-(a+b)/2; 1/2] / (2^{1-a-b}
    Gamma(1-(a+b)/2)) where the Gamma argument is off its poles
    (a+b odd, or a+b = 0); Gauss quadrature otherwise and as the oracle
    everywhere (method="quadrature").
    """
    if alpha < 0 or beta < 0:
        raise ValueError("indices must be non-negative")
    if method not in ("auto", "closed", "quadrature"):
        raise ValueError("method must be auto, closed, or quadrature")
    if method == "quadrature":
        return _overlap_quadrature(alpha, beta)
    c = 1.0 - (alpha + beta) / 2.0
    pole = c <= 0 and float(c).is_integer()
    if pole:
        if method == "closed":
            raise ValueError("closed form hits a Gamma pole; use quadrature")
        return _overlap_quadrature(alpha, beta)
    from scipy.special import gamma as _gamma
    f = hyp2f1_terminating(-alpha, -beta, c, 0.5)
    return float(math.sqrt(math.pi) * f / (2.0 ** (1 - alpha - beta) * _gamma(c)))


@dataclass(frozen=True)
class GramMatrix:
    """Half-line overlaps of NORMALIZED full-line levels, size x size.

    Odd-odd (and even-even) blocks are diagonal with value 1/2; the
    parity-mixing entries are the nontrivial content.  The matrix is
    positive definite (restricted levels are linearly independent), but
    its smallest eigenvalue falls below rounding from size 16 on, so
    construction checks positive semidefiniteness to 1e-10.  The entries
    are a read-only copy: gram_matrix's cache hands one record to every
    caller.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        g = np.array(self.entries, dtype=float)
        g.flags.writeable = False
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("Gram matrix must be square")
        if np.max(np.abs(g - g.T)) > 1e-12:
            raise GramNotPSD("Gram matrix is not symmetric")
        if np.min(np.linalg.eigvalsh(g)) < -1e-10:
            raise GramNotPSD("Gram matrix has a negative eigenvalue")
        object.__setattr__(self, "entries", g)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def odd_rows_scaled(self) -> np.ndarray:
        """sqrt(2) G[odd, :]: the change of basis onto the orthonormal
        restricted odd-level basis (rows k <-> full-line level 2k+1)."""
        return math.sqrt(2.0) * self.entries[1::2, :]


@lru_cache(maxsize=8)
def gram_matrix(size: int) -> GramMatrix:
    """Gram matrix of the first `size` restricted normalized levels.

    Gauss half-line quadrature is exact here (pure polynomial integrands
    against e^{-x^2}), so this IS the closed form, uniformly stable in
    the level indices.
    """
    if size < 1:
        raise ValueError("size must be positive")
    rule = gauss_halfline(2 * size + 16)
    h = hermite_normalized(size - 1, rule.nodes)
    g = (h * rule.weights) @ h.T / math.sqrt(math.pi)
    return GramMatrix(0.5 * (g + g.T))


# ----------------------------------------------------------------------------
# two-mode states
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoModeState:
    """Amplitudes over |alpha, beta> full-line levels, alpha, beta < cutoff."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("amplitudes must be a square matrix")
        if not np.all(np.isfinite(a.view(float))):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", a)

    @property
    def cutoff(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class BeamSplitterSetting:
    """Splitter angle theta and phase phi; amplitudes r, t derive from them."""

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta < math.pi):
            raise ValueError("theta must lie in [0, pi) for the factorized form")

    @property
    def r(self) -> complex:
        return -np.exp(-1j * self.phi) * math.sin(self.theta / 2.0)

    @property
    def t(self) -> float:
        return math.cos(self.theta / 2.0)

    @property
    def tau(self) -> complex:
        """Generator coefficient (theta/2) e^{i phi}."""
        return (self.theta / 2.0) * np.exp(1j * self.phi)

    @property
    def tau_tan(self) -> complex:
        """Outer-factor coefficient e^{i phi} tan(theta/2)."""
        return np.exp(1j * self.phi) * math.tan(self.theta / 2.0)


# ----------------------------------------------------------------------------
# the beam splitter
# ----------------------------------------------------------------------------

@lru_cache(maxsize=512)
def _splitter_modes(total: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lambda and real eigenvectors V of the rotation generator S
    of the fixed-total block (real symmetric tridiagonal, off-diagonal
    entries sqrt((k+1)(total-k))/2).  S does not depend on the splitter
    setting, so one read-only pair per total serves every theta and phi.
    The dense solve (see the module docstring) holds about 32 (total+1)^2
    bytes of transients, which the CLI's memory model counts.
    """
    k = np.arange(total + 1)
    off = 0.5 * np.sqrt((k[:-1] + 1.0) * (total - k[:-1]))
    gen = np.diag(off, -1)
    gen += gen.T
    lam, vec = np.linalg.eigh(gen)
    # LAPACK's column-major layout: BLAS sums V x in an order set by the layout
    vec = np.asfortranarray(vec)
    lam.flags.writeable = False
    vec.flags.writeable = False
    return lam, vec


def _block_phase(total: int, phi: float) -> np.ndarray:
    """Diagonal phases e^{i(phi - pi/2)k} that make the generator i theta S."""
    return np.exp(1j * (phi - 0.5 * math.pi) * np.arange(total + 1))


def beamsplitter_block(total: int, theta: float, phi: float) -> np.ndarray:
    """(total+1)^2 unitary on the fixed-total block, basis |k, total-k>.

    Spectral evaluation: conjugating by the diagonal phases
    e^{i(phi - pi/2)k} turns the block generator tau K+ - tau* K- into
    i theta S with S real symmetric tridiagonal (off-diagonal entries
    sqrt((k+1)(total-k))/2), so the block is V e^{i theta lambda} V^T
    dressed with those phases.  Unitary to machine precision at any
    block size, unlike the triangular factorized form (see
    `beamsplitter_block_bch`).  `beamsplitter_apply` uses the same
    factors without forming the block.
    """
    lam, vec = _splitter_modes(total)
    core = (vec * np.exp(1j * theta * lam)) @ vec.T
    phase = _block_phase(total, phi)
    return core * np.outer(phase, phase.conj())


def beamsplitter_block_bch(total: int, theta: float, phi: float) -> np.ndarray:
    """Same block from the factorized form: lowering sum, diagonal cos
    factor t^{total-2k}, raising sum, each as finite triangular matrices.

    Exact in exact arithmetic but float-unstable for large blocks (the
    triangular factors are individually non-unitary with exponentially
    large entries); intended as a cross-check for total <~ 20.
    """
    setting = BeamSplitterSetting(theta, phi)
    n = total + 1
    tt = setting.tau_tan
    low = np.zeros((n, n), dtype=complex)
    for k in range(n):
        amp = 1.0 + 0.0j
        low[k, k] = amp
        for j in range(1, k + 1):
            amp = amp * (-np.conj(tt)) * math.sqrt(
                (k - j + 1) * (total - k + j)) / j
            low[k - j, k] = amp
    diag = setting.t ** (total - 2.0 * np.arange(n))
    high = np.zeros((n, n), dtype=complex)
    for k in range(n):
        amp = 1.0 + 0.0j
        high[k, k] = amp
        for i in range(1, n - k):
            amp = amp * tt * math.sqrt((k + i) * (total - k - i + 1)) / i
            high[k + i, k] = amp
    return high @ (diag[:, None] * low)


def beamsplitter_block_oracle(total: int, setting: BeamSplitterSetting) -> np.ndarray:
    """Same block by direct matrix exponential of tau K+ - tau* K-."""
    # imported here: only validate and the tests form this oracle
    from scipy.linalg import expm
    n = total + 1
    kp = np.zeros((n, n), dtype=complex)
    for k in range(total):
        kp[k + 1, k] = math.sqrt((k + 1) * (total - k))
    gen = setting.tau * kp - np.conj(setting.tau) * kp.conj().T
    return expm(gen)


def _real_times_complex(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for real m and complex z: the real and imaginary parts of z go
    through m separately, so no complex copy of m is made."""
    return m @ z.real + 1j * (m @ z.imag)


def beamsplitter_apply(state: TwoModeState, setting: BeamSplitterSetting
                       ) -> TwoModeState:
    """Apply the splitter; exact block structure, total photons conserved.

    Each populated anti-diagonal is rotated in the block's eigenbasis
    (see the module docstring); no (total+1)^2 complex block is formed.
    Raises CutoffExceeded when a populated entry's total photon number
    reaches the cutoff (its block would spill outside the matrix).
    """
    a = state.amplitudes
    n2 = state.cutoff
    rows, cols = np.nonzero(np.abs(a) > 0.0)
    if rows.size and int(np.max(rows + cols)) >= n2:
        raise CutoffExceeded(
            f"populated total photon number {int(np.max(rows + cols))} "
            f"needs cutoff > {n2}")
    out = np.zeros_like(a)
    populated_totals = sorted(set((rows + cols).tolist()))
    for total in populated_totals:
        k = np.arange(total + 1)
        lam, vec = _splitter_modes(total)
        phase = _block_phase(total, setting.phi)
        c = _real_times_complex(vec.T, a[k, total - k] * phase.conj())
        c *= np.exp(1j * setting.theta * lam)
        out[k, total - k] = phase * _real_times_complex(vec, c)
    return TwoModeState(out)


# ----------------------------------------------------------------------------
# embedding coherent states
# ----------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _susy_level_projections(basis: Basis, n_levels: int, cutoff: int) -> np.ndarray:
    """Coefficients of the tower states over the restricted odd basis.

    Row n holds <e_k, phi_n> for e_k = sqrt(2) x (level 2k+1 restricted),
    k < cutoff // 2, via the shared Gauss rule (orthonormal basis, so the
    Gram inverse is the identity here).  They do not depend on |z|, so
    they are built once per (basis, n_levels, cutoff); the cached array
    is read-only.
    """
    k_count = cutoff // 2
    rule = gauss_halfline(2 * cutoff + 64)
    h = hermite_normalized(2 * k_count - 1, rule.nodes)
    bw = (math.sqrt(2.0) / math.pi ** 0.25) * h[1::2, :] * rule.weights
    ws = rows(basis, n_levels, rule.nodes)[0]
    # one product per level: a single matrix product rounds differently
    proj = np.array([bw @ ws[n] for n in range(n_levels)])
    proj.flags.writeable = False
    return proj


def embed_cs_in_two_modes(cs: CoherentState, cutoff: int = 64) -> TwoModeState:
    """|extremal> (x) |cs> over full-line levels, both modes half-line states.

    Mode A carries the extremal state annihilated by the lowering
    ladder: the truncated-oscillator ground state, or — for either
    partner tower — the lowest newly created level of the partner
    Hamiltonian.  Mode B carries the coherent state.

    Truncated-oscillator states sit exactly at odd levels (level index
    2n+1 for tower index n); partner-tower states are expanded over the
    restricted odd basis by quadrature and must recover at least
    1 - 1e-6 of their norm (ExpansionResidualTooLarge otherwise).
    """
    basis = cs.basis
    amps = cs.amplitudes
    if cutoff < 2 * amps.size + 3:
        raise ValueError("cutoff must be at least 2*truncation + 3")
    if basis == Basis.TRUNCATED:
        mode_a, mode_b = np.ones(1), amps
    elif basis in (Basis.SUSY_ISO, Basis.SUSY_NEW):
        mode_a = _susy_level_projections(Basis.SUSY_NEW, 1, cutoff)[0]
        mode_b = amps @ _susy_level_projections(basis, amps.size, cutoff)
        recovered_a = float(np.sum(mode_a ** 2))
        recovered_b = float(np.linalg.norm(mode_b) ** 2)
        if recovered_a < 1.0 - 1e-6 or recovered_b < 1.0 - 1e-6:
            raise ExpansionResidualTooLarge(
                f"projection recovers {min(recovered_a, recovered_b):.8f} of the "
                f"norm at cutoff {cutoff}")
    else:
        raise ValueError(f"cannot embed states over basis {basis}")
    u = np.zeros(cutoff, dtype=complex)
    v = np.zeros(cutoff, dtype=complex)
    u[1:2 * mode_a.size:2] = mode_a
    v[1:2 * mode_b.size:2] = mode_b
    return TwoModeState(np.outer(u, v))


# ----------------------------------------------------------------------------
# reduction and entropy
# ----------------------------------------------------------------------------

def reduced_density(out_state: TwoModeState, gram: GramMatrix) -> np.ndarray:
    """Mode-A density matrix in the orthonormal restricted odd basis.

    Both modes are pushed through T = sqrt(2) G[odd, :] (the expansion of
    every restricted level over the complete orthonormal odd basis), the
    result is renormalized under the half-line metric, and mode B is
    traced out.
    """
    if gram.size != out_state.cutoff:
        raise ValueError("Gram size must match the state cutoff")
    t = gram.odd_rows_scaled()
    m = t @ out_state.amplitudes @ t.T
    norm_sq = float(np.sum(np.abs(m) ** 2))
    if norm_sq <= 0.0:
        raise ValueError("state has zero half-line norm")
    return (m @ m.conj().T) / norm_sq


def linear_entropy(rho: np.ndarray) -> float:
    """1 - Tr(rho^2) for a Hermitian unit-trace density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if np.max(np.abs(rho - rho.conj().T)) > 1e-8:
        raise ValueError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise ValueError("density matrix must have unit trace")
    return float(1.0 - np.sum(np.abs(rho) ** 2))


@dataclass(frozen=True)
class EntropyRecord:
    z_abs: float
    theta: float
    phi: float
    entropy: float
    entropy_refined: float
    converged: bool
    cutoff: int


def _entropy_single(cs: CoherentState, setting: BeamSplitterSetting,
                    cutoff: int, gram: GramMatrix) -> float:
    state = embed_cs_in_two_modes(cs, cutoff=cutoff)
    padded = np.zeros((gram.size, gram.size), dtype=complex)
    padded[:cutoff, :cutoff] = state.amplitudes
    out = beamsplitter_apply(TwoModeState(padded), setting)
    return linear_entropy(reduced_density(out, gram))


def entropy_scan(family: Family, z_moduli: Sequence[float],
                 setting: Optional[BeamSplitterSetting] = None,
                 cutoff: int = 64, n_terms: Optional[int] = None
                 ) -> list[EntropyRecord]:
    """Linear entropy against |z| with a 1.5x-cutoff convergence probe.

    States keep n_terms levels (default: the family's coherent.WINDOWS
    entry); as in build_cs, the partner towers are those of the
    frozen fourth-order model.  Records are flagged unconverged when the
    two cutoffs disagree by 5e-3 or more.  Both Gram matrices are built
    before the first splitter solve (see the module docstring), and each
    |z|'s state serves both cutoffs.  Gram matrices, splitter eigenpairs
    and partner-tower projections are cached.
    """
    if setting is None:
        setting = BeamSplitterSetting(math.pi / 2.0, 0.0)
    if n_terms is None:
        n_terms = WINDOWS[Family(family)].entropy_terms
    # both modes can populate levels up to c-1, so splitter blocks reach
    # total 2c-2; each state is padded to its Gram size 2c-1 so that no
    # block spills over the edge
    grams = [(c, gram_matrix(2 * c - 1)) for c in (cutoff, int(cutoff * 1.5))]
    records = []
    for z_abs in z_moduli:
        cs = build_cs(family, float(z_abs), truncation=n_terms)
        s0, s1 = (_entropy_single(cs, setting, c, gram) for c, gram in grams)
        records.append(EntropyRecord(z_abs=float(z_abs), theta=setting.theta,
                                     phi=setting.phi, entropy=s0,
                                     entropy_refined=s1,
                                     converged=abs(s0 - s1) < 5e-3,
                                     cutoff=cutoff))
    return records
