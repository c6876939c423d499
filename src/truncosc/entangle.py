"""Two-mode beam-splitter entanglement over the half-line.

Pipeline: embed a coherent state (and the relevant extremal state) into
full-line oscillator levels, apply the su(2) beam splitter block by block
(Risbo's recursion, see below), re-express both modes in the orthonormal
half-line basis built from odd full-line levels, partial-trace, and take
the linear entropy.

The splitter exp(tau K+ - tau* K-) with tau = (theta/2) e^{i phi}
factorizes as

    exp(e^{i phi} tan(theta/2) K+) (cos(theta/2))^{-2 K0}
    exp(-e^{-i phi} tan(theta/2) K-)

— note the tangent in the outer factors; the middle factor carries the
cosine of theta/2 itself.  All blocks conserve total photon number, so
each factor is a finite sum inside a fixed-total block.

Inside the fixed-total block the generators form an su(2) triple
(K+ steps up, K- steps down, K0 is half the mode-number difference),
so the block unitary is a spin rotation: the Wigner matrix d^j(theta)
with j = total/2, dressed with the phases e^{i phi (i - k)}.  The
triangular factorized evaluation above is exact arithmetic but
numerically explosive: its outer factors carry entries of size
~ tan(theta/2)^k sqrt(binomials), which grow like e^{total} and cancel
catastrophically in float64 — unitarity is already off by 1e-5 at total
30 and by many orders of magnitude at total > 60.  It is kept as
`beamsplitter_block_bch` for cross-checks on small blocks, and
`beamsplitter_block` builds the block from the generator's spectrum
(`eigh`) as a second cross-check.

The production evaluation builds the real blocks d_total by Risbo's
recursion (T. Risbo, J. Geodesy 70, 383, 1996), each from the previous
one in O(total^2) work, with no eigensolve and no cache; the blocks agree
with the spectral ones to 7e-14 and stay orthogonal to 8e-14 up to total
822.  One sweep up to the largest populated total rotates the
anti-diagonals of many states at once, each state held as its populated
anti-diagonals packed one after another (`_Diagonals`), not as a padded
matrix: `entropy_scan` packs every |z| point of a chunk, one pack per
cutoff, about c^2 entries a state where the padded (2c - 1)^2 matrix
would be four times that.  A chunk's packed states hold at most 16 MiB,
so memory does not grow with the number of points.  Each pack goes
through its own batched product per total, in place, and each state
through its own product in it, so a state's bits do not depend on the
points rotated with it.  Each state is reduced from one P x P buffer per
cutoff, reused across the chunk.
Entropy runs load no scipy.  `entropy_scan` builds the two Gram matrices
once and hands them to every chunk.  The partner-tower projections onto
the half-line basis do not depend on |z| either: they are built once per
cutoff from the rows of `fock.rows`, before any packed state.  Each |z|'s
state is built once and embedded at both cutoffs.

Half-line geometry: restrictions of full-line levels to (0, inf) are
not orthogonal across parities; their normalized overlaps form the Gram
matrix, in closed form (`gram_matrix`).  Restricted odd levels, scaled
by sqrt(2), are orthonormal AND complete on the half-line, so they serve
as the working basis for the partial trace, and the change of basis is
just sqrt(2) times the odd rows of the Gram matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .coherent import WINDOWS, CoherentState, Family, build_cs
from .errors import DivergenceError, TruncationTooSmall
from .fock import _ROW_CHUNK, Basis, hermite_normalized, rows
from .numerics import (_is_nonpositive_integer, gauss_halfline, gauss_halfline_size,
                       hyp2f1_terminating)

__all__ = [
    "GramMatrix",
    "BeamSplitterSetting",
    "EntropyRecord",
    "halfline_overlap",
    "halfline_overlap_quadrature",
    "gram_matrix",
    "beamsplitter_block",
    "beamsplitter_block_bch",
    "beamsplitter_block_oracle",
    "reduced_density",
    "linear_entropy",
    "entropy_scan",
    "points_per_sweep",
    "scan_bytes",
    "min_cutoff",
]


# ----------------------------------------------------------------------------
# half-line overlaps and the Gram matrix
# ----------------------------------------------------------------------------

def halfline_overlap_quadrature(alpha: int, beta: int) -> float:
    """int_0^inf e^{-x^2} H_alpha H_beta dx by Gauss quadrature: the oracle
    of `halfline_overlap`'s closed form, and its value on Gamma's poles."""
    rule = gauss_halfline(alpha + beta + 16)
    h = hermite_normalized(max(alpha, beta), rule.nodes)
    log_scale = 0.5 * ((alpha + beta) * math.log(2.0)
                       + math.lgamma(alpha + 1) + math.lgamma(beta + 1))
    return float(np.sum(rule.weights * h[alpha] * h[beta]) * math.exp(log_scale))


def halfline_overlap(alpha: int, beta: int) -> float:
    """int_0^inf e^{-x^2} H_alpha H_beta dx (physicists' polynomials).

    Closed form sqrt(pi) 2F1[-a,-b; 1-(a+b)/2; 1/2] / (2^{1-a-b}
    Gamma(1-(a+b)/2)) where the Gamma argument is off its poles
    (a+b odd, or a+b = 0); `halfline_overlap_quadrature` on them.  Raises
    DivergenceError, naming the pair, where the 2F1 cancels past its
    rounding rule (first at (13, 24); every odd a+b from 275 on) or
    the closed form leaves the float range (every odd a+b >= 281).
    """
    if alpha < 0 or beta < 0:
        raise ValueError("indices must be non-negative")
    c = 1.0 - (alpha + beta) / 2.0
    if _is_nonpositive_integer(c):
        return halfline_overlap_quadrature(alpha, beta)
    try:
        f = hyp2f1_terminating(-alpha, -beta, c, 0.5)
    except DivergenceError as exc:
        raise DivergenceError(f"half-line overlap ({alpha}, {beta}): {exc}") from exc
    den = 2.0 ** (1 - alpha - beta) * math.gamma(c)
    value = math.sqrt(math.pi) * f / den if den else math.inf
    if not math.isfinite(value):
        raise DivergenceError(f"half-line overlap ({alpha}, {beta}) leaves the float range")
    return value


@dataclass(frozen=True)
class GramMatrix:
    """Half-line overlaps of NORMALIZED full-line levels, size x size.

    Odd-odd (and even-even) blocks are diagonal with value 1/2; the
    parity-mixing entries are the nontrivial content.  The matrix is
    positive definite (restricted levels are linearly independent), but
    its smallest eigenvalue falls below rounding from size 16 on, so
    construction checks that the same-parity blocks are exactly I/2 and
    that G is positive semidefinite to 1e-10, from the largest eigenvalue
    of C^T C for the cross block C = G[0::2, 1::2].  The entries
    are a read-only copy: a scan hands one record to all its chunks.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        g = np.array(self.entries, dtype=float)
        g.flags.writeable = False
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("Gram matrix must be square")
        if np.max(np.abs(g - g.T)) > 1e-12:
            raise ValueError("Gram matrix is not symmetric")
        for parity in (0, 1):
            block = g[parity::2, parity::2]
            if not np.array_equal(block, 0.5 * np.eye(block.shape[0])):
                raise ValueError("Gram matrix's same-parity blocks are not I/2")
        # with both same-parity blocks I/2, the eigenvalues of G are 1/2 plus
        # or minus the singular values of the cross block C (and 1/2)
        cross = g[0::2, 1::2]
        if np.any(np.linalg.eigvalsh(cross.T @ cross) > (0.5 + 1e-10) ** 2):
            raise ValueError("Gram matrix has a negative eigenvalue")
        object.__setattr__(self, "entries", g)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def gram_matrix(size: int) -> GramMatrix:
    """Gram matrix of the first `size` restricted normalized levels, exact
    at every size in O(size^2) work, with nothing larger than G.

    Same-parity entries are delta_mn / 2.  For m + n odd, integrating the
    Wronskian identity (psi_m psi_n' - psi_n psi_m')' = 2 (m - n) psi_m psi_n
    over (0, inf) gives G[m, n] = (psi_n(0) psi_m'(0) - psi_m(0) psi_n'(0))
    / (2 (m - n)), with psi_2j(0) = -sqrt((2j - 1)/(2j)) psi_2j-2(0) from
    pi^(-1/4), psi_2j+1'(0) = sqrt(2 (2j + 1)) psi_2j(0), and the odd
    levels' values and even levels' slopes at 0 zero.
    """
    if size < 1:
        raise ValueError("size must be positive")
    m, n = np.arange(0, size, 2), np.arange(1, size, 2)  # even and odd levels
    psi0 = np.cumprod(np.concatenate(([math.pi ** -0.25], -np.sqrt((m[1:] - 1) / m[1:]))))
    g = np.diag(np.full(size, 0.5))
    g[::2, 1::2] = np.outer(psi0, np.sqrt(2.0 * n) * psi0[:n.size]) / (2.0 * (n - m[:, None]))
    g[1::2, ::2] = g[::2, 1::2].T
    return GramMatrix(g)


# ----------------------------------------------------------------------------
# the beam splitter
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class BeamSplitterSetting:
    """Splitter angle theta and phase phi.

    theta lies in [0, pi), where the transmission cos(theta/2) is
    positive: a negative angle is the splitter at -theta with phi + pi,
    and the factorized cross-check `beamsplitter_block_bch` divides by
    the transmission.  phi must be finite.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta < math.pi):
            raise ValueError("theta must lie in [0, pi)")
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")


def beamsplitter_block(total: int, setting: BeamSplitterSetting) -> np.ndarray:
    """(total+1)^2 unitary on the fixed-total block, basis |k, total-k>,
    from the generator's spectrum: the cross-check of the recursion that
    `entropy_scan`'s sweep runs.

    Conjugating by the diagonal phases e^{i(phi - pi/2)k} turns the block
    generator tau K+ - tau* K- into i theta S with S real symmetric
    tridiagonal (off-diagonal entries sqrt((k+1)(total-k))/2), so the
    block is V e^{i theta lambda} V^T dressed with those phases, (lambda,
    V) from a dense `eigh` of S.  Unitary to machine precision at any
    block size, unlike the triangular factorized form (see
    `beamsplitter_block_bch`).  Nothing is cached.
    """
    k = np.arange(total + 1)
    off = 0.5 * np.sqrt((k[:-1] + 1.0) * (total - k[:-1]))
    gen = np.diag(off, -1)
    gen += gen.T
    lam, vec = np.linalg.eigh(gen)
    vec = np.asfortranarray(vec)
    core = (vec * np.exp(1j * setting.theta * lam)) @ vec.T
    phase = np.exp(1j * (setting.phi - 0.5 * math.pi) * k)
    return core * np.outer(phase, phase.conj())


def beamsplitter_block_bch(total: int, setting: BeamSplitterSetting) -> np.ndarray:
    """Same block from the factorized form: lowering sum, diagonal cos
    factor cos(theta/2)^{total-2k}, raising sum, each as finite triangular
    matrices.

    Exact in exact arithmetic but float-unstable for large blocks (the
    triangular factors are individually non-unitary with exponentially
    large entries); intended as a cross-check for total <~ 20.
    """
    n = total + 1
    tt = np.exp(1j * setting.phi) * math.tan(setting.theta / 2.0)
    low = np.zeros((n, n), dtype=complex)
    for k in range(n):
        amp = 1.0 + 0.0j
        low[k, k] = amp
        for j in range(1, k + 1):
            amp = amp * (-np.conj(tt)) * math.sqrt(
                (k - j + 1) * (total - k + j)) / j
            low[k - j, k] = amp
    diag = math.cos(setting.theta / 2.0) ** (total - 2.0 * np.arange(n))
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
    tau = (setting.theta / 2.0) * np.exp(1j * setting.phi)
    gen = tau * kp - np.conj(tau) * kp.conj().T
    return expm(gen)


# Bytes of packed two-mode states that one splitter sweep rotates together; a
# scan with more |z| points runs one sweep per chunk of points, so its memory
# does not grow with the number of points.
_SWEEP_STATE_BYTES = 16 << 20


def _risbo_blocks(top: int, theta: float) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (total, d) for total = 1 .. top, where the real block
    d[i, k] = <i, total-i|U(theta, phi=0)|k, total-k> comes from the
    previous one, d', by Risbo's recursion (T. Risbo, J. Geodesy 70, 383,
    1996) in photon-number form:

        total d[i,k] = c sqrt(ik) d'[i-1,k-1] - s sqrt((total-i)k) d'[i,k-1]
                       + s sqrt(i(total-k)) d'[i-1,k]
                       + c sqrt((total-i)(total-k)) d'[i,k]

    with c = cos(theta/2), s = sin(theta/2) and d' zero outside its range:
    O(total^2) work a step.  Every square root comes from one table of
    sqrt(ik), so at theta = 0 each step returns the identity exactly
    (sqrt(i*i) = i and i + (total-i) = total in floating point).  Each
    step writes into buffers allocated once: the yielded block is a
    contiguous view that the next step overwrites.
    """
    roots = np.sqrt(np.multiply.outer(np.arange(top + 1.0), np.arange(top + 1.0)))
    cos_roots = math.cos(theta / 2.0) * roots
    sin_roots = np.multiply(math.sin(theta / 2.0), roots, out=roots)
    pad = np.zeros((top + 2, top + 2))  # d' at [1:total+1, 1:total+1], zeros around
    pad[1, 1] = 1.0
    flat = np.empty((2, (top + 1) ** 2))  # the block and one temporary
    for total in range(1, top + 1):
        n = total + 1
        block, tmp = (buf[:n * n].reshape(n, n) for buf in flat)
        flip = slice(total, None, -1)  # row or column i reads total - i
        np.multiply(cos_roots[:n, :n], pad[:n, :n], out=block)
        block -= np.multiply(sin_roots[flip, :n], pad[1:n + 1, :n], out=tmp)
        block += np.multiply(sin_roots[:n, flip], pad[:n, 1:n + 1], out=tmp)
        block += np.multiply(cos_roots[flip, flip], pad[1:n + 1, 1:n + 1], out=tmp)
        block /= total
        pad[1:n + 1, 1:n + 1] = block
        yield total, block


class _Diagonals:
    """Anti-diagonals of n_states two-mode states of size x size levels,
    packed: row j of `data` holds state j's entries [k, total - k], k = 0 ..
    total, for each of `totals` in turn; every other entry of the states is
    zero.  A scan's state populates only the even totals that the odd
    supports of its modes reach, about c^2 entries where its padded matrix
    has (2c - 1)^2.  `rows` and `cols` locate the packed entries, `starts`
    the first entry of each total.  Raises TruncationTooSmall when a total
    reaches the size (its splitter block would spill outside the matrix).
    """

    def __init__(self, size: int, totals: Sequence[int], n_states: int) -> None:
        self.totals = tuple(totals)
        if self.totals and max(self.totals) >= size:
            raise TruncationTooSmall(f"populated total photon number {max(self.totals)} "
                                     f"needs cutoff > {size}")
        ks = [np.arange(total + 1) for total in self.totals]
        self.rows = np.concatenate([np.arange(0), *ks])
        self.cols = np.concatenate([np.arange(0), *(t - k for t, k in zip(self.totals, ks))])
        self.starts = dict(zip(self.totals, np.cumsum([0, *(k.size for k in ks)]).tolist()))
        self.data = np.empty((n_states, self.rows.size), dtype=complex)


def _rotate_in_place(packs: Sequence[_Diagonals], setting: BeamSplitterSetting
                     ) -> None:
    """Apply the splitter to every state of each pack.

    One sweep builds the real blocks d_total by `_risbo_blocks` up to the
    largest packed total; at each total a pack holds, the anti-diagonal x of
    each of its states is replaced in place by phase * (d_total @ (conj(phase)
    * x)), phase = e^{i phi k}, in one batched product per pack.  The packs'
    own guard has already rejected a total that reaches its states' size.
    """
    top = max((max(pack.totals) for pack in packs if pack.totals), default=0)
    phase = np.exp(1j * setting.phi * np.arange(top + 1))
    for total, block in _risbo_blocks(top, setting.theta):
        for pack in (pack for pack in packs if total in pack.starts):
            span = slice(pack.starts[total], pack.starts[total] + total + 1)
            x = np.multiply(pack.data[:, span], phase[:total + 1].conj(), order="C")
            # each state's real and imaginary parts are the two columns of its
            # own (total+1) x 2 factor, so its bits do not depend on the
            # states rotated with it
            y = np.matmul(block, x.view(float).reshape(len(x), total + 1, 2))
            pack.data[:, span] = y.reshape(len(x), -1).view(complex) * phase[:total + 1]


# ----------------------------------------------------------------------------
# embedding coherent states
# ----------------------------------------------------------------------------

# A partner-tower state embeds only if its projection onto the cutoff's odd
# levels keeps 1 - _EMBED_RESIDUAL of its norm.  Mode A, the lowest new
# partner level, keeps 1 - 1.02e-6 in the 38 odd levels of cutoffs 76 and 77,
# and 1 - 0.97e-6 in the 39 of cutoff 78, the least that embeds it.
_EMBED_RESIDUAL = 1e-6
_MODE_A_MIN_CUTOFF = 78


def _least_cutoff(n_levels: int) -> int:
    """Smallest cutoff that embeds a state of n_levels tower levels."""
    return 2 * n_levels + 3


def _projection_degree(cutoff: int) -> int:
    """Degree of the Gauss rule behind the partner projections at a cutoff."""
    return 2 * cutoff + 64


@lru_cache(maxsize=16)
def _susy_level_projections(basis: Basis, n_levels: int, cutoff: int) -> np.ndarray:
    """Coefficients over the orthonormal half-line basis e_k, the truncated
    levels k < cutoff // 2 (sqrt(2) x full-line level 2k+1, restricted), so
    the Gram inverse is the identity: row 0 of mode A, the lowest new partner
    level, row 1 + n of level n of the basis, all from one Gauss rule and the
    weighted rows of `fock.rows` on its nodes.  They do not depend on |z|:
    built once per (basis, n_levels, cutoff), the cached array is read-only.
    """
    rule = gauss_halfline(_projection_degree(cutoff))
    bw = rows(Basis.TRUNCATED, cutoff // 2, rule.nodes)[0]
    bw *= rule.weights
    levels = [rows(Basis.SUSY_NEW, 1, rule.nodes)[0, 0], *rows(basis, n_levels, rule.nodes)[0]]
    # one product per level: a single matrix product rounds differently
    proj = np.array([bw @ level for level in levels])
    proj.flags.writeable = False
    return proj


def _embedded_modes(cs: CoherentState, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of mode A and mode B over the odd levels 1, 3, ... below
    the cutoff.  Mode A carries the extremal state annihilated by the
    lowering ladder: the truncated-oscillator ground state, or, for either
    partner tower, the lowest newly created level of the partner
    Hamiltonian.  Mode B carries the coherent state."""
    basis = cs.basis
    amps = cs.amplitudes
    least = _least_cutoff(amps.size)
    if cutoff < least:
        raise ValueError(f"a {amps.size}-level state needs cutoff >= {least}")
    if basis == Basis.TRUNCATED:
        return np.ones(1), amps
    proj = _susy_level_projections(basis, amps.size, cutoff)
    mode_a, mode_b = proj[0], amps @ proj[1:]
    recovered_a = float(np.sum(mode_a ** 2))
    recovered_b = float(np.linalg.norm(mode_b) ** 2)
    if recovered_a < 1.0 - _EMBED_RESIDUAL or recovered_b < 1.0 - _EMBED_RESIDUAL:
        raise TruncationTooSmall(
            f"projection recovers {min(recovered_a, recovered_b):.8f} of the "
            f"norm at cutoff {cutoff}")
    return mode_a, mode_b


def _odd_levels(coefficients: np.ndarray, size: int) -> np.ndarray:
    """Complex amplitudes over `size` full-line levels, the coefficients at
    the odd levels 1, 3, ... and zeros elsewhere."""
    out = np.zeros(size, dtype=complex)
    out[1:2 * coefficients.size:2] = coefficients
    return out


# ----------------------------------------------------------------------------
# reduction and entropy
# ----------------------------------------------------------------------------

def reduced_density(amplitudes: np.ndarray, gram: GramMatrix) -> np.ndarray:
    """Mode-A density matrix in the orthonormal restricted odd basis, from
    the P x P amplitudes over |alpha, beta> full-line levels, P the Gram size.

    Both modes are pushed through T = sqrt(2) G[odd, :] (the expansion of
    every restricted level over the complete orthonormal odd basis), the
    result is renormalized under the half-line metric, and mode B is
    traced out.
    """
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if amplitudes.shape != (gram.size, gram.size):
        raise ValueError(f"amplitudes must be {gram.size} x {gram.size}, the Gram size")
    if not np.all(np.isfinite(amplitudes.view(float))):
        raise ValueError("amplitudes must be finite")
    t = math.sqrt(2.0) * gram.entries[1::2, :]
    m = t @ amplitudes @ t.T
    norm_sq = float(np.sum(np.abs(m) ** 2))
    if norm_sq <= 0.0:
        raise ValueError("state has zero half-line norm")
    return (m @ m.conj().T) / norm_sq


def linear_entropy(rho: np.ndarray) -> float:
    """1 - Tr(rho^2) for a Hermitian unit-trace density matrix."""
    rho = np.asarray(rho, dtype=complex)
    # written as not (... <= tol), so that NaN fails the guards
    if not np.max(np.abs(rho - rho.conj().T)) <= 1e-8:
        raise ValueError("density matrix must be Hermitian")
    if not abs(np.trace(rho).real - 1.0) <= 1e-8:
        raise ValueError("density matrix must have unit trace")
    return float(1.0 - np.sum(np.abs(rho) ** 2))


@dataclass(frozen=True)
class EntropyRecord:
    z_abs: float
    entropy: float
    entropy_refined: float
    converged: bool
    cutoff: int


def _scan_cutoffs(cutoff: int) -> tuple[int, int]:
    """The base cutoff c and the 1.5x cutoff of the convergence probe; a scan
    pads its states at each cutoff b to the Gram size 2b - 1, since both modes
    populate levels up to b - 1 and splitter blocks reach total 2b - 2."""
    return cutoff, int(cutoff * 1.5)


def _populated_totals(n_a: int, n_b: int) -> range:
    """Totals a state populates whose mode A spans the odd levels below
    2 n_a and mode B those below 2 n_b: even, from 2 to 2 (n_a + n_b) - 2."""
    return range(2, 2 * (n_a + n_b) - 1, 2)


def _point_state_bytes(cutoff: int) -> int:
    """Bytes of one |z| point's packed two-mode states at both cutoffs b:
    each mode spans at most the h = b // 2 odd levels below b, so a state
    holds at most the sum of total + 1 over `_populated_totals(h, h)`,
    (2h - 1)(2h + 1) entries."""
    return sum(16 * (4 * (b // 2) ** 2 - 1) for b in _scan_cutoffs(cutoff))


def points_per_sweep(cutoff: int) -> int:
    """|z| points whose two-mode states one splitter sweep of `entropy_scan`
    rotates: as many as fit in 16 MiB, and at least one."""
    return max(1, _SWEEP_STATE_BYTES // _point_state_bytes(cutoff))


def scan_bytes(cutoff: int, n_points: int) -> int:
    """Upper bound on the bytes `entropy_scan` holds at once over n_points
    |z| points (records aside), from the layout alone.  With c the probe
    cutoff and P = 2c - 1, it peaks either in the partner projections at c,
    built before any state: the floor(c/2) truncated rows on the N nodes of
    their rule (8 floor(c/2) N bytes) and what `fock.rows` holds for one
    block of 512 nodes besides them, its Hermite table and one gathered row
    set (24 floor(c/2) 512 bytes); or in the splitter sweep or the reduction
    of the packed states of `points_per_sweep` points, plus their entry
    indices (the bytes of one more point), and at most 48 P^2
    bytes of Risbo tables and blocks (40 P^2) or of the reduction's P x P
    buffer and products.  The two peaks are added, which also covers what
    each leaves out (Gram matrices, quadrature rules, tower rows, the
    sweep's per-total products).
    """
    probe = _scan_cutoffs(cutoff)[1]
    padded = 2 * probe - 1
    states = (min(n_points, points_per_sweep(cutoff)) + 1) * _point_state_bytes(cutoff)
    return (8 * (probe // 2) * gauss_halfline_size(_projection_degree(probe))
            + 24 * (probe // 2) * _ROW_CHUNK + states + 48 * padded * padded)


def min_cutoff(family: Family) -> tuple[int, str]:
    """The least cutoff of an entropy scan of the family, and what sets it:
    room for its entropy window or, on a partner tower, mode A."""
    windows = WINDOWS[Family(family)]
    least = _least_cutoff(windows.entropy_terms)
    if windows.basis == Basis.TRUNCATED or least >= _MODE_A_MIN_CUTOFF:
        return least, f"embeds {windows.entropy_terms} levels"
    return _MODE_A_MIN_CUTOFF, (f"projects mode A, the lowest new partner level, "
                                f"onto odd levels to 1 - {_EMBED_RESIDUAL:g} of its norm")


def _entropy_chunk(family: Family, z_chunk: Sequence[float], n_terms: int,
                   setting: BeamSplitterSetting, cutoffs: Sequence[int],
                   grams: Sequence[GramMatrix]) -> list[EntropyRecord]:
    """Records of one chunk of |z| points, given the Gram matrix of each
    cutoff: each state is built once and embedded at both cutoffs (so the
    partner projections precede the packed states), one sweep rotates them
    all, and each is reduced from one P x P buffer per cutoff.  The packed
    states are freed on return, before the next chunk's are allocated."""
    modes = []
    for z_abs in z_chunk:
        cs = build_cs(family, z_abs, truncation=n_terms)
        modes.append([_embedded_modes(cs, c) for c in cutoffs])
    packs = []
    for b, gram in enumerate(grams):
        n_a, n_b = (mode.size for mode in modes[0][b])
        pack = _Diagonals(gram.size, _populated_totals(n_a, n_b), len(z_chunk))
        for row, point in zip(pack.data, modes):
            u, v = (_odd_levels(mode, gram.size) for mode in point[b])
            row[:] = u[pack.rows] * v[pack.cols]
        packs.append(pack)
    _rotate_in_place(packs, setting)
    entropies = []
    for pack, gram in zip(packs, grams):
        # every point fills the same entries, so the rest of it stays zero
        amps = np.zeros((gram.size, gram.size), dtype=complex)
        entropies.append([])
        for row in pack.data:
            amps[pack.rows, pack.cols] = row
            entropies[-1].append(linear_entropy(reduced_density(amps, gram)))
    return [EntropyRecord(z_abs=z_abs, entropy=s0, entropy_refined=s1,
                          converged=abs(s0 - s1) < 5e-3, cutoff=cutoffs[0])
            for z_abs, s0, s1 in zip(z_chunk, *entropies)]


def entropy_scan(family: Family, z_moduli: Sequence[float],
                 setting: BeamSplitterSetting, cutoff: int,
                 n_terms: Optional[int] = None) -> list[EntropyRecord]:
    """Linear entropy against |z| with a 1.5x-cutoff convergence probe.

    States keep n_terms levels (default: the family's coherent.WINDOWS
    entry); as in build_cs, the partner towers are those of the
    frozen fourth-order model.  Records are flagged unconverged when the
    two cutoffs disagree by 5e-3 or more.  The two Gram matrices are built
    once, before the first chunk, and the partner projections with the
    first chunk's states (see the module docstring); then one splitter
    sweep rotates the states of each chunk of `points_per_sweep` |z| points.
    """
    if n_terms is None:
        n_terms = WINDOWS[Family(family)].entropy_terms
    z_moduli = [float(z) for z in z_moduli]
    cutoffs = _scan_cutoffs(cutoff)
    grams = [gram_matrix(2 * b - 1) for b in cutoffs]
    chunk = points_per_sweep(cutoff)
    records = []
    for first in range(0, len(z_moduli), chunk):
        records += _entropy_chunk(family, z_moduli[first:first + chunk], n_terms,
                                  setting, cutoffs, grams)
    return records
