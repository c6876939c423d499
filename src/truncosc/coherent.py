"""Coherent-state families over the half-line ladder and its partner towers.

build_cs constructs all six families:

* "lowering"         -- eigenstates of the lowering operator,
                        amplitudes z^k / sqrt(prod_{j<=k} step(j)),
* "displacement"     -- displacement-type series with the raising-step
                        weights, amplitudes z^k sqrt(prod step)/k!,
* "lin-lowering"     -- the linearised ladder (steps sqrt(alpha k)),
                        amplitudes (z/sqrt(alpha))^k / sqrt(k!),
* "lin-displacement" -- same ladder, displacement form,
                        amplitudes (sqrt(alpha) z)^k / sqrt(k!),
* "susy-iso"         -- displacement-type, on the infinite partner tower:
                        the lin-displacement series at alpha = 2,
* "susy-new"         -- displacement-type, on the finite partner tower:
                        (sqrt(2) z)^j / j! sqrt((-delta1/2)_j), j = 0, 1,

with step(j) = 2j(2j+1) the squared half-line step (fock.ladder_step_sq);
the partner towers are those of the frozen fourth-order model (susy).

For the half-line oscillator, the lowering-family norm constant has the
closed form [sinh|z| / |z|]^{-1/2} and the displacement family exists
only for |z| < 1/2 with norm constant (1 - 4|z|^2)^{3/4}.  Normalization
is always computed from the direct amplitude sum; closed forms are
cross-checks, not inputs.  The finite-tower state takes the principal
branch of sqrt((-delta1/2)_j), which shows only in relative phases.
WINDOWS is the one table of the level windows each family's scans use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .errors import (
    FamilyMismatch,
    IndexOutOfRange,
    NotNormalizable,
    TailTooFat,
    TruncationTooSmall,
)
from .fock import Basis, ladder_apply, ladder_step_sq, level_energy
from .numerics import rising_factorial
from .susy import DELTA1, NEW_ENERGIES

__all__ = [
    "Family",
    "CoherentState",
    "Windows",
    "WINDOWS",
    "build_cs",
    "displacement_norm_partial_sums",
    "eigen_residual",
    "state_probability",
    "energy_expectation",
    "evolve",
    "identity_resolution_check",
    "lowering_measure_reference",
    "lowering_measure_corrected",
    "iso_measure",
]


class Family(str, Enum):
    LOWERING = "lowering"
    DISPLACEMENT = "displacement"
    LIN_LOWERING = "lin-lowering"
    LIN_DISPLACEMENT = "lin-displacement"
    SUSY_ISO = "susy-iso"
    SUSY_NEW = "susy-new"


@dataclass
class CoherentState:
    """A normalized coherent state with its construction metadata.

    amplitudes are the state's components over its family's basis (basis,
    read from WINDOWS).  norm_constant is the realized normalization
    factor (what multiplies the raw series amplitudes), computed from the
    direct sum.  energies holds the eigenvalue of each level the state
    spans.  Construction raises NotNormalizable unless the amplitudes form
    a finite 1-d unit vector, so an overflowed or NaN series never
    reaches a reader.
    """

    family: Family
    z: complex
    alpha: float
    amplitudes: np.ndarray
    norm_constant: float
    energies: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.ndim != 1:
            raise NotNormalizable("amplitudes must be a 1-d array")
        norm = float(np.linalg.norm(self.amplitudes))
        if not abs(norm - 1.0) <= 1e-12:
            raise NotNormalizable(
                f"{self.family.value} state at z = {self.z} has norm {norm:.6g}, not 1")

    @property
    def basis(self) -> Basis:
        return WINDOWS[self.family].basis


def _raw_amplitudes(family: Family, z: complex, alpha: float,
                    truncation: int) -> np.ndarray:
    """Unnormalized amplitudes c[k] = c[k-1] * w * up[k] / down[k].

    Each family is one factor triple; up is None where the family has no
    raising weight, so that no multiply by 1 touches the signs of zeros.
    """
    k = np.arange(truncation)
    up = None
    if family == Family.LOWERING:
        w, down = z, np.sqrt(ladder_step_sq(k))
    elif family == Family.DISPLACEMENT:
        w, up, down = z, np.sqrt(ladder_step_sq(k)), k
    elif family == Family.LIN_LOWERING:
        w, down = z / math.sqrt(alpha), np.sqrt(k)
    else:  # lin-displacement, and susy-iso, whose amplitudes are its series
        w, down = math.sqrt(alpha) * z, np.sqrt(k)
    c = np.zeros(truncation, dtype=complex)
    c[0] = 1.0
    for j in range(1, truncation):
        step = c[j - 1] * w
        c[j] = (step if up is None else step * up[j]) / down[j]
    return c


def displacement_norm_partial_sums(r: float, n_terms: int = 80) -> np.ndarray:
    """Partial sums of the displacement-family norm series at |z| = r.

    Term k is the product of the ratios r^2 step(j) / j^2 over j <= k.
    Outside the convergence radius the partial sums grow without bound;
    this is the diagnostic behind the NotNormalizable error.
    """
    k = np.arange(1, n_terms)
    ratios = np.ones(n_terms)
    ratios[1:] = (r * r) * ladder_step_sq(k) / (k * k)
    return np.cumsum(np.cumprod(ratios))


def build_cs(family: Family, z: complex, alpha: float = 2.0,
             truncation: int = 64) -> CoherentState:
    """The normalized coherent state of any of the six families.

    The series families keep `truncation` levels; the finite tower
    (susy-new) holds its two, whatever the truncation.  Raises ValueError
    for a partner family at alpha != 2, NotNormalizable when the norm
    series diverges (displacement outside its radius) or overflows, and
    TruncationTooSmall when the last kept amplitude still carries weight
    above 1e-12 of the norm.
    """
    family = Family(family)
    if WINDOWS[family].basis != Basis.TRUNCATED and alpha != 2.0:
        raise ValueError(f"{family.value} states exist at alpha = 2 only, got {alpha}")
    if family == Family.SUSY_NEW:
        z = complex(z)
        c = np.zeros(len(NEW_ENERGIES), dtype=complex)
        for j in range(c.size):
            poch = rising_factorial(-DELTA1 / 2.0, j)
            c[j] = ((math.sqrt(2.0) * z) ** j / math.factorial(j)
                    * complex(np.sqrt(complex(poch))))
        with np.errstate(over="ignore"):  # an infinite norm leaves a zero state, rejected below
            norm = float(np.linalg.norm(c))
        return CoherentState(family=family, z=z, alpha=2.0, amplitudes=c / norm,
                             norm_constant=1.0 / norm, energies=np.array(NEW_ENERGIES))
    if truncation < 2:
        raise ValueError("truncation must be at least 2")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    # an overflowing series leaves an infinite norm or NaN amplitudes, which
    # the record's unit-norm guard reports; numpy need not warn on the way
    with np.errstate(over="ignore", invalid="ignore"):
        c = _raw_amplitudes(family, z, alpha, truncation)
        mags = np.abs(c)
        if family == Family.DISPLACEMENT:
            tail = mags[-6:]
            if np.all(np.diff(tail) >= 0) and tail[-1] > 0:
                raise NotNormalizable(
                    f"displacement norm series diverges at |z| = {abs(z):.4g}")
        norm = float(np.linalg.norm(c))
        if mags[-1] > 1e-12 * norm:
            raise TruncationTooSmall(
                f"amplitude at the truncation edge is {mags[-1] / norm:.2e} of the norm")
        return CoherentState(family=family, z=complex(z), alpha=float(alpha),
                             amplitudes=c / norm, norm_constant=1.0 / norm,
                             energies=level_energy(np.arange(truncation)))


# ----------------------------------------------------------------------------
# level windows
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Windows:
    """A family's basis, the levels its uncertainty expectations sum over
    (capped by the truncation) and the levels of the state an entropy scan
    embeds."""

    basis: Basis
    uncertainty_terms: int
    entropy_terms: int

    def uncertainty(self, truncation: int) -> tuple[int, int]:
        """(n_terms, Gauss degree of the rule the operator tables use)."""
        n_terms = min(truncation, self.uncertainty_terms)
        if self.basis == Basis.TRUNCATED:
            return n_terms, 4 * (n_terms - 1) + 16
        return n_terms, 4 * (2 * n_terms + 3) + 32


WINDOWS = {
    **dict.fromkeys((Family.LOWERING, Family.DISPLACEMENT, Family.LIN_LOWERING,
                     Family.LIN_DISPLACEMENT), Windows(Basis.TRUNCATED, 30, 20)),
    Family.SUSY_ISO: Windows(Basis.SUSY_ISO, 48, 32),
    Family.SUSY_NEW: Windows(Basis.SUSY_NEW, 2, 20),
}


def eigen_residual(cs: CoherentState) -> float:
    """Norm of (lowering - z) applied to an eigenstate-type coherent state.

    Defined for the lowering and lin-lowering families (the displacement
    families are not lowering eigenstates).
    """
    a = cs.amplitudes
    if cs.family == Family.LOWERING:
        lowered = ladder_apply("lower", a)
    elif cs.family == Family.LIN_LOWERING:
        lowered = np.zeros_like(a)
        lowered[:-1] = np.sqrt(cs.alpha * np.arange(1, a.size)) * a[1:]
    else:
        raise FamilyMismatch(f"eigen_residual is undefined for family {cs.family}")
    return float(np.linalg.norm(lowered - cs.z * a))


def state_probability(cs: CoherentState, n: int) -> float:
    """Probability of finding the state in level n."""
    if not 0 <= n < cs.amplitudes.size:
        raise IndexOutOfRange(f"level {n} outside truncation {cs.amplitudes.size}")
    return float(abs(cs.amplitudes[n]) ** 2)


def energy_expectation(cs: CoherentState) -> float:
    """<H> = sum_k p_k E_k from the stored amplitudes, summed in level order."""
    p = np.abs(cs.amplitudes) ** 2
    return float(np.cumsum(p * cs.energies)[-1])


def evolve(cs: CoherentState, t: float) -> CoherentState:
    """Phase evolution amplitudes -> e^{-i E_k t} amplitudes.

    For the half-line oscillator's lowering family this equals (up to the
    global phase e^{-i E_0 t}) the state built at z e^{-2 i t}: the family
    is temporally stable.
    """
    return replace(cs, amplitudes=cs.amplitudes * np.exp(-1j * cs.energies * t))


# ----------------------------------------------------------------------------
# resolution-of-identity checks
# ----------------------------------------------------------------------------

def lowering_measure_reference(r: float) -> float:
    """The |z|^2 e^{-|z|} / (8 pi C^2) candidate density for the lowering family.

    Fails the moment test: its diagonal moments come out (2k+3)(2k+2)/4
    instead of 1.  Kept for the documented-deviation check.
    """
    return r * -np.expm1(-2.0 * r) / (16.0 * math.pi)


def lowering_measure_corrected(r: float) -> float:
    """Corrected lowering-family density e^{-|z|} / (2 pi C^2).

    Derived from the moment problem: the diagonal conditions require
    int_0^inf r^{2k+1} h(r) dr = (2k+1)!/(2 pi) with mu = h / C^2, and the
    inverse Mellin transform of Gamma(s) gives h(r) = e^{-r} / (2 pi).
    The C^2 factor is written out via the closed form C^2 = r / sinh r.
    """
    return -np.expm1(-2.0 * r) / (4.0 * math.pi * r)


def iso_measure(r: float) -> float:
    """Flat density 2/pi for the linearised (alpha = 2) displacement family."""
    return 2.0 / math.pi


def identity_resolution_check(family: Family, density: Callable[[float], float],
                              n_max: int = 10, r_max: float = 40.0,
                              truncation: int = 64) -> float:
    """Max deviation |M_nn - 1| of the resolution-of-identity moments.

    density(r) is the full measure mu(z) of a candidate resolution at
    |z| = r; the d^2 z = r dr dphi factors are supplied here.
    M_mn = int d^2 z mu(z) <m|z><z|n>; the phase integral kills all
    off-diagonal entries analytically, so only the radial moments
    M_nn = 2 pi int r mu(r) p_n(r) dr are computed, one adaptive quad per
    level.  The state at each radius is built once per call and shared by
    every level (quad revisits the same nodes level after level).  quad is
    kept, not a fixed panel rule, because the reported deviations are
    quad's own error pattern: a different rule prints different digits.
    Raises TailTooFat when an integrand is still above 1e-8 at r_max.
    """
    # imported here so that loading the package does not pay for scipy.integrate
    from scipy.integrate import quad

    weights_at: dict[float, np.ndarray] = {}

    def level_weights(r: float) -> np.ndarray:
        if r not in weights_at:
            cs = build_cs(family, r, truncation=truncation)
            weights_at[r] = np.abs(cs.amplitudes[: n_max + 1]) ** 2
        return weights_at[r]

    for n in range(n_max + 1):
        tail = 2.0 * math.pi * r_max * density(r_max) * level_weights(r_max)[n]
        if tail > 1e-8:
            raise TailTooFat(
                f"measure integrand at r_max={r_max} is {tail:.2e} for level {n}")

    deviation = 0.0
    for n in range(n_max + 1):
        val, _ = quad(
            lambda r: 2.0 * math.pi * r * density(r) * level_weights(r)[n],
            0.0, r_max, limit=200, epsabs=1e-11, epsrel=1e-11)
        deviation = max(deviation, abs(val - 1.0))
    return deviation
