"""Coherent-state families over an abstract ladder.

Four families are built here directly:

* "lowering"         -- eigenstates of the lowering operator,
                        amplitudes z^k / sqrt(prod_{j<=k} lower_sq(j)),
* "displacement"     -- displacement-type series with the raising-step
                        weights, amplitudes z^k sqrt(prod raise_sq)/k!,
* "lin-lowering"     -- the linearised ladder (steps sqrt(alpha k)),
                        amplitudes (z/sqrt(alpha))^k / sqrt(k!),
* "lin-displacement" -- same ladder, displacement form,
                        amplitudes (sqrt(alpha) z)^k / sqrt(k!).

For the half-line oscillator, the lowering-family norm constant has the
closed form [sinh|z| / |z|]^{-1/2} and the displacement family exists
only for |z| < 1/2 with norm constant (1 - 4|z|^2)^{3/4}.  Normalization
is always computed from the direct amplitude sum; closed forms are
cross-checks, not inputs.

The SUSY families ("susy-iso", "susy-new") are assembled in the susy
module using the same CoherentState container.  family_state is the one
place that picks a family's constructor, and WINDOWS the one table of the
level windows its scans use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import (
    FamilyMismatch,
    IndexOutOfRange,
    NotNormalizable,
    TailTooFat,
    TruncationTooSmall,
)
from .fock import Basis, FockVector, LadderSpec, ladder_apply, truncated_ladder

__all__ = [
    "Family",
    "CoherentState",
    "Windows",
    "WINDOWS",
    "family_state",
    "Measure",
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

    norm_constant is the realized normalization factor (what multiplies
    the raw series amplitudes), computed from the direct sum.  energies
    carries per-level eigenvalues when no LadderSpec applies (the finite
    SUSY-new tower); otherwise spec.level_energy is used.
    """

    family: Family
    z: complex
    alpha: float
    vector: FockVector
    norm_constant: float
    spec: Optional[LadderSpec] = None
    energies: Optional[tuple[float, ...]] = None

    def level_energy(self, k: int) -> float:
        if self.spec is not None:
            return self.spec.level_energy(k)
        if self.energies is None:
            raise FamilyMismatch("state carries no energy information")
        return self.energies[k]


@dataclass(frozen=True)
class Measure:
    """Radial density of a candidate resolution-of-identity measure.

    radial_density(r) is the full measure mu(z) evaluated at |z| = r
    (the d^2 z = r dr dphi factors are supplied by the checker).
    """

    label: str
    radial_density: Callable[[float], float]


def _raw_amplitudes(family: Family, spec: LadderSpec, z: complex, alpha: float,
                    truncation: int) -> np.ndarray:
    c = np.zeros(truncation, dtype=complex)
    c[0] = 1.0
    for k in range(1, truncation):
        if family == Family.LOWERING:
            step = spec.lower_sq(k)
            if step <= 0:
                raise NotNormalizable(f"lowering step vanishes at k={k}; tower ends")
            c[k] = c[k - 1] * z / math.sqrt(step)
        elif family == Family.DISPLACEMENT:
            c[k] = c[k - 1] * z * math.sqrt(spec.raise_sq(k)) / k
        elif family == Family.LIN_LOWERING:
            c[k] = c[k - 1] * (z / math.sqrt(alpha)) / math.sqrt(k)
        elif family == Family.LIN_DISPLACEMENT:
            c[k] = c[k - 1] * (math.sqrt(alpha) * z) / math.sqrt(k)
        else:
            raise FamilyMismatch(f"build_cs does not construct family {family}")
    return c


def displacement_norm_partial_sums(spec: LadderSpec, r: float, n_terms: int = 80) -> np.ndarray:
    """Partial sums of the displacement-family norm series at |z| = r.

    Outside the convergence radius the partial sums grow without bound;
    this is the diagnostic behind the NotNormalizable error.
    """
    total = 0.0
    term = 1.0
    out = np.empty(n_terms)
    for k in range(n_terms):
        if k > 0:
            term *= (r * r) * spec.raise_sq(k) / (k * k)
        total += term
        out[k] = total
    return out


def build_cs(family: Family, spec: LadderSpec, z: complex, alpha: float = 2.0,
             truncation: int = 64) -> CoherentState:
    """Construct a normalized coherent state of the given family.

    Raises NotNormalizable when the norm series diverges (displacement
    family outside its radius), and TruncationTooSmall when the last kept
    amplitude still carries weight above 1e-12 of the norm.
    """
    if truncation < 2:
        raise ValueError("truncation must be at least 2")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    family = Family(family)
    c = _raw_amplitudes(family, spec, z, alpha, truncation)

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
    vec = FockVector(spec.basis, c / norm)
    return CoherentState(family=family, z=complex(z), alpha=float(alpha),
                         vector=vec, norm_constant=1.0 / norm, spec=spec)


# ----------------------------------------------------------------------------
# family dispatch: each family's state and level windows
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Windows:
    """A family's basis, the levels its uncertainty expectations sum over
    (on a partner tower also capped by the truncation) and the levels of
    the state an entropy scan embeds."""

    basis: Basis
    uncertainty_terms: int
    entropy_terms: int

    def uncertainty(self, truncation: int) -> tuple[int, int]:
        """(n_terms, Gauss degree of the rule the operator tables use)."""
        if self.basis == Basis.TRUNCATED:
            return self.uncertainty_terms, 4 * (self.uncertainty_terms - 1) + 16
        n_terms = min(truncation, self.uncertainty_terms)
        return n_terms, 4 * (2 * n_terms + 3) + 32


WINDOWS = {
    **dict.fromkeys((Family.LOWERING, Family.DISPLACEMENT, Family.LIN_LOWERING,
                     Family.LIN_DISPLACEMENT), Windows(Basis.TRUNCATED, 30, 20)),
    Family.SUSY_ISO: Windows(Basis.SUSY_ISO, 48, 32),
    Family.SUSY_NEW: Windows(Basis.SUSY_NEW, 2, 20),
}


def family_state(family: Family, z: complex, truncation: int = 64) -> CoherentState:
    """The normalized coherent state of any of the six families.

    The four truncated-oscillator families come from build_cs on the
    half-line ladder, the two partner towers from susy.susy_cs on the
    frozen fourth-order model (the finite tower always holds its two
    levels, whatever the truncation).
    """
    family = Family(family)
    basis = WINDOWS[family].basis
    if basis == Basis.TRUNCATED:
        return build_cs(family, truncated_ladder(), z, truncation=truncation)
    from . import susy  # susy builds on this module
    return susy.susy_cs(susy.q4_model(), basis, z, truncation=truncation)


def eigen_residual(cs: CoherentState) -> float:
    """Norm of (lowering - z) applied to an eigenstate-type coherent state.

    Defined for the lowering and lin-lowering families (the displacement
    families are not lowering eigenstates).
    """
    if cs.family == Family.LOWERING:
        lowered = ladder_apply(cs.spec, "lower", cs.vector).amplitudes
    elif cs.family == Family.LIN_LOWERING:
        a = cs.vector.amplitudes
        lowered = np.zeros_like(a)
        for k in range(1, a.size):
            lowered[k - 1] = math.sqrt(cs.alpha * k) * a[k]
    else:
        raise FamilyMismatch(f"eigen_residual is undefined for family {cs.family}")
    return float(np.linalg.norm(lowered - cs.z * cs.vector.amplitudes))


def state_probability(cs: CoherentState, n: int) -> float:
    """Probability of finding the state in level n."""
    if not 0 <= n < cs.vector.truncation:
        raise IndexOutOfRange(f"level {n} outside truncation {cs.vector.truncation}")
    return float(abs(cs.vector.amplitudes[n]) ** 2)


def energy_expectation(cs: CoherentState) -> float:
    """<H> = sum_k p_k E_k from the stored amplitudes."""
    p = np.abs(cs.vector.amplitudes) ** 2
    return float(sum(p[k] * cs.level_energy(k) for k in range(p.size)))


def evolve(cs: CoherentState, t: float) -> CoherentState:
    """Phase evolution amplitudes -> e^{-i E_k t} amplitudes.

    For the half-line oscillator's lowering family this equals (up to the
    global phase e^{-i E_0 t}) the state built at z e^{-2 i t}: the family
    is temporally stable.
    """
    phases = np.array([np.exp(-1j * cs.level_energy(k) * t)
                       for k in range(cs.vector.truncation)])
    vec = FockVector(cs.vector.basis, cs.vector.amplitudes * phases)
    return CoherentState(family=cs.family, z=cs.z, alpha=cs.alpha, vector=vec,
                         norm_constant=cs.norm_constant, spec=cs.spec,
                         energies=cs.energies)


# ----------------------------------------------------------------------------
# resolution-of-identity checks
# ----------------------------------------------------------------------------

def lowering_measure_reference() -> Measure:
    """The |z|^2 e^{-|z|} / (8 pi C^2) candidate density for the lowering family.

    Fails the moment test: its diagonal moments come out (2k+3)(2k+2)/4
    instead of 1.  Kept for the documented-deviation check.
    """
    return Measure("lowering-reference",
                   lambda r: r * -np.expm1(-2.0 * r) / (16.0 * math.pi))


def lowering_measure_corrected() -> Measure:
    """Corrected lowering-family density e^{-|z|} / (2 pi C^2).

    Derived from the moment problem: the diagonal conditions require
    int_0^inf r^{2k+1} h(r) dr = (2k+1)!/(2 pi) with mu = h / C^2, and the
    inverse Mellin transform of Gamma(s) gives h(r) = e^{-r} / (2 pi).
    The C^2 factor is written out via the closed form C^2 = r / sinh r.
    """
    return Measure("lowering-corrected",
                   lambda r: -np.expm1(-2.0 * r) / (4.0 * math.pi * r))


def iso_measure() -> Measure:
    """Flat density 2/pi for the linearised (alpha = 2) displacement family."""
    return Measure("iso-flat", lambda r: 2.0 / math.pi)


def identity_resolution_check(family: Family, spec: LadderSpec, measure: Measure,
                              n_max: int = 10, r_max: float = 40.0,
                              truncation: int = 64) -> float:
    """Max deviation |M_nn - 1| of the resolution-of-identity moments.

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
            cs = build_cs(family, spec, r, truncation=truncation)
            weights_at[r] = np.abs(cs.vector.amplitudes[: n_max + 1]) ** 2
        return weights_at[r]

    for n in range(n_max + 1):
        tail = 2.0 * math.pi * r_max * measure.radial_density(r_max) * level_weights(r_max)[n]
        if tail > 1e-8:
            raise TailTooFat(
                f"measure integrand at r_max={r_max} is {tail:.2e} for level {n}")

    deviation = 0.0
    for n in range(n_max + 1):
        val, _ = quad(
            lambda r: 2.0 * math.pi * r * measure.radial_density(r) * level_weights(r)[n],
            0.0, r_max, limit=200, epsabs=1e-11, epsrel=1e-11)
        deviation = max(deviation, abs(val - 1.0))
    return deviation
