"""Special-function kernels and half-line quadrature.

Everything downstream (eigenfunctions, coherent-state norms, measures,
SUSY seeds) is built on the routines here: plain series evaluations of the
hypergeometric family, a signed log-gamma, rising factorials as explicit
products (never gamma quotients), a Mellin-Barnes evaluator for the
G^{2,0}_{1,2} kernel, and Gauss/adaptive rules on (0, inf).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy import special as sps

from .errors import (
    ContourError,
    DivergenceError,
    NonConvergence,
    PoleError,
)

__all__ = [
    "SpecialFunctionConfig",
    "DEFAULT_CONFIG",
    "QuadratureRule",
    "hermite_phys",
    "hyp1f1",
    "hyp2f1_terminating",
    "hyp2f2",
    "log_gamma_signed",
    "rising_factorial",
    "meijer_g_2012",
    "gauss_halfline",
    "gauss_halfline_size",
    "adaptive_halfline",
    "integrate_halfline",
]


@dataclass(frozen=True)
class SpecialFunctionConfig:
    """Knobs for the series and contour evaluators.

    series_tolerance is a relative stop criterion, max_terms the hard term
    budget.  The Mellin-Barnes contour runs at Re s = max(1, 1 - a1) +
    mellin_contour_offset with mellin_nodes trapezoid points on
    Im s in [-60, 60].
    """

    series_tolerance: float = 1e-15
    max_terms: int = 512
    mellin_contour_offset: float = 0.5
    mellin_nodes: int = 2048

    def __post_init__(self):
        if not (0.0 < self.series_tolerance <= 1e-6):
            raise ValueError("series_tolerance must lie in (0, 1e-6]")
        if self.max_terms < 64:
            raise ValueError("max_terms must be at least 64")
        if self.mellin_nodes < 128:
            raise ValueError("mellin_nodes must be at least 128")


DEFAULT_CONFIG = SpecialFunctionConfig()


def _is_nonpositive_integer(a: float) -> bool:
    return a <= 0 and float(a) == math.floor(a)


def hermite_phys(n: int, x):
    """Physicists' Hermite polynomial H_n(x) by the three-term recurrence.

    Accepts scalar or ndarray x.  Not overflow-protected; for normalized
    oscillator eigenfunctions use fock.hermite_normalized instead.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * x
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h if h.ndim else float(h)


def hyp1f1(a: float, b: float, x: float, config: SpecialFunctionConfig = DEFAULT_CONFIG) -> float:
    """Kummer 1F1(a; b; x) by direct series.

    Terminates exactly when a is a nonpositive integer.  Raises PoleError
    when the series runs into b = nonpositive integer first, and
    DivergenceError when max_terms is exhausted.
    """
    if _is_nonpositive_integer(b) and not (_is_nonpositive_integer(a) and a > b):
        # the (b)_k factor hits zero before the numerator terminates
        raise PoleError(f"1F1 pole: b = {b}")
    term = 1.0
    total = 1.0
    small_run = 0
    for k in range(config.max_terms):
        if a + k == 0.0:
            return total
        denom = (b + k) * (k + 1)
        if denom == 0.0:
            raise PoleError(f"1F1 pole: b = {b} reached at term {k + 1}")
        term *= (a + k) * x / denom
        total += term
        if abs(term) <= config.series_tolerance * max(1.0, abs(total)):
            small_run += 1
            if small_run >= 2:
                return total
        else:
            small_run = 0
    raise DivergenceError(f"1F1({a}, {b}, {x}) did not converge in {config.max_terms} terms")


def hyp2f1_terminating(a: float, b: float, c: float, x: float) -> float:
    """2F1(a, b; c; x) for nonpositive-integer a: the exact finite sum.

    The sum has |a| + 1 terms; no convergence question arises.  Raises
    PoleError if (c)_k vanishes before the series terminates.
    """
    if not _is_nonpositive_integer(a):
        raise ValueError(f"first parameter must be a nonpositive integer, got {a}")
    n_terms = int(round(-a))
    term = 1.0
    total = 1.0
    for k in range(n_terms):
        denom = (c + k) * (k + 1)
        if denom == 0.0:
            raise PoleError(f"2F1 pole: c = {c} reached at term {k + 1}")
        term *= (a + k) * (b + k) * x / denom
        total += term
    return total


def hyp2f2(a1: float, a2: float, b1: float, b2: float, x: float,
           config: SpecialFunctionConfig = DEFAULT_CONFIG) -> float:
    """2F2(a1, a2; b1, b2; x) by direct series with the same stop rules as hyp1f1."""
    term = 1.0
    total = 1.0
    small_run = 0
    for k in range(config.max_terms):
        if a1 + k == 0.0 or a2 + k == 0.0:
            return total
        denom = (b1 + k) * (b2 + k) * (k + 1)
        if denom == 0.0:
            raise PoleError(f"2F2 pole: denominator parameter reached zero at term {k + 1}")
        term *= (a1 + k) * (a2 + k) * x / denom
        total += term
        if abs(term) <= config.series_tolerance * max(1.0, abs(total)):
            small_run += 1
            if small_run >= 2:
                return total
        else:
            small_run = 0
    raise DivergenceError(f"2F2 did not converge in {config.max_terms} terms")


def log_gamma_signed(x: float) -> tuple[float, float]:
    """Return (log|Gamma(x)|, sign(Gamma(x))) for real x off the poles."""
    if _is_nonpositive_integer(x):
        raise PoleError(f"Gamma pole at {x}")
    return float(sps.gammaln(x)), float(sps.gammasgn(x))


def rising_factorial(a: float, j: int) -> float:
    """Rising factorial (a)_j = a (a+1) ... (a+j-1) as an explicit product.

    Exact zeros (a a nonpositive integer with j reaching past it) come out
    as exact 0.0, which gamma-quotient implementations cannot deliver.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    out = 1.0
    for i in range(j):
        out *= a + i
    return out


# ----------------------------------------------------------------------------
# Meijer G^{2,0}_{1,2}(x | a1; 0, 0) via a Mellin-Barnes contour
# ----------------------------------------------------------------------------

def meijer_g_2012(a1: float, x, config: SpecialFunctionConfig = DEFAULT_CONFIG,
                  contour_re: float | None = None):
    """G^{2,0}_{1,2}(x | a1; 0, 0) = (1/2*pi*i) int Gamma(s)^2/Gamma(a1+s) x^{-s} ds.

    The contour is the vertical line Re s = max(1, 1 - a1) + offset,
    truncated at Im s = +-60 and sampled with a trapezoid rule; the
    integrand decays like exp(-pi |Im s|) so the truncation error is far
    below double precision.  Accepts scalar or 1-d array x > 0.

    The integrand is analytic for Re s > 0, so any contour_re > 0 gives
    the same value; pass a small one (e.g. 0.5) when x is tiny, where the
    default line loses digits to the x^{-Re s} factor.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr <= 0):
        raise ValueError("x must be positive")
    if contour_re is not None:
        if contour_re <= 0:
            raise ValueError("contour_re must be positive")
        c = float(contour_re)
    else:
        c = max(1.0, 1.0 - a1) + config.mellin_contour_offset
    t = np.linspace(-60.0, 60.0, config.mellin_nodes)
    s = c + 1j * t
    log_integrand = 2.0 * sps.loggamma(s)[:, None] - sps.loggamma(a1 + s)[:, None] \
        - np.outer(s, np.log(x_arr))
    vals = np.exp(log_integrand)
    peak = np.max(np.abs(vals), axis=0)
    edge = np.maximum(np.abs(vals[0]), np.abs(vals[-1]))
    if np.any(edge > 1e-12 * np.maximum(peak, 1e-300)):
        raise ContourError("Mellin-Barnes integrand has not decayed at Im s = +-60")
    out = np.trapezoid(vals, t, axis=0).real / (2.0 * np.pi)
    return out if np.ndim(x) else float(out[0])


# ----------------------------------------------------------------------------
# Quadrature on (0, inf)
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes/weights for half-line integration (compared and hashed by identity).

    kind "gauss-halfline": Gauss rule for the weight e^{-x^2} on (0, inf);
    the weight is folded into the weights, so sum(w * f(x)) approximates
    int_0^inf f(x) e^{-x^2} dx.  kind "adaptive": composite Gauss-Legendre
    panels on (0, x_max] with no weight folded in; integrate_halfline
    refines the panels until the value settles, starting from the layout
    (x_max, panels, points_per_panel) the rule carries.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    degree: int
    x_max: Optional[float] = None
    panels: Optional[int] = None
    points_per_panel: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("gauss-halfline", "adaptive"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind == "adaptive" and None in (self.x_max, self.panels,
                                                 self.points_per_panel):
            raise ValueError("an adaptive rule needs its panel layout")
        if np.any(self.nodes <= 0) or np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly positive and increasing")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be strictly positive")


@lru_cache(maxsize=8)
def _legendre_nodes(q: int):
    xs, ws = sps.roots_legendre(q)
    return xs, ws


def _panel_rule(edges: np.ndarray, points_per_panel: int):
    """Composite Gauss-Legendre nodes/weights over consecutive edges."""
    xs, ws = _legendre_nodes(points_per_panel)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    half = 0.5 * (hi - lo)
    nodes = (half * (xs[None, :] + 1.0) + lo).ravel()
    weights = (half * ws[None, :]).ravel()
    return nodes, weights


def _halfline_panels(degree: int) -> tuple[float, int]:
    """(x_max, panel count) of the gauss_halfline layout."""
    if degree < 2:
        raise ValueError("degree must be at least 2")
    x_max = 2.0 * math.sqrt(float(degree)) + 10.0
    return x_max, int(math.ceil(x_max / (0.25 * min(1.0, 200.0 / degree))))


def gauss_halfline_size(degree: int) -> int:
    """Upper bound on the node count of gauss_halfline(degree), from its layout:
    24 a panel, none past x = 27.3, where e^{-x^2} underflows to zero."""
    x_max, n_panels = _halfline_panels(degree)
    return 24 * min(n_panels, math.ceil(27.3 * n_panels / x_max))


@lru_cache(maxsize=8)
def gauss_halfline(degree: int = 200) -> QuadratureRule:
    """Rule of exactness parameter `degree` for the weight e^{-x^2} on (0, inf).

    Built as composite Gauss-Legendre panels covering (0, 2 sqrt(degree) + 10]
    with the half-Gaussian weight folded into the weights.  Panel width
    0.25 * (200/degree), 24 points per panel: relative accuracy is at
    machine precision for polynomials well past 2*degree (verified by the
    moment checks in the test suite), and nodes/weights are guaranteed
    positive.  A true half-range Gauss-Christoffel rule of this order
    cannot be assembled stably in double precision: its extreme-node
    weights underflow and their rounding noise poisons high-degree
    integrands, which is why this construction is used instead.
    """
    x_max, n_panels = _halfline_panels(degree)
    edges = np.linspace(0.0, x_max, n_panels + 1)
    nodes, weights = _panel_rule(edges, 24)
    weights = weights * np.exp(-nodes * nodes)
    keep = weights > 0.0
    nodes, weights = nodes[keep], weights[keep]

    mass = float(np.sum(weights))
    if abs(mass - math.sqrt(math.pi) / 2.0) > 1e-12:
        raise NonConvergence(f"half-line rule mass off: {mass}")
    return QuadratureRule(nodes=nodes, weights=weights, kind="gauss-halfline", degree=degree)


def adaptive_halfline(x_max: float = 40.0, panels: int = 64,
                      points_per_panel: int = 16) -> QuadratureRule:
    """Composite Gauss-Legendre panel rule on (0, x_max], refinable."""
    edges = np.linspace(0.0, float(x_max), panels + 1)
    nodes, weights = _panel_rule(edges, points_per_panel)
    return QuadratureRule(nodes=nodes, weights=weights, kind="adaptive", degree=nodes.size,
                          x_max=float(x_max), panels=panels,
                          points_per_panel=points_per_panel)


def _eval_on(f: Callable, x: np.ndarray) -> np.ndarray:
    vals = f(x)
    vals = np.asarray(vals)
    if vals.shape[-1:] != x.shape:
        raise ValueError("integrand must return one value per node (vectorized)")
    return vals


def integrate_halfline(f: Callable, rule: QuadratureRule, *, rtol: float = 1e-10,
                       max_refine: int = 12):
    """Integrate f over (0, inf) with the given rule.

    Gauss kind: returns sum(w f(x)), approximating the integral of
    f(x) e^{-x^2} (the weight is folded into w).  Adaptive kind: integrates
    f itself over (0, x_max], doubling the panel count until the value
    moves by less than rtol (relative), else raises NonConvergence.
    f must be vectorized over the node array; it may return a vector per
    node (shape (..., n_nodes)), in which case a vector is returned.
    """
    if rule.kind == "gauss-halfline":
        vals = _eval_on(f, rule.nodes)
        out = vals @ rule.weights
        return float(out) if np.ndim(out) == 0 else out

    panels = rule.panels
    prev = None
    for _ in range(max_refine):
        edges = np.linspace(0.0, rule.x_max, panels + 1)
        nodes, weights = _panel_rule(edges, rule.points_per_panel)
        vals = _eval_on(f, nodes)
        cur = vals @ weights
        if prev is not None:
            scale = np.max(np.abs(cur)) if np.ndim(cur) else abs(cur)
            diff = np.max(np.abs(cur - prev)) if np.ndim(cur) else abs(cur - prev)
            if diff <= rtol * max(scale, 1e-300):
                return float(cur) if np.ndim(cur) == 0 else cur
        prev = cur
        panels *= 2
    raise NonConvergence("adaptive half-line integration did not settle")
