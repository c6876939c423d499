"""Special-function kernels and half-line quadrature.

Everything downstream (eigenfunctions, coherent-state norms, measures,
SUSY seeds) is built on the routines here: plain series evaluations of the
hypergeometric family, a signed log-gamma, rising factorials as explicit
products (never gamma quotients), a Mellin-Barnes evaluator for the
G^{2,0}_{1,2} kernel, and a Gauss rule on (0, inf).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sps

from .errors import (
    ContourError,
    DivergenceError,
    NonConvergence,
    PoleError,
)

__all__ = [
    "QuadratureRule",
    "hyp1f1",
    "hyp2f1_terminating",
    "hyp2f2",
    "log_gamma_signed",
    "rising_factorial",
    "meijer_g_2012",
    "gauss_halfline",
    "gauss_halfline_size",
]


# Series stop rule: a relative term size below _SERIES_TOLERANCE twice in a
# row, within a hard budget of _MAX_TERMS terms.  The Mellin-Barnes contour
# runs at Re s = max(1, 1 - a1) + _MELLIN_OFFSET with _MELLIN_NODES
# trapezoid points on Im s in [-60, 60].
_SERIES_TOLERANCE = 1e-15
_MAX_TERMS = 512
_MELLIN_OFFSET = 0.5
_MELLIN_NODES = 2048


def _is_nonpositive_integer(a: float) -> bool:
    return a <= 0 and float(a) == math.floor(a)


def hyp1f1(a: float, b: float, x: float) -> float:
    """Kummer 1F1(a; b; x) by direct series.

    Terminates exactly when a is a nonpositive integer.  Raises PoleError
    when the series runs into b = nonpositive integer first, and
    DivergenceError when the term budget is exhausted or the terms
    overflow (a non-finite total).
    """
    if _is_nonpositive_integer(b) and not (_is_nonpositive_integer(a) and a > b):
        # the (b)_k factor hits zero before the numerator terminates
        raise PoleError(f"1F1 pole: b = {b}")
    term = 1.0
    total = 1.0
    small_run = 0
    for k in range(_MAX_TERMS):
        if a + k == 0.0:
            break
        denom = (b + k) * (k + 1)
        if denom == 0.0:
            raise PoleError(f"1F1 pole: b = {b} reached at term {k + 1}")
        term *= (a + k) * x / denom
        total += term
        if abs(term) <= _SERIES_TOLERANCE * max(1.0, abs(total)):
            small_run += 1
            if small_run >= 2:
                break
        else:
            small_run = 0
    else:
        raise DivergenceError(f"1F1({a}, {b}, {x}) did not converge in {_MAX_TERMS} terms")
    if not math.isfinite(total):
        raise DivergenceError(f"1F1({a}, {b}, {x}) overflows to {total}")
    return total


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


def hyp2f2(a1: float, a2: float, b1: float, b2: float, x: float) -> float:
    """2F2(a1, a2; b1, b2; x) by direct series with the same stop and
    overflow rules as hyp1f1."""
    term = 1.0
    total = 1.0
    small_run = 0
    for k in range(_MAX_TERMS):
        if a1 + k == 0.0 or a2 + k == 0.0:
            break
        denom = (b1 + k) * (b2 + k) * (k + 1)
        if denom == 0.0:
            raise PoleError(f"2F2 pole: denominator parameter reached zero at term {k + 1}")
        term *= (a1 + k) * (a2 + k) * x / denom
        total += term
        if abs(term) <= _SERIES_TOLERANCE * max(1.0, abs(total)):
            small_run += 1
            if small_run >= 2:
                break
        else:
            small_run = 0
    else:
        raise DivergenceError(f"2F2 did not converge in {_MAX_TERMS} terms")
    if not math.isfinite(total):
        raise DivergenceError(f"2F2({a1}, {a2}; {b1}, {b2}; {x}) overflows to {total}")
    return total


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

def meijer_g_2012(a1: float, x, contour_re: float | None = None):
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
        c = max(1.0, 1.0 - a1) + _MELLIN_OFFSET
    t = np.linspace(-60.0, 60.0, _MELLIN_NODES)
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
    """Nodes/weights of the Gauss rule for the weight e^{-x^2} on (0, inf)
    (compared and hashed by identity).  The weight is folded into the
    weights, so sum(w * f(x)) approximates int_0^inf f(x) e^{-x^2} dx."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
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
    return QuadratureRule(nodes=nodes, weights=weights)

