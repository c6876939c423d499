"""Special-function kernels and quadrature.

Everything downstream (eigenfunctions, coherent-state norms, measures,
SUSY seeds) is built on the routines here: plain series evaluations of the
hypergeometric family, a signed log-gamma from math.lgamma, rising
factorials as explicit products (never gamma quotients), a Gauss rule on
(0, inf), and qag, QUADPACK's adaptive QAG ported operation for operation,
which integrates the radial moments of coherent.identity_resolution_check
without loading scipy.  The G^{2,0}_{1,2}
radial kernel of the finite-tower measure needs no evaluator: for the
frozen model it is a Laguerre polynomial times e^{-t}, and
susy.new_measure_check takes its moments exactly.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergenceError, NonConvergence, PoleError

__all__ = [
    "QuadratureRule",
    "hyp1f1",
    "hyp2f1_terminating",
    "hyp2f2",
    "log_gamma_signed",
    "rising_factorial",
    "gauss_halfline",
    "gauss_halfline_size",
    "qag",
]


# Series stop rule: a relative term size below _SERIES_TOLERANCE twice in a
# row, within a hard budget of _MAX_TERMS terms.
_SERIES_TOLERANCE = 1e-15
_MAX_TERMS = 512


def _is_nonpositive_integer(a: float) -> bool:
    return a <= 0 and float(a).is_integer()  # a Gamma pole; never -inf or NaN


def _hypergeometric(tops: tuple, bottoms: tuple, x):
    """pFq(tops; bottoms; x) by direct series, for scalar or array x: term
    k+1 is term k times ((a1+k)(a2+k)...) x / (((b1+k)(b2+k)...)(k+1)),
    each product taken left to right.

    Terminates exactly when a top parameter is a nonpositive integer.
    Raises PoleError, before any term, when the series would reach a
    nonpositive-integer bottom parameter first, and DivergenceError when the
    term budget is exhausted or the terms overflow (a non-finite total).
    Each element of an array x keeps its own stop rule and sees the same
    operations in the same order as a scalar x, so it comes out
    bit-identical; the array raises if any element would, with the message
    of the first such element.  A scalar x returns a float.
    """
    name = f"{len(tops)}F{len(bottoms)}"
    for b in bottoms:  # a pole, unless a top parameter terminates the series first
        if _is_nonpositive_integer(b) and not any(
                _is_nonpositive_integer(a) and a > b for a in tops):
            raise PoleError(f"{name} pole: b = {b}")
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    total = np.ones(flat.size)
    live = np.arange(flat.size)  # elements whose stop rule has not fired
    term = np.ones(flat.size)
    small_run = np.zeros(flat.size, dtype=int)
    # an overflowing term (or a bottom product that underflows to 0) leaves a
    # non-finite total, reported below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(_MAX_TERMS):
            if live.size == 0 or any(a + k == 0.0 for a in tops):
                live = live[:0]  # a terminating series ends every element here
                break
            denom = math.prod(b + k for b in bottoms) * (k + 1)
            term *= math.prod(a + k for a in tops) * flat[live] / denom
            partial = total[live] + term
            total[live] = partial
            small = np.abs(term) <= _SERIES_TOLERANCE * np.fmax(1.0, np.abs(partial))
            small_run = np.where(small, small_run + 1, 0)
            going = small_run < 2
            live, term, small_run = live[going], term[going], small_run[going]
    failed = ~np.isfinite(total)
    failed[live] = True
    if np.any(failed):
        i = int(np.argmax(failed))
        call = f"{name}({', '.join(str(p) for p in (*tops, *bottoms, float(flat[i])))})"
        if i in live:
            raise DivergenceError(f"{call} did not converge in {_MAX_TERMS} terms")
        raise DivergenceError(f"{call} overflows to {float(total[i])}")
    return float(total[0]) if xs.ndim == 0 else total.reshape(xs.shape)


def hyp1f1(a: float, b: float, x):
    """Kummer 1F1(a; b; x) for scalar or array x, by _hypergeometric."""
    return _hypergeometric((a,), (b,), x)


def hyp2f2(a1: float, a2: float, b1: float, b2: float, x):
    """2F2(a1, a2; b1, b2; x) for scalar or array x, by _hypergeometric."""
    return _hypergeometric((a1, a2), (b1, b2), x)


def hyp2f1_terminating(a: float, b: float, c: float, x: float) -> float:
    """2F1(a, b; c; x) for nonpositive-integer a: the exact finite sum.

    The sum has |a| + 1 terms; no convergence question arises.  Raises
    PoleError if (c)_k vanishes before the series terminates, and
    DivergenceError when the terms overflow (a non-finite sum) or cancel
    past the rounding rule sum |t_k| * epsilon > 1e-8 |sum t_k|.
    """
    if not _is_nonpositive_integer(a):
        raise ValueError(f"first parameter must be a nonpositive integer, got {a}")
    n_terms = int(round(-a))
    term = 1.0
    total = 1.0
    size = 1.0  # sum of |t_k|, the scale of the rounding error
    for k in range(n_terms):
        denom = (c + k) * (k + 1)
        if denom == 0.0:
            raise PoleError(f"2F1 pole: c = {c} reached at term {k + 1}")
        term *= (a + k) * (b + k) * x / denom
        total += term
        size += abs(term)
    if not math.isfinite(total):
        raise DivergenceError(f"2F1({a}, {b}, {c}, {x}) overflows to {total}")
    if size * sys.float_info.epsilon > 1e-8 * abs(total):
        raise DivergenceError(f"2F1({a}, {b}, {c}, {x}) = {total:.3g} cancels from {size:.3g}")
    return total


def log_gamma_signed(x: float) -> tuple[float, float]:
    """Return (log|Gamma(x)|, sign(Gamma(x))) for real x off the poles.

    Gamma is negative exactly on the intervals (-1, 0), (-3, -2), ...,
    where floor(x) is odd; its poles accumulate at -inf, which has no value.
    """
    if _is_nonpositive_integer(x) or x == -math.inf:
        raise PoleError(f"Gamma pole at {x}")
    sign = -1.0 if x < 0 and math.floor(x) % 2 else 1.0
    return math.lgamma(x), sign


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
# Quadrature on (0, inf)
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes/weights of the Gauss rule for the weight e^{-x^2} on (0, inf)
    (compared by identity: arrays have no single truth value).  The weight
    is folded into the weights, so sum(w * f(x)) approximates
    int_0^inf f(x) e^{-x^2} dx.
    Its arrays are read-only copies: gauss_halfline's cache hands one rule
    to every caller."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("nodes", "weights"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if np.any(self.nodes <= 0) or np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly positive and increasing")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be strictly positive")


# The 24-point Gauss-Legendre rule on [-1, 1] of gauss_halfline's panels: the
# positive nodes and their weights, exact float literals of
# scipy.special.roots_legendre(24); the rule is exactly symmetric, so the
# negative half is the mirror image.
_LEGENDRE_HALF = (
    (0.06405689286260563, 0.19111886747361626, 0.31504267969616334,
     0.4337935076260452, 0.5454214713888395, 0.6480936519369755,
     0.7401241915785544, 0.820001985973903, 0.8864155270044011,
     0.9382745520027328, 0.9747285559713095, 0.9951872199970213),
    (0.12793819534675197, 0.12583745634682822, 0.12167047292780316,
     0.11550566805372539, 0.10744427011596587, 0.09761865210411405,
     0.08619016153195355, 0.07334648141108017, 0.05929858491543661,
     0.04427743881742018, 0.028531388628932657, 0.012341229799988262))


def _legendre_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the frozen 24-point Gauss-Legendre rule."""
    half_x, half_w = (np.array(v) for v in _LEGENDRE_HALF)
    return np.concatenate((-half_x[::-1], half_x)), np.concatenate((half_w[::-1], half_w))


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
def gauss_halfline(degree: int) -> QuadratureRule:
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
    xs, ws = _legendre_nodes()
    lo = edges[:-1][:, None]
    half = 0.5 * (edges[1:][:, None] - lo)
    nodes = (half * (xs[None, :] + 1.0) + lo).ravel()
    weights = (half * ws[None, :]).ravel() * np.exp(-nodes * nodes)
    keep = weights > 0.0
    nodes, weights = nodes[keep], weights[keep]

    mass = float(np.sum(weights))
    if abs(mass - math.sqrt(math.pi) / 2.0) > 1e-12:
        raise NonConvergence(f"half-line rule mass off: {mass}")
    return QuadratureRule(nodes=nodes, weights=weights)


# ----------------------------------------------------------------------------
# Adaptive quadrature on a finite interval: QUADPACK's QAG
# ----------------------------------------------------------------------------
#
# A scalar port of dqage over dqk21 (R. Piessens, E. de Doncker-Kapenga,
# C. W. Ueberhuber and D. K. Kahaner, QUADPACK, Springer 1983): globally
# adaptive bisection with no extrapolation.  Every floating-point operation
# keeps the published order.

# The 21-point Gauss-Kronrod rule of dqk21 on [-1, 1]: the nonnegative
# Kronrod abscissae in decreasing order (those of even 1-based index are the
# 10-point Gauss nodes, the last is the centre), their Kronrod weights and
# the Gauss weights, the published literals rounded to double.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min

# dqage's ier codes.
_QAG_FAILURES = {
    1: "the subdivision limit was reached",
    2: "roundoff error keeps the requested tolerance out of reach",
    3: "the integrand behaves extremely badly at some point of the interval",
}


def _qk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """dqk21: (result, abserr, resabs, resasc) of the 21-point Kronrod rule
    on [a, b].  f is called once per abscissa, at the centre, then the Gauss
    pairs, then the other Kronrod pairs."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = float(f(centr))
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        absc = hlgth * _XGK[j]
        fval1 = float(f(centr - absc))
        fval2 = float(f(centr + absc))
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, ratio**1.5), without Python's OverflowError for a huge ratio
        ratio = 200.0 * abserr / resasc
        abserr = resasc * (ratio ** 1.5 if ratio < 1.0 else 1.0)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def qag(f, a: float, b: float, epsabs: float, epsrel: float,
        limit: int) -> tuple[float, float]:
    """(value, abserr) of int_a^b f(x) dx by QUADPACK's dqage with the
    21-point Gauss-Kronrod rule, f called as a scalar.

    Bisects the subinterval of largest error estimate (the first in slot
    order on a tie) until the summed estimates are at most
    max(epsabs, epsrel |value|), and returns the sum of the subinterval
    results in slot order with the summed estimates.  Where QAGS never
    extrapolates, as on the radial moments of
    coherent.identity_resolution_check, value is scipy.integrate.quad's
    to the bit.  abserr is QUADPACK's estimate, not a bound: at a kink
    inside a subinterval it can fall short, as QAGS's does.  Endpoint
    singularities, which QAGS meets with Wynn's epsilon extrapolation, are
    outside this contract: there the bisection may stall, and abserr need
    not bound the error.  Raises NonConvergence naming QUADPACK's ier 1 to
    3 and its meaning, and ValueError for an invalid tolerance or limit.
    """
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 5e-29):
        raise ValueError("with epsabs <= 0, epsrel must exceed both 5e-29 "
                         "and 50 machine epsilons")
    ier = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    errbnd = max(epsabs, epsrel * abs(result))
    if abserr <= 50.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return _qag_result(ier, result, abserr, a, b)

    parts = [(a, b, result, abserr)]  # (lower, upper, result, abserr) per subinterval
    maxerr, area, errsum, errmax = 0, result, abserr, abserr
    iroff1 = iroff2 = 0
    for last in range(2, limit + 1):  # last: the subinterval count after this bisection
        a1, b2, rmax, _ = parts[maxerr]
        a2 = b1 = 0.5 * (a1 + b2)
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rmax
        if not (defab1 == error1 or defab2 == error2):
            if abs(rmax - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff2 += 1
        errbnd = max(epsabs, epsrel * abs(area))
        if errsum > errbnd:
            if iroff1 >= 6 or iroff2 >= 20:
                ier = 2
            if last == limit:
                ier = 1
            if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
                ier = 3
        # the half with the larger error takes slot maxerr, the other a new slot
        halves = [(a1, b1, area1, error1), (a2, b2, area2, error2)]
        if error2 > error1:
            halves.reverse()
        parts[maxerr] = halves[0]
        parts.append(halves[1])
        maxerr = max(range(last), key=lambda i: parts[i][3])
        errmax = parts[maxerr][3]
        if ier != 0 or errsum <= errbnd:
            break
    result = 0.0
    for part in parts:  # not sum(), which compensates from Python 3.12 on
        result = result + part[2]
    return _qag_result(ier, result, errsum, a, b)


def _qag_result(ier: int, result: float, abserr: float, a: float,
                b: float) -> tuple[float, float]:
    """(result, abserr) when ier is 0; else NonConvergence naming ier."""
    if ier == 0:
        return result, abserr
    raise NonConvergence(
        f"qag on [{a!r}, {b!r}] did not converge: ier {ier}, {_QAG_FAILURES[ier]}; "
        f"estimate {result!r} with abserr {abserr!r}")
