"""Special functions and half-line quadrature.

Reference values for the hypergeometric series were frozen from mpmath
at 30 digits, and the signed log-gamma is checked against mpmath's
loggamma, so the library under test carries no runtime dependency on it.
"""

import itertools
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.special import roots_legendre

from truncosc import cli, coherent, numerics, susy
from truncosc.errors import DivergenceError, NonConvergence, PoleError
from truncosc.numerics import (
    _legendre_nodes,
    gauss_halfline,
    gauss_halfline_size,
    hyp1f1,
    hyp2f1_terminating,
    hyp2f2,
    log_gamma_signed,
    qag,
    rising_factorial,
)


# ----------------------------------------------------------------------------
# hypergeometric series
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("a, b, x, expected", [
    (0.5, 1.5, 0.3, 1.1096822789280744),
    (-3.0, 1.5, 2.0, -0.40952380952380952),
    (2.5, 0.5, -4.0, 0.11599904629531648),
])
def test_hyp1f1_against_frozen_values(a, b, x, expected):
    assert hyp1f1(a, b, x) == pytest.approx(expected, rel=1e-12)


def test_hyp1f1_terminates_exactly_for_nonpositive_integer_a():
    # 1F1(-2; b; x) = 1 - 2x/b + x^2/(b(b+1)) exactly
    b, x = 0.75, 1.3
    expected = 1.0 - 2.0 * x / b + x * x / (b * (b + 1.0))
    assert hyp1f1(-2.0, b, x) == expected


def test_hyp1f1_pole_in_denominator_parameter():
    with pytest.raises(PoleError):
        hyp1f1(0.5, -2.0, 0.1)


def test_hyp1f1_terminating_series_passes_through_denominator_pole_guard():
    # a = -1 stops the series before (b)_k hits the pole at k = 3
    val = hyp1f1(-1.0, -2.0, 0.5)
    assert val == 1.0 - 0.5 / -2.0


def test_hyp1f1_divergence_error_when_terms_exhausted():
    with pytest.raises(DivergenceError):
        hyp1f1(0.5, 1.5, 500.0)


@pytest.mark.parametrize("series, args", [
    (hyp1f1, (5e307, 0.5, 0.01)),
    (hyp1f1, (1e300, 1.5, 4.0)),
    (hyp2f2, (1e200, 1e200, 1.0, 1.0, 1.0)),
    (hyp2f1_terminating, (-2000, -2000, 0.5, 0.5)),
    (hyp2f2, (1.0, 1.0, 1e-200, 1e-200, 1.0)),  # the bottom product underflows to 0
])
def test_series_whose_terms_overflow_raise_instead_of_returning_inf(series, args):
    # once the total is inf the relative stop rule holds, so the series
    # would otherwise stop and return it; a terminating sum returns it too
    with pytest.raises(DivergenceError):
        series(*args)


@pytest.mark.parametrize("a, b", [
    (0.25, 0.5), (-0.75, 1.5), (-3.0, 2.5), (1.5, 3.5), (5.0, 0.5), (-1.0, -2.0)])
def test_hyp1f1_on_an_array_is_the_scalar_series_bit_for_bit(a, b):
    # x = 0 stops after two zero terms, denormal and tiny x after the first
    # terms; a = -3 and a = -1 terminate; each element keeps its own stop rule
    x = np.array([0.0, 5e-324, 1e-300, 1e-12, 0.3, -4.0, 2.0, 17.5, 40.0, -40.0, 160.0])
    scalar = np.array([hyp1f1(a, b, float(t)) for t in x])
    got = hyp1f1(a, b, x)
    assert got.tobytes() == scalar.tobytes()
    assert hyp1f1(a, b, x.reshape(1, -1)).tobytes() == scalar.tobytes()
    assert type(hyp1f1(a, b, 0.3)) is float


@pytest.mark.parametrize("a, b, bad", [
    (0.5, 1.5, 500.0),   # the term budget runs out
    (5e307, 0.5, 0.01),  # the terms overflow
    (1e300, 1.5, 4.0),
])
def test_hyp1f1_on_an_array_raises_as_its_failing_element_does(a, b, bad):
    with pytest.raises(DivergenceError) as scalar:
        hyp1f1(a, b, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow must not print a RuntimeWarning
        with pytest.raises(DivergenceError) as array:
            hyp1f1(a, b, np.array([0.0, bad, 0.0]))
    assert str(array.value) == str(scalar.value)


@pytest.mark.parametrize("a, b, c, x, expected", [
    (-2.0, 0.5, 1.5, 0.8, 0.59466666666666667),
    (-4.0, 2.0, 0.5, -1.3, 267.63222857142857),
])
def test_hyp2f1_terminating_frozen_values(a, b, c, x, expected):
    assert hyp2f1_terminating(a, b, c, x) == pytest.approx(expected, rel=1e-13)


def test_hyp2f1_terminating_rejects_nonterminating_a():
    with pytest.raises(ValueError):
        hyp2f1_terminating(0.3, 1.0, 2.0, 0.5)


@pytest.mark.parametrize("a1, a2, b1, b2, x, expected", [
    (1.0, 1.0, 2.0, 2.0, 1.0, 1.3179021514544039),
    (0.5, 1.5, 1.0, 2.5, -2.0, 0.62034803771372926),
    (1.5, 2.5, 3.5, 0.5, 0.7, 3.4029103268163156),
])
def test_hyp2f2_frozen_values(a1, a2, b1, b2, x, expected):
    assert hyp2f2(a1, a2, b1, b2, x) == pytest.approx(expected, rel=1e-12)


def test_hyp2f2_pole_in_a_denominator_parameter_at_tiny_x():
    # a tiny x meets the stop rule before (b1)_k reaches zero at k = 3, so a
    # series that only guarded its terms would return 1.0 here
    for args in ((0.5, 0.5, -3.0, 1.0, 1e-20), (0.5, 0.5, 1.0, -3.0, 1e-20)):
        with pytest.raises(PoleError):
            hyp2f2(*args)
    # as in 1F1, a top parameter that terminates the series first is no pole
    assert hyp2f2(-1.0, 0.5, -3.0, 1.0, 1e-20) == 1.0 + (-0.5 * 1e-20) / -3.0


def _plain_2f2(a1, a2, b1, b2, x):
    """2F2 by its series in plain floats, each product taken left to right."""
    term = total = 1.0
    small_run = 0
    for k in range(512):
        if a1 + k == 0.0 or a2 + k == 0.0:
            break
        term *= (a1 + k) * (a2 + k) * x / ((b1 + k) * (b2 + k) * (k + 1))
        total += term
        small_run = small_run + 1 if abs(term) <= 1e-15 * max(1.0, abs(total)) else 0
        if small_run == 2:
            break
    return total


@pytest.mark.parametrize("a1, a2, b1, b2", [
    (1.0, 1.0, 2.0, 2.0), (0.5, 1.5, 1.0, 2.5), (1.5, 2.5, 3.5, 0.5),
    (-2.0, 1.5, 3.0, 0.5), (1.0, -1.0, -2.0, 1.5), (1.0, 2.5, 3.0, 3.0)])
def test_hyp2f2_on_an_array_is_the_scalar_series_bit_for_bit(a1, a2, b1, b2):
    # the same grid of x as for 1F1: zero, denormal and tiny x stop early,
    # a top parameter of -2 or -1 terminates, and each element keeps its
    # own stop rule
    x = np.array([0.0, 5e-324, 1e-300, 1e-12, 0.3, -4.0, 2.0, 17.5, 40.0, -40.0])
    scalar = np.array([hyp2f2(a1, a2, b1, b2, float(t)) for t in x])
    plain = np.array([_plain_2f2(a1, a2, b1, b2, float(t)) for t in x])
    assert scalar.tobytes() == plain.tobytes()
    assert hyp2f2(a1, a2, b1, b2, x).tobytes() == scalar.tobytes()
    assert hyp2f2(a1, a2, b1, b2, x.reshape(2, -1)).tobytes() == scalar.tobytes()
    assert type(hyp2f2(a1, a2, b1, b2, 0.3)) is float


@pytest.mark.parametrize("a", [-3.0, -1.5, -0.5, 0.5, 1.25, 3.0])
@pytest.mark.parametrize("b", [0.5, 1.5, 2.5])
def test_hyp1f1_against_mpmath(a, b):
    # worst relative deviation seen on this grid: 4.4e-13 (cancellation at x = -4)
    for x in (-4.0, -0.5, 0.3, 2.0, 10.0, 40.0):
        expected = float(mpmath.hyp1f1(a, b, x))
        assert hyp1f1(a, b, x) == pytest.approx(expected, rel=2e-12), x


@pytest.mark.parametrize("a1", [1.0, 0.5, -2.0])
@pytest.mark.parametrize("a2", [-1.0, 1.5, 2.5])
def test_hyp2f2_against_mpmath(a1, a2):
    # worst relative deviation seen on this grid: 6.6e-15
    for b1 in (3.0, 0.5):
        for b2 in (3.0, 1.5):
            for x in (-2.0, 0.7, 5.0):
                expected = float(mpmath.hyp2f2(a1, a2, b1, b2, x))
                assert hyp2f2(a1, a2, b1, b2, x) == pytest.approx(expected, rel=1e-12)


# ----------------------------------------------------------------------------
# gamma helpers
# ----------------------------------------------------------------------------

def test_log_gamma_signed_positive_axis():
    for x in (0.5, 1.0, 3.7, 12.0):
        lg, sg = log_gamma_signed(x)
        assert sg == 1.0
        assert lg == pytest.approx(math.lgamma(x), rel=1e-14)


def test_log_gamma_signed_alternates_between_negative_poles():
    # Gamma is negative on (-1, 0), positive on (-2, -1), ...
    assert log_gamma_signed(-0.5)[1] == -1.0
    assert log_gamma_signed(-1.5)[1] == 1.0
    assert log_gamma_signed(-2.5)[1] == -1.0


@settings(max_examples=300, deadline=None)
@given(st.floats(-30.0, 200.0).filter(lambda x: not (x <= 0 and x == math.floor(x))))
def test_log_gamma_signed_against_mpmath(x):
    # the real part of mpmath's loggamma is log|Gamma|, its sign is Gamma's;
    # near the roots of log|Gamma| (x = 1, 2 and one in each negative
    # interval) math.lgamma is accurate in absolute terms, hence the unit floor
    with mpmath.workdps(40):
        expected = float(mpmath.loggamma(x).real)
        sign = float(mpmath.sign(mpmath.gamma(x)))
    lg, sg = log_gamma_signed(x)
    assert abs(lg - expected) <= 1e-13 * max(1.0, abs(expected))
    assert sg == sign


def test_log_gamma_signed_raises_on_poles():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            log_gamma_signed(x)


def test_minus_infinity_raises_no_overflow_error():
    # -inf is no pole of its own, so the pole predicate must not floor it;
    # Gamma's poles accumulate there, so log_gamma_signed has no value at it,
    # while 1F1(a; b; x) tends to 1 as b -> -inf
    with pytest.raises(PoleError):
        log_gamma_signed(-math.inf)
    assert hyp1f1(0.5, -math.inf, 0.3) == 1.0
    assert susy._is_nonpositive_integer is numerics._is_nonpositive_integer


def test_rising_factorial_matches_gamma_quotient(rng):
    for _ in range(50):
        a = rng.uniform(0.2, 6.0)
        j = int(rng.integers(0, 9))
        expected = math.exp(math.lgamma(a + j) - math.lgamma(a))
        assert rising_factorial(a, j) == pytest.approx(expected, rel=1e-13)


def test_rising_factorial_recurrence(rng):
    for _ in range(50):
        a = rng.uniform(-8.0, 8.0)
        j = int(rng.integers(0, 10))
        assert rising_factorial(a, j + 1) == pytest.approx(
            rising_factorial(a, j) * (a + j), rel=1e-12, abs=1e-12)


def test_rising_factorial_exact_zero_past_nonpositive_integer():
    assert rising_factorial(-2.0, 4) == 0.0
    assert rising_factorial(-2.0, 3) == (-2.0) * (-1.0) * 0.0
    assert rising_factorial(0.0, 1) == 0.0


def test_rising_factorial_empty_product_is_one():
    assert rising_factorial(-3.7, 0) == 1.0


# ----------------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------------

def test_frozen_legendre_rules_are_scipys_bit_for_bit():
    nodes, weights = _legendre_nodes()
    expected_nodes, expected_weights = roots_legendre(24)
    assert np.array_equal(nodes, expected_nodes)
    assert np.array_equal(weights, expected_weights)


def test_gauss_halfline_reproduces_gamma_moments():
    # int_0^inf x^k e^{-x^2} dx = Gamma((k+1)/2) / 2
    rule = gauss_halfline(degree=60)
    for k in range(0, 40):
        got = float(np.sum(rule.weights * rule.nodes ** k))
        expected = 0.5 * math.exp(math.lgamma((k + 1) / 2.0))
        assert got == pytest.approx(expected, rel=1e-12), f"moment {k}"


@pytest.mark.parametrize("degree", [2, 48, 132, 428, 494, 3000])
def test_gauss_halfline_size_bounds_the_node_count_closely(degree):
    nodes = gauss_halfline(degree).nodes.size
    assert nodes <= gauss_halfline_size(degree) <= 1.01 * nodes + 24


def test_gauss_halfline_hands_out_read_only_arrays():
    rule = gauss_halfline(degree=60)
    for arr in (rule.nodes, rule.weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_gauss_halfline_handles_high_degree():
    rule = gauss_halfline(degree=400)
    got = float(np.sum(rule.weights * rule.nodes ** 200))
    expected = 0.5 * math.exp(math.lgamma(100.5))
    assert got == pytest.approx(expected, rel=1e-10)


# ----------------------------------------------------------------------------
# qag: QUADPACK's QAG, against scipy.integrate.quad and mpmath
# ----------------------------------------------------------------------------

def _bits(*xs):
    return tuple(float(x).hex() for x in xs)


def _quad_outcome(f, a, b, epsabs, epsrel, limit):
    """(value bits, abserr bits, whether quad reports a nonzero ier)."""
    out = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    return (*_bits(*out[:2]), len(out) == 4)  # a fourth item is ier's message


@pytest.mark.parametrize("check", [cli._check_identity_corrected, cli._check_identity_reference,
                                   cli._check_iso_measure])
def test_validate_identity_moments_are_quads_bit_for_bit(monkeypatch, check):
    # every moment integrand of validate's three identity checks, 21 in all:
    # QAGS ends each by plain summation, as qag does, so both return the
    # same bits from the same integrand calls (on the iso measure QAGS
    # bisects the halves of [4, 8] before those of [0, 2])
    calls = []

    def both(f, a, b, epsabs, epsrel, limit):
        seen, seen_by_quad = [], []
        value = numerics.qag(lambda x: seen.append(x) or f(x), a, b, epsabs, epsrel, limit)
        expected = _quad_outcome(lambda x: seen_by_quad.append(x) or f(x),
                                 a, b, epsabs, epsrel, limit)
        calls.append((_bits(value[0]), expected, sorted(seen) == sorted(seen_by_quad)))
        return value

    monkeypatch.setattr(coherent, "qag", both)
    check()
    assert len(calls) == 7
    for (value,), (expected, _, warned), same_abscissae in calls:
        assert value == expected and not warned and same_abscissae


def _kinked(k: float, c: float):
    """sin(kx) e^{-x^2} + |x - c|^(1/2) in floats, and in mpmath."""
    return (lambda x: math.sin(k * x) * math.exp(-x * x) + abs(x - c) ** 0.5,
            lambda x: mpmath.sin(k * x) * mpmath.exp(-x * x) + abs(x - c) ** 0.5)


def test_qag_is_within_its_abserr_of_mpmath_on_smooth_and_kinked_integrands():
    # an independent oracle: mpmath's tanh-sinh on panels of width below
    # 1/k, split at the kink c when it falls inside [-1, 2]
    for k, (c, tol) in itertools.product((0.5, 5.0, 40.0), ((0.3, 1e-11), (1.7, 1.49e-8),
                                                            (3.0, 1e-6))):
        f, f_mp = _kinked(k, c)
        value, abserr = qag(f, -1.0, 2.0, tol, tol, 200)
        with mpmath.workdps(30):
            n = 2 + int(3 * k)
            points = [mpmath.mpf(-1) + mpmath.mpf(3) * i / n for i in range(n + 1)]
            if c < 2.0:
                points.append(mpmath.mpf(c))
            exact = mpmath.quad(f_mp, sorted(points))
        assert abs(value - exact) <= abserr <= max(tol, tol * abs(value))


@pytest.mark.parametrize("f, epsabs, epsrel, limit, ier", [
    (lambda x: math.sin(1.0 / x), 1.49e-8, 1.49e-8, 3, 1),  # subdivision limit
    (math.cos, 1e-300, 0.0, 50, 2),  # tolerance below roundoff
    (lambda x: 1.0 / abs(x - 1.0 / 3.0), 1e-10, 1e-10, 200, 3),  # bad point
    (lambda x: x ** -0.95 * math.log(x), 1e-13, 1e-13, 200, 4),  # extrapolation stalls
    (lambda x: x ** -1.5, 1.49e-8, 1.49e-8, 50, 5),  # divergent
])
def test_qags_raises_where_quad_only_warns(f, epsabs, epsrel, limit, ier):
    # ier is the code quad's QAGS warns with.  qag knows 1 to 3 alone: it
    # raises those with quad's estimate, and raises one of them on the
    # endpoint singularities where QAGS extrapolates (4 and 5)
    with pytest.warns(IntegrationWarning):
        quad(f, 0.0, 1.0, epsabs=epsabs, epsrel=epsrel, limit=limit)
    with pytest.raises(NonConvergence, match=r"^qag on \[0\.0, 1\.0\] did not converge: "
                                             r"ier [123], ") as raised:
        qag(f, 0.0, 1.0, epsabs, epsrel, limit)
    if ier <= 3:
        assert f"ier {ier}, {numerics._QAG_FAILURES[ier]};" in str(raised.value)
        # the message ends with the estimate and its abserr in repr
        found = re.search(r"estimate (\S+) with abserr (\S+)$", str(raised.value))
        assert (*_bits(*found.groups()), True) == _quad_outcome(f, 0.0, 1.0, epsabs, epsrel, limit)


def test_qags_rejects_what_quad_rejects():
    with pytest.raises(ValueError):
        quad(math.cos, 0.0, 1.0, epsabs=0.0, epsrel=1e-20)
    with pytest.raises(ValueError):
        qag(math.cos, 0.0, 1.0, 0.0, 1e-20, 50)
    with pytest.raises(ValueError):
        qag(math.cos, 0.0, 1.0, 1e-8, 1e-8, 0)


def test_kronrod_abscissae_are_the_ones_quad_evaluates():
    # one panel on [-1, 1], whose abscissae are exactly -x, +x for each
    # Kronrod node x
    seen = {"quad": [], "qag": []}
    quad(lambda x: seen["quad"].append(x) or 1.0, -1.0, 1.0, limit=1, full_output=1)
    with pytest.raises(NonConvergence):  # limit 1 is ier 1
        qag(lambda x: seen["qag"].append(x) or 1.0, -1.0, 1.0, 1.49e-8, 1.49e-8, 1)
    assert _bits(*seen["qag"]) == _bits(*seen["quad"])
    order = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)  # after the centre: Gauss pairs, other pairs
    expected = [0.0] + [s * numerics._XGK[j] for j in order for s in (-1.0, 1.0)]
    assert _bits(*seen["quad"]) == _bits(*expected)


@pytest.mark.parametrize("j", range(11))
def test_kronrod_weights_are_quads_from_indicator_integrands(j):
    # 1 at the node x_j and 0 elsewhere: the panel sum is w_j exactly
    x_j = numerics._XGK[j]
    value = quad(lambda x: 1.0 if x == x_j else 0.0, -1.0, 1.0, limit=1,
                 full_output=1)[0]
    assert _bits(numerics._WGK[j]) == _bits(value)


def test_gauss_weights_are_mpmaths_legendre_rule():
    # the 10-point Gauss nodes are the Kronrod abscissae of even 1-based
    # index; w = 2 / ((1 - x^2) P10'(x)^2) at 40 digits, rounded to double
    with mpmath.workdps(40):
        for i, x0 in enumerate(numerics._XGK[1::2]):
            x = mpmath.findroot(lambda t: mpmath.legendre(10, t), mpmath.mpf(x0))
            slope = 10 * (x * mpmath.legendre(10, x) - mpmath.legendre(9, x)) / (x * x - 1)
            assert float(x) == x0
            assert float(2 / ((1 - x * x) * slope ** 2)) == numerics._WG[i]
