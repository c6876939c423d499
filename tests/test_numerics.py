"""Special functions and half-line quadrature.

Reference values were frozen from mpmath at 30 digits (hypergeometric
series and the Mellin-contour kernel) so the library under test carries
no runtime dependency on it.
"""

import math

import mpmath
import numpy as np
import pytest

from truncosc.errors import DivergenceError, PoleError
from truncosc.numerics import (
    gauss_halfline,
    gauss_halfline_size,
    hyp1f1,
    hyp2f1_terminating,
    hyp2f2,
    log_gamma_signed,
    meijer_g_2012,
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
])
def test_series_whose_terms_overflow_raise_instead_of_returning_inf(series, args):
    # once the total is inf the relative stop rule holds, so the series
    # would otherwise stop and return it
    with pytest.raises(DivergenceError):
        series(*args)


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


def test_log_gamma_signed_raises_on_poles():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            log_gamma_signed(x)


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
# Mellin-contour kernel
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("a1, x, expected", [
    (0.5, 0.2, 1.2390183634877017),
    (0.5, 1.0, 0.31633461646192366),
    (1.5, 0.4, 0.50201061941261121),
    (2.0, 2.0, 0.011366248887570667),
])
def test_meijer_kernel_frozen_values(a1, x, expected):
    assert meijer_g_2012(a1, x) == pytest.approx(expected, rel=1e-10)


def test_meijer_kernel_vectorizes_over_x():
    xs = np.array([0.2, 0.5, 1.0])
    vals = meijer_g_2012(0.5, xs)
    assert np.asarray(vals).shape == (3,)
    assert vals[0] == pytest.approx(meijer_g_2012(0.5, 0.2), rel=1e-12)


@pytest.mark.parametrize("a1", [1.5, 0.5, -2.5, -4.0])
@pytest.mark.parametrize("x,contour_re", [
    (1e-6, 0.6), (1e-3, 0.6), (0.3, 0.6), (1.0, None), (5.0, None), (20.0, None)])
def test_meijer_kernel_against_mpmath(a1, x, contour_re):
    # the kernel rule evaluates t <= 1 on the low contour and t >= 1 on the
    # default one; absolute noise of the default contour sits near 1e-19
    expected = float(mpmath.meijerg([[], [a1]], [[0, 0], []], x))
    got = meijer_g_2012(a1, x, contour_re=contour_re)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-18)


def test_meijer_kernel_contour_shift_is_benign():
    # the integrand is analytic between the two verticals, so the value
    # must not depend on the contour choice
    v1 = meijer_g_2012(1.5, 0.7)
    v2 = meijer_g_2012(1.5, 0.7, contour_re=2.5)
    assert v1 == pytest.approx(v2, rel=1e-9)


# ----------------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------------

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


def test_gauss_halfline_handles_high_degree():
    rule = gauss_halfline(degree=400)
    got = float(np.sum(rule.weights * rule.nodes ** 200))
    expected = 0.5 * math.exp(math.lgamma(100.5))
    assert got == pytest.approx(expected, rel=1e-10)
