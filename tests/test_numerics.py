"""Special functions and half-line quadrature.

Reference values were frozen from mpmath at 30 digits (hypergeometric
series and the Mellin-contour kernel) so the library under test carries
no runtime dependency on it.
"""

import math

import numpy as np
import pytest

from truncosc.errors import DivergenceError, PoleError
from truncosc.numerics import (
    SpecialFunctionConfig,
    adaptive_halfline,
    gauss_halfline,
    hermite_phys,
    hyp1f1,
    hyp2f1_terminating,
    hyp2f2,
    integrate_halfline,
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
    cfg = SpecialFunctionConfig(max_terms=64)
    with pytest.raises(DivergenceError):
        hyp1f1(0.5, 1.5, 500.0, cfg)


def test_config_rejects_unusable_budgets():
    with pytest.raises(ValueError):
        SpecialFunctionConfig(max_terms=10)
    with pytest.raises(ValueError):
        SpecialFunctionConfig(series_tolerance=0.5)


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
    mpmath = pytest.importorskip("mpmath")
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


def test_gauss_halfline_handles_high_degree():
    rule = gauss_halfline(degree=400)
    got = float(np.sum(rule.weights * rule.nodes ** 200))
    expected = 0.5 * math.exp(math.lgamma(100.5))
    assert got == pytest.approx(expected, rel=1e-10)


def test_adaptive_rule_integrates_plain_functions():
    rule = adaptive_halfline(x_max=30.0)
    val = integrate_halfline(lambda x: np.exp(-x), rule)
    assert val == pytest.approx(1.0, rel=1e-10)


def test_adaptive_rule_refines_from_its_own_layout():
    # the refinement used to assume 16 points per panel and returned 9.99855
    rule = adaptive_halfline(x_max=10.0, points_per_panel=8)
    val = integrate_halfline(lambda x: np.ones_like(x), rule)
    assert val == pytest.approx(10.0, abs=1e-12)


def test_integrate_halfline_gauss_kind_folds_the_weight():
    rule = gauss_halfline(degree=40)
    val = integrate_halfline(lambda x: x * x, rule)
    assert val == pytest.approx(math.sqrt(math.pi) / 4.0, rel=1e-12)


# ----------------------------------------------------------------------------
# Hermite recurrence
# ----------------------------------------------------------------------------

def test_hermite_phys_low_orders():
    x = np.linspace(-2.0, 2.0, 9)
    assert np.allclose(hermite_phys(0, x), np.ones_like(x))
    assert np.allclose(hermite_phys(1, x), 2.0 * x)
    assert np.allclose(hermite_phys(2, x), 4.0 * x * x - 2.0)
    assert np.allclose(hermite_phys(3, x), 8.0 * x ** 3 - 12.0 * x)


def test_hermite_phys_three_term_recurrence(rng):
    x = rng.uniform(-3.0, 3.0, size=20)
    for n in range(1, 12):
        lhs = hermite_phys(n + 1, x)
        rhs = 2.0 * x * hermite_phys(n, x) - 2.0 * n * hermite_phys(n - 1, x)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-8)
