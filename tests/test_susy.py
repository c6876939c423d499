"""Partner-Hamiltonian construction: seeds, Wronskians, towers, ladders.

The explicit fourth-order model used throughout has factorization
energies (-11/2, -9/2, -7/2, -5/2) with parity pattern (odd, even, odd,
even), two newly created levels at -9/2 and -5/2, and level gap
delta1 = 6 to the half-line tower bottom.
"""

import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial import Polynomial, hermite

from oracles import seed_second_derivative, transformed_eigenfunction_rows
from truncosc.coherent import (
    Family,
    build_cs,
    identity_resolution_check,
    iso_measure,
)
from truncosc.errors import PoleError, SingularWronskian
from truncosc.fock import Basis, level_energy, rows
from truncosc.numerics import gauss_halfline, log_gamma_signed, rising_factorial
from truncosc.susy import (
    _DEN,
    _ETA_NUM,
    _PHI_NEW_NUM,
    DELTA1,
    NEW_ENERGIES,
    Q4_SEED_ASYMMETRY,
    Q4_SEED_ENERGIES,
    Q4_SEEDS,
    SeedSolution,
    _kernel_moment,
    new_measure_check,
    new_norm_constant_closed,
    potential,
    six_factor,
    susy_ladder_action,
    wronskian_potential,
    wronskian_values,
)


GRID = np.linspace(0.1, 6.0, 119)


# ----------------------------------------------------------------------------
# seed solutions
# ----------------------------------------------------------------------------

def test_seed_solves_the_oscillator_equation_at_negative_energy():
    x = np.linspace(0.05, 4.0, 50)
    for eps, nu in ((-5.5, math.inf), (-4.5, 0.0), (-1.3, 0.7), (-2.0, -1.4)):
        s = SeedSolution(eps, nu)
        rows = s.derivatives(x, order=2)
        residual = -0.5 * rows[2] + 0.5 * x * x * rows[0] - eps * rows[0]
        scale = np.max(np.abs(rows[0]))
        assert np.max(np.abs(residual)) < 1e-9 * scale, (eps, nu)


def test_seed_second_derivative_routes_agree():
    x = np.linspace(0.2, 3.0, 30)
    s = SeedSolution(-3.5, math.inf)
    assert np.allclose(s.derivatives(x, order=2)[2],
                       seed_second_derivative(s, x), rtol=1e-10, atol=1e-10)


def test_seed_parity_branches():
    x = np.array([0.4, 1.1])
    odd = SeedSolution(-2.5, math.inf)
    even = SeedSolution(-2.5, 0.0)
    # the odd branch vanishes at the origin like x, the even branch does not
    small = 1e-5
    assert abs(odd.derivatives(np.array([small]), order=0)[0, 0]) < 1e-4
    assert abs(even.derivatives(np.array([small]), order=0)[0, 0] - 1.0) < 1e-4
    # nu = -inf flips the odd branch sign
    flipped = SeedSolution(-2.5, -math.inf)
    assert np.allclose(flipped.derivatives(x, order=0)[0],
                       -odd.derivatives(x, order=0)[0], rtol=1e-12)


def test_seed_gamma_pole_guard():
    # finite nonzero asymmetry hits the gamma-ratio pole when
    # (3 - 2 eps)/4 is a nonpositive integer
    with pytest.raises(PoleError, match="gamma-ratio pole at epsilon=1.5; "):
        SeedSolution(1.5, 1.0)
    # the pure parity branches stay usable at the same energy
    SeedSolution(1.5, 0.0)
    SeedSolution(1.5, math.inf)


@pytest.mark.parametrize("epsilon, nu", [(-5.5, math.nan), (math.nan, 0.0),
                                         (math.nan, math.inf)])
def test_seed_rejects_nan_parameters(epsilon, nu):
    # a NaN nu would silently pick the odd branch (the values of nu = inf),
    # and a NaN epsilon would fail only after the full series budget
    with pytest.raises(ValueError, match="NaN"):
        SeedSolution(epsilon, nu)


def test_seed_derivative_recurrence_consistency():
    # high derivative rows must satisfy u'' = (x^2 - 2 eps) u applied twice
    x = np.linspace(0.3, 2.5, 17)
    s = SeedSolution(-4.5, 0.0)
    rows = s.derivatives(x, order=4)
    lhs = rows[4]
    rhs = (x * x - 2 * s.epsilon) * rows[2] + 4 * x * rows[1] + 2 * rows[0]
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


# ----------------------------------------------------------------------------
# Wronskian route vs the frozen closed form
# ----------------------------------------------------------------------------

def test_wronskian_potential_matches_the_frozen_rational_form():
    v_wronskian = wronskian_potential(Q4_SEEDS, GRID)
    v_closed = potential(GRID)
    assert np.max(np.abs(v_wronskian - v_closed)) < 1e-6


def test_wronskian_is_nodeless_for_the_recovered_parities():
    w, _, _ = wronskian_values(Q4_SEEDS, GRID)
    assert np.all(w != 0)
    assert np.all(np.sign(w) == np.sign(w[0]))


def test_seed_parity_recovery_is_unique():
    # scan all 16 parity assignments: 9 produce a Wronskian node on the
    # working interval, 6 are nodeless but build a different potential,
    # and exactly the recovered pattern (odd, even, odd, even)
    # reproduces the frozen rational form
    import itertools

    v_frozen = potential(GRID)
    matches = []
    for pattern in itertools.product([math.inf, 0.0], repeat=4):
        seeds = tuple(SeedSolution(e, nu)
                      for e, nu in zip(Q4_SEED_ENERGIES, pattern))
        try:
            v = wronskian_potential(seeds, GRID)
        except SingularWronskian:
            continue
        dev = float(np.max(np.abs(v - v_frozen)))
        if dev < 1e-6:
            matches.append(pattern)
        else:
            assert dev > 1.0, f"near-miss potential for parities {pattern}"
    assert matches == [Q4_SEED_ASYMMETRY]


def test_partner_potential_shifts_down_by_four_at_large_x():
    # four seeds push the asymptotic branch to x^2/2 - 4, consistent
    # with the downshifted level set {-9/2, -5/2} + {2k - 5/2}
    x = np.array([8.0, 10.0, 12.0])
    diff = potential(x) - x * x / 2.0
    assert np.all(np.abs(diff + 4.0) < 0.15)
    # the approach is monotone from above
    assert np.all(np.diff(np.abs(diff + 4.0)) < 0)


def test_general_route_matches_the_intertwiner_route():
    # the q+1-order Wronskian quotient and the explicit fourth-order
    # intertwiner build the same functions up to one global constant
    x = np.linspace(0.4, 4.0, 23)
    explicit = rows(Basis.SUSY_ISO, 10, x, weighted=False)[0]
    for n in range(10):
        general = transformed_eigenfunction_rows(Q4_SEEDS, n, x)[0]
        ratio = general / explicit[n]
        assert np.max(np.abs(ratio - ratio[0])) < 1e-8 * abs(ratio[0]), n


# ----------------------------------------------------------------------------
# the frozen partner data from four pseudo-Hermite polynomials
# ----------------------------------------------------------------------------
#
# At the seed energies -n - 1/2 (n = 5, 4, 3, 2) the oscillator equation
# has the solutions h_n(x) e^{x^2/2}, with h_n(x) = i^{-n} H_n(ix); the k-th
# derivative of such a seed is e^{x^2/2} D^k h_n for D = d/dx + x.  Every
# intermediate coefficient below is an integer under 1e11, so the float
# polynomial arithmetic is exact.

SEED_DEGREES = (5, 4, 3, 2)


def _pseudo_hermite(n: int) -> Polynomial:
    # i^{k - n} = (-1)^{(n - k)/2} on the powers x^k that H_n holds
    coef = hermite.herm2poly([0] * n + [1])
    return Polynomial([c * (-1) ** ((n - k) // 2) for k, c in enumerate(coef)])


def _derivative_stack(rows: int) -> list:
    """[D^k h_n for n in SEED_DEGREES] for k = 0 .. rows - 1."""
    stack = [[_pseudo_hermite(n) for n in SEED_DEGREES]]
    while len(stack) < rows:
        stack.append([p.deriv() + Polynomial([0, 1]) * p for p in stack[-1]])
    return stack


def _det(matrix: list) -> Polynomial:
    """Determinant of a square matrix of polynomials, along its first row."""
    if len(matrix) == 1:
        return matrix[0][0]
    total = Polynomial([0])
    for j, entry in enumerate(matrix[0]):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        total = total + (-1) ** j * entry * _det(minor)
    return total


def _coefficients(p: Polynomial) -> np.ndarray:
    return p.trim().coef


def test_seed_wronskian_is_the_frozen_denominator():
    assert np.array_equal(_coefficients(_det(_derivative_stack(4))),
                          12288 * _coefficients(_DEN))


def test_fifth_row_cofactors_are_the_frozen_intertwiner():
    stack = _derivative_stack(5)
    for i in range(4):
        cofactor = (-1) ** i * _det([row for k, row in enumerate(stack) if k != i]) / 12288
        assert np.array_equal(_coefficients(cofactor), _coefficients(_ETA_NUM[i])), i


@pytest.mark.parametrize("dropped, level", [(4, 0), (2, 1)])
def test_three_seed_wronskians_are_the_frozen_bound_states(dropped, level):
    keep = [j for j, n in enumerate(SEED_DEGREES) if n != dropped]
    wronskian = _det([[row[j] for j in keep] for row in _derivative_stack(3)])
    ratio = wronskian(GRID) / _PHI_NEW_NUM[level](GRID)
    assert np.ptp(ratio) < 1e-13 * abs(ratio[0])


# ----------------------------------------------------------------------------
# partner eigenfunctions
# ----------------------------------------------------------------------------

def test_iso_tower_solves_the_partner_hamiltonian():
    v = potential(GRID)
    for n in range(4):
        phi, _, phi2 = rows(Basis.SUSY_ISO, n + 1, GRID, 2, weighted=False)[:, n]
        residual = -0.5 * phi2 + v * phi - (2 * n + 1.5) * phi
        assert np.max(np.abs(residual)) < 1e-8, f"iso level {n}"


def test_new_tower_solves_the_partner_hamiltonian():
    v = potential(GRID)
    for j, energy in enumerate(NEW_ENERGIES):
        phi, _, phi2 = rows(Basis.SUSY_NEW, j + 1, GRID, 2, weighted=False)[:, j]
        residual = -0.5 * phi2 + v * phi - energy * phi
        assert np.max(np.abs(residual)) < 1e-8, f"new level {j}"


def test_partner_levels_are_orthonormal():
    rule = gauss_halfline(degree=120)
    vals = [rows(Basis.SUSY_NEW, j + 1, rule.nodes)[0, j] for j in (0, 1)]
    vals += [rows(Basis.SUSY_ISO, n + 1, rule.nodes)[0, n] for n in range(6)]
    vals = np.array(vals)
    gram = (vals * rule.weights) @ vals.T
    assert np.max(np.abs(gram - np.eye(8))) < 1e-8


def test_weighted_rows_are_the_gaussian_scaled_plain_rows():
    x = np.linspace(0.3, 3.0, 11)
    w = rows(Basis.SUSY_ISO, 3, x, 2)[:, 2]
    plain = rows(Basis.SUSY_ISO, 3, x, 2, weighted=False)[:, 2]
    assert np.allclose(w * np.exp(-x * x / 2.0), plain, rtol=1e-12, atol=1e-12)


def test_frozen_model_constants_are_consistent():
    eps = [s.epsilon for s in Q4_SEEDS]
    assert eps == list(Q4_SEED_ENERGIES)
    assert all(e2 > e1 for e1, e2 in zip(eps, eps[1:])) and eps[-1] < 0.5
    assert len(NEW_ENERGIES) == len(Q4_SEEDS) // 2
    assert np.all(np.diff(NEW_ENERGIES) == 2.0)
    assert DELTA1 == 6.0
    # the frozen denominator has no zero on the working half-line
    assert np.min(_DEN(np.linspace(1e-3, 40.0, 4001))) > 0


# ----------------------------------------------------------------------------
# ladder structure
# ----------------------------------------------------------------------------

def test_linearised_commutator_is_exactly_two():
    # the squared linearised step onto level u is E_u - 3/2, and the
    # infinite partner tower's ladder takes exactly its square root
    for n in range(21):
        assert (level_energy(n + 1) - 1.5) - (level_energy(n) - 1.5) == 2.0
        assert susy_ladder_action(Basis.SUSY_ISO, "raise", n)[0] \
            == math.sqrt(level_energy(n + 1) - 1.5)
    assert level_energy(3) == 7.5


def test_six_factor_on_the_first_excited_level():
    coeff, target = susy_ladder_action(Basis.SUSY_ISO, "lower", 1,
                                       operator="full")
    assert target == 0
    assert coeff == pytest.approx(math.sqrt(8640.0), rel=1e-13)
    assert six_factor(3.5) == pytest.approx(8640.0, rel=1e-13)


def test_ladder_annihilation_points():
    assert susy_ladder_action(Basis.SUSY_ISO, "lower", 0) == (0.0, None)
    assert susy_ladder_action(Basis.SUSY_NEW, "lower", 0) == (0.0, None)
    # raising annihilates the top of the finite tower explicitly
    coeff, target = susy_ladder_action(Basis.SUSY_NEW, "raise",
                                       len(NEW_ENERGIES) - 1)
    assert coeff == 0.0 and target is None
    with pytest.raises(ValueError, match=f"finite tower has {len(NEW_ENERGIES)} levels"):
        susy_ladder_action(Basis.SUSY_NEW, "lower", len(NEW_ENERGIES))


@pytest.mark.parametrize("subspace, steps", [(Basis.SUSY_ISO, 12),
                                             (Basis.SUSY_NEW, len(NEW_ENERGIES) - 1)])
@pytest.mark.parametrize("operator", ["full", "linearized"])
def test_raising_and_lowering_share_one_step_rule(subspace, steps, operator):
    # both directions of the step k <-> k+1 scale by the same coefficient,
    # fixed by the upper level u = k+1: the linearised one squares to
    # E_u - 3/2, i.e. 2u on the infinite tower and 2u - delta1 on the finite
    shift = DELTA1 if subspace == Basis.SUSY_NEW else 0.0
    for k in range(steps):
        up, up_target = susy_ladder_action(subspace, "raise", k, operator)
        down, down_target = susy_ladder_action(subspace, "lower", k + 1, operator)
        assert (up_target, down_target) == (k + 1, k)
        assert up == down
        if operator == "linearized":
            assert up ** 2 == pytest.approx(2.0 * (k + 1) - shift, abs=1e-12)


def test_finite_tower_linearised_step_is_imaginary():
    coeff, target = susy_ladder_action(Basis.SUSY_NEW, "lower", 1)
    assert target == 0
    # principal branch of sqrt(2j - delta1) at j = 1: sqrt(-4) = 2i
    assert coeff == pytest.approx(2.0j, abs=1e-13)


# ----------------------------------------------------------------------------
# coherent states on the towers
# ----------------------------------------------------------------------------

def test_iso_state_amplitudes_are_the_linearised_series():
    z = 0.4 + 0.3j
    cs = build_cs(Family.SUSY_ISO, z, truncation=48)
    raw = np.array([(math.sqrt(2.0) * z) ** n / math.sqrt(math.factorial(n))
                    for n in range(48)])
    raw /= np.linalg.norm(raw)
    assert np.max(np.abs(cs.amplitudes - raw)) < 1e-12
    assert cs.family == Family.SUSY_ISO


def test_iso_mean_energy_is_quadratic_in_the_label():
    from truncosc.coherent import energy_expectation
    for r in (0.3, 0.8, 1.5):
        cs = build_cs(Family.SUSY_ISO, r, truncation=64)
        assert energy_expectation(cs) == pytest.approx(1.5 + 4.0 * r * r, rel=1e-8)


def test_new_state_amplitudes_and_direct_normalization():
    z = 0.7
    cs = build_cs(Family.SUSY_NEW, z)
    assert cs.amplitudes.size == 2
    # amplitudes 1 and sqrt(2) z sqrt((-3)_1) = sqrt(2) z i sqrt(3)
    direct = np.array([1.0, math.sqrt(2.0) * z * 1j * math.sqrt(3.0)])
    direct /= np.linalg.norm(direct)
    assert np.max(np.abs(cs.amplitudes - direct)) < 1e-12
    assert cs.norm_constant == pytest.approx(1.0 / math.sqrt(1.0 + 6.0 * z * z),
                                             rel=1e-12)
    assert np.array_equal(cs.energies, NEW_ENERGIES)


def test_new_closed_norm_series_is_signed():
    # the printed closed form evaluates to 1 - 6|z|^2: it crosses zero at
    # |z| = 1/sqrt(6) and cannot be a squared norm; the constructor uses
    # the direct sum instead (previous test)
    for r in (0.1, 0.3, 0.9):
        val = new_norm_constant_closed(r)
        assert val == pytest.approx(1.0 - 6.0 * r * r, abs=5e-7)
    assert new_norm_constant_closed(0.9) < 0


def test_new_state_level_populations_saturate():
    lo = build_cs(Family.SUSY_NEW, 0.05)
    hi = build_cs(Family.SUSY_NEW, 50.0)
    assert abs(lo.amplitudes[0]) > 0.99
    assert abs(hi.amplitudes[1]) > 0.99


# ----------------------------------------------------------------------------
# measures
# ----------------------------------------------------------------------------

def test_iso_flat_measure_resolves_identity():
    assert identity_resolution_check(Family.SUSY_ISO, iso_measure, n_max=10,
                                     r_max=8.0, truncation=320) < 1e-6


def test_new_measure_defect_is_exactly_two():
    # the finite-tower measure folds to sign((-3)_j) on the diagonal, so
    # the j = 1 moment is -1 and the defect |M_11 - 1| = 2 is structural
    assert new_measure_check() == 2.0


@pytest.mark.parametrize("t", [1e-3, 0.3, 1.0, 5.0, 20.0, 60.0])
def test_radial_kernel_is_a_laguerre_polynomial_times_exp(t):
    # G^{2,0}_{1,2}(t | a1; 0, 0) at the frozen model's a1 = -(delta1 + 2)/2,
    # which _kernel_moment integrates in closed form
    a1 = -(DELTA1 + 2.0) / 2.0
    assert a1 == -4.0
    with mpmath.workdps(30):
        expected = mpmath.meijerg([[], [a1]], [[0, 0], []], t)
        closed = 24 * mpmath.exp(-t) * mpmath.laguerre(4, 0, t)
        assert abs(closed - expected) <= 1e-25 * abs(expected)


def test_kernel_moments_are_exact_and_match_the_gamma_closed_form():
    # int_0^inf t^j G dt = (j!)^2 / Gamma(j - 3): j in 0..3 hit the Gamma
    # poles and integrate to zero, j = 4 and 5 give 576 and 14400; the
    # integrals run over the Laguerre form checked against meijerg above
    moments = [_kernel_moment(j) for j in range(6)]
    assert moments == [0, 0, 0, 0, 576, 14400]
    assert all(isinstance(m, int) for m in moments)
    with mpmath.workdps(30):
        for j, m in enumerate(moments):
            assert m == mpmath.factorial(j) ** 2 * mpmath.rgamma(j - DELTA1 / 2)
            integral = mpmath.quad(
                lambda t: t ** j * 24 * mpmath.exp(-t) * mpmath.laguerre(4, 0, t),
                [0, mpmath.inf])
            assert abs(integral - m) <= 1e-20 * max(1, m)


def test_kernel_moment_spot_value():
    # int t^j G dt = (j!)^2 / Gamma(j - 3): j = 4 gives 576, j in 0..3
    # hit the Gamma poles and integrate to zero
    assert _kernel_moment(4) == 576
    assert _kernel_moment(1) == 0


@pytest.mark.parametrize("a1", [1.5, 0.5, -2.5, -4.0])
@pytest.mark.parametrize("j", [0, 2, 4])
def test_kernel_moments_match_the_gamma_closed_form(a1, j):
    # int_0^inf t^j G(t | a1; 0, 0) dt = Gamma(j + 1)^2 / Gamma(a1 + j + 1),
    # the identity new_measure_check relies on at a1 = -4, checked with
    # log_gamma_signed over non-integer a1 too; G(t) = e^{-t} U(a1, 1, t)
    # is checked against meijerg and integrated in that form
    def kernel(t):
        return mpmath.exp(-t) * mpmath.hyperu(a1, 1, t)

    for t in (0.5, 5.0):
        expected = mpmath.meijerg([[], [a1]], [[0, 0], []], t)
        assert abs(kernel(t) - expected) <= 1e-13 * abs(expected)
    got = float(mpmath.quad(lambda t: t ** j * kernel(t), [0, 1, mpmath.inf]))
    arg = a1 + j + 1
    if arg <= 0 and arg == math.floor(arg):
        expected = 0.0
    else:
        log_gamma, sign = log_gamma_signed(arg)
        expected = math.factorial(j) ** 2 * sign * math.exp(-log_gamma)
    assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))
    if a1 == -(DELTA1 + 2.0) / 2.0:
        assert _kernel_moment(j) == expected


def test_pochhammer_fold_identity():
    # |(-3)_j| / (-3)_j is the only surviving factor in the diagonal
    # moments; check the sign pattern driving the defect above
    signs = [rising_factorial(-3.0, j) for j in range(2)]
    assert signs[0] == 1.0 and signs[1] == -3.0

