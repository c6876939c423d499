"""Partner-Hamiltonian construction: seeds, Wronskians, towers, ladders.

The explicit fourth-order model used throughout has factorization
energies (-11/2, -9/2, -7/2, -5/2) with parity pattern (odd, even, odd,
even), two newly created levels at -9/2 and -5/2, and level gap
delta1 = 6 to the half-line tower bottom.
"""

import math

import numpy as np
import pytest

from truncosc.coherent import (
    Family,
    build_cs,
    identity_resolution_check,
    iso_measure,
)
from truncosc.errors import GammaPole, IndexOutOfRange, SingularWronskian
from truncosc.fock import Basis, level_energy, rows
from truncosc.numerics import gauss_halfline, rising_factorial
from truncosc.susy import (
    _DEN,
    DELTA1,
    NEW_ENERGIES,
    Q4_SEED_ASYMMETRY,
    Q4_SEED_ENERGIES,
    Q4_SEEDS,
    SeedSolution,
    g_moment,
    new_measure_check,
    new_norm_constant_closed,
    potential,
    six_factor,
    susy_ladder_action,
    transformed_eigenfunction_rows,
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
                       s.second_derivative_direct(x), rtol=1e-10, atol=1e-10)


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
    with pytest.raises(GammaPole):
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
    with pytest.raises(IndexOutOfRange):
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
    assert new_measure_check(n_max=4) == 2.0


@pytest.mark.parametrize("n_max", [-1, 6, 50])
def test_new_measure_check_rejects_moments_outside_its_verified_range(n_max):
    # the kernel rule's cut tail is verified for moments 0..5 only, so any
    # other n_max must fail loudly rather than be clipped
    with pytest.raises(ValueError, match=r"0\.\.5"):
        new_measure_check(n_max=n_max)


def test_kernel_moment_spot_value():
    # int t^j G dt = (j!)^2 / Gamma(j - 3): j = 4 gives 576, j in 0..3
    # hit the Gamma poles and integrate to zero
    assert g_moment(4, -4.0) == pytest.approx(576.0, rel=1e-4)
    assert abs(g_moment(1, -4.0)) < 1e-4


@pytest.mark.parametrize("a1", [1.5, 0.5, -2.5, -4.0])
@pytest.mark.parametrize("j", [0, 2, 4])
def test_kernel_moments_match_the_gamma_closed_form(a1, j):
    # int_0^inf t^j G(t | a1; 0, 0) dt = Gamma(j + 1)^2 / Gamma(a1 + j + 1);
    # the tail beyond t = 800 is below exp(-56)
    got = g_moment(j, a1, t_max=800.0)
    arg = a1 + j + 1
    if arg <= 0 and arg == math.floor(arg):
        assert abs(got) <= 1e-10
    else:
        expected = math.gamma(j + 1) ** 2 / math.gamma(arg)
        assert got == pytest.approx(expected, rel=1e-6)


def test_pochhammer_fold_identity():
    # |(-3)_j| / (-3)_j is the only surviving factor in the diagonal
    # moments; check the sign pattern driving the defect above
    signs = [rising_factorial(-3.0, j) for j in range(2)]
    assert signs[0] == 1.0 and signs[1] == -3.0

