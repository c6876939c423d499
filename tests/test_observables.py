"""Position/momentum matrix elements, tables, and uncertainty scans."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from truncosc.coherent import CoherentState, Family, build_cs
from truncosc.errors import DivergenceError, TruncationTooSmall
from truncosc.fock import Basis
from truncosc.observables import (
    MatrixElementTable,
    ObservableKind,
    build_table,
    discrepancy_report,
    expectation,
    matrix_element_closed,
    matrix_element_quadrature,
    uncertainty_scan,
)




# ----------------------------------------------------------------------------
# single matrix elements
# ----------------------------------------------------------------------------

def test_spot_values_on_the_ground_level():
    assert matrix_element_closed(ObservableKind.X, 0, 0) == pytest.approx(
        2.0 / math.sqrt(math.pi), rel=1e-12)
    assert matrix_element_closed(ObservableKind.X2, 0, 0) == pytest.approx(1.5, rel=1e-12)
    assert matrix_element_quadrature(ObservableKind.P2, 0, 0) == pytest.approx(1.5, rel=1e-10)
    for n in range(5):
        assert abs(matrix_element_quadrature(ObservableKind.P, n, n)) < 1e-12


@pytest.mark.parametrize("kind", [ObservableKind.X, ObservableKind.P])
def test_closed_forms_match_quadrature(kind):
    for n in range(6):
        for m in range(n + 1):
            closed = matrix_element_closed(kind, n, m)
            quad = matrix_element_quadrature(kind, n, m)
            assert closed == pytest.approx(quad, rel=1e-8, abs=1e-10), (kind, n, m)


def _mp_level(k, mpmath):
    """sqrt(2) psi^HO_{2k+1} and its slope, from the explicit Hermite sum."""
    n = 2 * k + 1
    f = mpmath.factorial
    coeffs = [mpmath.mpf(0)] * (n + 1)  # H_n, highest power first
    for j in range(n // 2 + 1):
        coeffs[2 * j] = (-1) ** j * f(n) * 2 ** (n - 2 * j) / (f(j) * f(n - 2 * j))
    slope = [c * (n - i) for i, c in enumerate(coeffs[:-1])]
    norm = mpmath.sqrt(2) / mpmath.sqrt(2 ** n * f(n) * mpmath.sqrt(mpmath.pi))

    def value(x):
        return norm * mpmath.polyval(coeffs, x) * mpmath.exp(-x * x / 2)

    def derivative(x):
        return norm * (mpmath.polyval(slope, x) - x * mpmath.polyval(coeffs, x)) \
            * mpmath.exp(-x * x / 2)

    return value, derivative


def test_closed_forms_match_mpmath_integrals():
    # independent of the package's rows and rules: mpmath.quad on (0, inf);
    # the worst deviation seen is 7.9e-11, on the vanishing P[8, 8]
    levels = [_mp_level(k, mpmath) for k in range(9)]
    with mpmath.workdps(15):
        for n in range(9):
            fn = levels[n][0]
            for m in range(n + 1):
                fm, dm = levels[m]
                x = mpmath.quad(lambda t: fn(t) * t * fm(t), [0, mpmath.inf])
                p = -1j * complex(mpmath.quad(lambda t: fn(t) * dm(t), [0, mpmath.inf]))
                assert abs(matrix_element_closed(ObservableKind.X, n, m) - float(x)) < 1e-9
                assert abs(matrix_element_closed(ObservableKind.P, n, m) - p) < 1e-9


def test_closed_elements_whose_2f1_overflows_raise():
    # the 2F1 of <400|x|399> overflows; X and P both read it
    for kind in (ObservableKind.X, ObservableKind.P):
        with pytest.raises(DivergenceError):
            matrix_element_closed(kind, 400, 399)


def test_closed_elements_whose_2f1_cancels_past_rounding_raise():
    # the alternating 2F1 sum loses its digits with no overflow: X(20, 19)
    # would be 9 % off; X(10, 9) and P(9, 9) (exactly 0) still return
    x = matrix_element_quadrature(ObservableKind.X, 10, 9)
    assert matrix_element_closed(ObservableKind.X, 10, 9) == pytest.approx(x, rel=1e-9)
    assert abs(matrix_element_closed(ObservableKind.P, 9, 9)) < 1e-9
    for kind, n, m in ((ObservableKind.P, 10, 10), (ObservableKind.X, 20, 19)):
        with pytest.raises(DivergenceError, match="cancels"):
            matrix_element_closed(kind, n, m)


def test_x2_diagonal_and_first_offdiagonal_closed_forms():
    for n in range(6):
        for m in (n, max(n - 1, 0)):
            closed = matrix_element_closed(ObservableKind.X2, n, m)
            quad = matrix_element_quadrature(ObservableKind.X2, n, m)
            assert closed == pytest.approx(quad, rel=1e-8, abs=1e-10), (n, m)


def test_x2_diagonal_equals_level_energy():
    # virial structure: <x^2>_n = E_n for pure oscillator eigenstates
    for n in range(8):
        assert matrix_element_quadrature(ObservableKind.X2, n, n) == pytest.approx(
            2 * n + 1.5, rel=1e-10)


# ----------------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------------

def test_table_fill_conventions():
    # X and X2 are real symmetric; P stores the directed lower half and
    # fills the upper one with the negative conjugate, leaving a
    # complex-symmetric, purely imaginary matrix
    for kind in (ObservableKind.X, ObservableKind.X2):
        t = build_table(kind, 8)
        assert np.max(np.abs(t.entries.imag)) == 0.0
        assert np.max(np.abs(t.entries - t.entries.T)) < 1e-12
    p = build_table(ObservableKind.P, 8)
    assert np.max(np.abs(p.entries.real)) == 0.0
    assert np.max(np.abs(p.entries + np.conj(p.entries).T)) < 1e-12


def test_tables_the_rule_would_clip_raise_instead():
    # the rule's last node sits near x = 27.19, where e^{-x^2} underflows; at
    # n_max 200 it clipped X2[200, 200] to 262.8 (exact 401.5), so that build
    # raises, as does the single-element oracle.  The builds it admits keep
    # every X2 and P2 diagonal at its exact value 2n + 3/2
    for n_max in (29, 47, 150):
        energy = 2.0 * np.arange(n_max + 1) + 1.5
        for kind in (ObservableKind.X2, ObservableKind.P2):
            diag = np.diagonal(build_table(kind, n_max).entries).real
            assert np.max(np.abs(diag - energy) / energy) < 1e-14, (n_max, kind)
    build_table(ObservableKind.X2, 47, basis=Basis.SUSY_ISO)
    with pytest.raises(TruncationTooSmall, match="the rule would clip level 200, "):
        build_table(ObservableKind.X2, 200)
    with pytest.raises(TruncationTooSmall, match="the rule would clip level 200, "):
        matrix_element_quadrature(ObservableKind.X2, 200, 0)


def test_closed_and_quadrature_sources_agree_for_x_and_p():
    for kind in (ObservableKind.X, ObservableKind.P):
        closed = np.array([[matrix_element_closed(kind, n, m) for m in range(9)]
                           for n in range(9)])
        quad = build_table(kind, 8)
        assert np.max(np.abs(closed - quad.entries)) < 1e-8


def test_discrepancy_report_flags_only_p2_near_diagonal_entries():
    # the printed second-moment closed form disagrees with quadrature on
    # the diagonal and first off-diagonal (17 entries up to n = 8, worst
    # deviation 17); everything else matches, so the report is the whole
    # story and the quadrature table stays authoritative
    rows = discrepancy_report(tol=1e-8)
    assert len(rows) == 17
    assert all(r["kind"] == "P2" for r in rows)
    assert all(abs(r["n"] - r["m"]) <= 1 for r in rows)
    worst = max(abs(r["abs_diff"]) for r in rows)
    assert worst == pytest.approx(17.0, abs=1e-6)
    corner = [r for r in rows if r["n"] == 0 and r["m"] == 0][0]
    assert corner["closed_form"] == pytest.approx(2.5)
    assert corner["quadrature"] == pytest.approx(1.5)
    for key in ("kind", "n", "m", "closed_form", "quadrature", "abs_diff"):
        assert key in rows[0]


# ----------------------------------------------------------------------------
# expectations
# ----------------------------------------------------------------------------

def test_expectation_values_are_real_for_real_labels():
    cs = build_cs(Family.LOWERING, 0.8)
    for kind in (ObservableKind.X, ObservableKind.X2,
                 ObservableKind.P, ObservableKind.P2):
        table = build_table(kind, 20)
        val = expectation(table, cs, 21)
        assert isinstance(val, float)


def test_ground_level_moments_via_expectation():
    # z -> 0 collapses the state onto the bottom level
    cs = build_cs(Family.LOWERING, 1e-8)
    x2 = expectation(build_table(ObservableKind.X2, 10), cs, 11)
    assert x2 == pytest.approx(1.5, rel=1e-8)


def _double_sum(table, cs, n_terms):
    """The defining double sum, term by term: the diagonal, then n > m row by row."""
    c = cs.amplitudes[:n_terms]
    total = 0.0 + 0.0j
    for n in range(n_terms):
        total += (c[n] * np.conj(c[n])) * table.entries[n, n]
    for n in range(1, n_terms):
        for m in range(n):
            total += 2.0 * np.real(c[m] * np.conj(c[n]) * table.entries[n, m])
    return float(total.real)


_ENTRIES = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def _expectation_cases(draw):
    """(table, state, n_terms): a real symmetric X2 table or a complex
    anti-Hermitian P table, up to 3 levels larger than the window, and a
    random unit state whose levels past the window are empty."""
    n_terms = draw(st.integers(2, 48))
    size = n_terms + draw(st.integers(0, 3))
    real = draw(arrays(np.float64, (size, size), elements=_ENTRIES))
    if draw(st.booleans()):
        table = MatrixElementTable(ObservableKind.X2, (real + real.T).astype(complex),
                                   Basis.TRUNCATED)
    else:
        imag = draw(arrays(np.float64, (size, size), elements=_ENTRIES))
        lower = np.tril(real + 1j * imag, -1)
        table = MatrixElementTable(ObservableKind.P, lower - np.conj(lower).T,
                                   Basis.TRUNCATED)
    c = np.zeros(size, dtype=complex)
    c[:n_terms] = draw(arrays(np.complex128, n_terms, elements=st.complex_numbers(
        max_magnitude=1.0, allow_nan=False, allow_infinity=False)))
    norm = np.linalg.norm(c)
    assume(norm > 1e-100)
    state = CoherentState(family=Family.LOWERING, z=0.0, amplitudes=c / norm,
                          norm_constant=1.0, energies=np.zeros(size))
    return table, state, n_terms


@settings(max_examples=60, deadline=None)
@given(case=_expectation_cases())
def test_expectation_is_the_double_sum_bit_for_bit(case):
    table, cs, n_terms = case
    got = expectation(table, cs, n_terms)
    assert np.float64(got).tobytes() == np.float64(_double_sum(table, cs, n_terms)).tobytes()


@pytest.mark.parametrize("kind", list(ObservableKind))
def test_tables_of_nan_are_rejected(kind):
    with pytest.raises(ValueError):
        MatrixElementTable(kind, np.full((3, 3), np.nan), Basis.TRUNCATED)


def test_expectation_rejects_basis_mismatch():
    cs = build_cs(Family.LOWERING, 0.5)
    table = build_table(ObservableKind.X, 10)
    object.__setattr__(table, "basis", Basis.SUSY_ISO)
    with pytest.raises(ValueError, match="table basis .* != state basis "):
        expectation(table, cs, 8)


def test_expectation_refuses_a_window_that_drops_probability():
    table = build_table(ObservableKind.X2, 29)
    # |z| = 3 keeps 2.5e-56 beyond 30 terms; |z| = 25 keeps 1.2e-9 there
    expectation(table, build_cs(Family.LOWERING, 3.0), 30)
    with pytest.raises(TruncationTooSmall):
        expectation(table, build_cs(Family.LOWERING, 25.0), 30)


def test_quadrature_tables_match_single_element_quadrature():
    # the table is on the rule of level 6, each element on that of max(n, m)
    for kind in (ObservableKind.X, ObservableKind.X2, ObservableKind.P, ObservableKind.P2):
        table = build_table(kind, 6)
        for n in range(7):
            for m in range(n + 1):
                assert table.entries[n, m] == pytest.approx(
                    matrix_element_quadrature(kind, n, m), abs=1e-12)


def test_partner_tables_come_from_rows_and_single_elements_do_not():
    table = build_table(ObservableKind.P2, 5, basis=Basis.SUSY_ISO)
    assert table.basis == Basis.SUSY_ISO
    assert np.all(np.diag(table.entries).real > 0.0)
    with pytest.raises(TypeError):
        matrix_element_quadrature(ObservableKind.X, 0, 0, basis=Basis.SUSY_ISO)


# ----------------------------------------------------------------------------
# uncertainty scans
# ----------------------------------------------------------------------------

def test_uncertainty_scan_regression_values():
    recs = uncertainty_scan(Family.LOWERING, [0.25, 1.0, 5.0])
    frozen = {
        0.25: (0.5153110970, 1.1272741642, 0.5808968862),
        1.0: (0.6130770572, 0.9016846929, 0.5528021981),
        5.0: (0.7068952237, 0.7074277489, 0.5000772968),
    }
    for rec in recs:
        sx, sp, prod = frozen[rec.z_modulus]
        assert rec.sigma_x == pytest.approx(sx, abs=1e-9)
        assert rec.sigma_p == pytest.approx(sp, abs=1e-9)
        assert rec.product == pytest.approx(prod, abs=1e-9)


def test_uncertainty_product_respects_the_heisenberg_floor():
    zs = np.linspace(0.05, 5.0, 25)
    recs = uncertainty_scan(Family.LOWERING, zs)
    products = [r.product for r in recs]
    assert min(products) >= 0.5 - 5e-3
    # the product relaxes toward the floor with growing |z|
    assert products[-1] < products[0]


def test_linearised_families_cross_near_unit_modulus():
    rec = uncertainty_scan(Family.LIN_LOWERING, [1.0])[0]
    assert abs(rec.sigma_x - rec.sigma_p) < 0.02
    # and they genuinely cross: sigma_x is the smaller one below, the
    # larger one above
    lo = uncertainty_scan(Family.LIN_LOWERING, [0.5])[0]
    hi = uncertainty_scan(Family.LIN_LOWERING, [1.5])[0]
    assert (lo.sigma_x - lo.sigma_p) * (hi.sigma_x - hi.sigma_p) < 0


def test_cached_quadrature_tables_are_read_only():
    table = build_table(ObservableKind.X, 4)
    assert build_table(ObservableKind.X, 4) is table
    with pytest.raises(ValueError):
        table.entries[0, 0] = 1.0
