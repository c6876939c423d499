"""Coherent-state families on the half-line oscillator tower.

Closed-form norm constants used as oracles here:

  lowering        C  = sqrt(r / sinh r)          (norm series sinh(r)/r)
  displacement    C~ = (1 - 4 r^2)^{3/4}          (series 1/(1-4r^2)^{3/2},
                                                   radius 1/2)
  lin-lowering    C  = exp(-r^2 / (2 alpha))
  lin-displacement C = exp(-alpha r^2 / 2)

all obtained by summing the explicit amplitude series in closed form.
"""

import cmath
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from truncosc import coherent
from truncosc.coherent import (
    Family,
    build_cs,
    displacement_norm_partial_sums,
    energy_expectation,
    eigen_residual,
    evolve,
    identity_resolution_check,
    iso_measure,
    lowering_measure_corrected,
    lowering_measure_reference,
    state_probability,
)
from truncosc.errors import (
    FamilyMismatch,
    IndexOutOfRange,
    NotNormalizable,
    TailTooFat,
    TruncOscError,
    TruncationTooSmall,
)
from truncosc.fock import Basis
from truncosc.susy import DELTA1

# ----------------------------------------------------------------------------
# norm constants against closed forms
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("r", [0.1, 0.7, 1.0, 2.0])
def test_lowering_norm_constant_closed_form(r):
    cs = build_cs(Family.LOWERING, r)
    expected = math.sqrt(r / math.sinh(r))
    assert cs.norm_constant == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("r", [0.1, 0.3, 0.45])
def test_displacement_norm_constant_closed_form(r):
    # near the radius the amplitude decay slows to (2r)^k, so r = 0.45
    # needs ~300 levels before the 1e-12 tail guard is satisfied
    cs = build_cs(Family.DISPLACEMENT, r, truncation=320)
    expected = (1.0 - 4.0 * r * r) ** 0.75
    assert cs.norm_constant == pytest.approx(expected, rel=1e-8)


def test_linearised_norm_constants():
    r, alpha = 0.8, 2.0
    low = build_cs(Family.LIN_LOWERING, r, alpha=alpha)
    dis = build_cs(Family.LIN_DISPLACEMENT, r, alpha=alpha)
    assert low.norm_constant == pytest.approx(math.exp(-r * r / (2 * alpha)), rel=1e-12)
    assert dis.norm_constant == pytest.approx(math.exp(-alpha * r * r / 2), rel=1e-12)


def test_states_are_unit_vectors():
    for fam in (Family.LOWERING, Family.DISPLACEMENT,
                Family.LIN_LOWERING, Family.LIN_DISPLACEMENT):
        cs = build_cs(fam, 0.3)
        assert np.linalg.norm(cs.amplitudes) == pytest.approx(1.0, abs=1e-13)
        total = sum(state_probability(cs, n) for n in range(cs.amplitudes.size))
        assert total == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("make", [
    lambda: build_cs(Family.LOWERING, math.nan),
    lambda: build_cs(Family.LIN_LOWERING, 0.3, alpha=math.nan),
    lambda: build_cs(Family.SUSY_NEW, math.nan),
    lambda: evolve(build_cs(Family.LOWERING, 0.5), math.nan),
    # |z| = 1e6 overflows the norm sum, which would leave all-zero amplitudes
    lambda: build_cs(Family.LOWERING, 1e6),
], ids=["nan-label", "nan-alpha", "nan-partner-label", "nan-time", "overflow"])
def test_states_that_are_not_finite_unit_vectors_are_rejected(make):
    with np.errstate(all="ignore"):
        with pytest.raises(NotNormalizable):
            make()


def test_a_state_record_holds_one_unit_vector_over_its_family_basis():
    cs = build_cs(Family.LOWERING, 0.5)
    assert cs.basis == Basis.TRUNCATED
    with pytest.raises(NotNormalizable):
        replace(cs, amplitudes=np.eye(2) / math.sqrt(2.0))
    with pytest.raises(NotNormalizable):
        replace(cs, amplitudes=2.0 * cs.amplitudes)


# Each family's amplitude k at alpha = 2 as an mpmath closed form, and the
# largest |z| drawn for it: the displacement disk ends at 1/2, and the other
# families hold their state within 200 levels well past the values used.
AMPLITUDE_CLOSED_FORMS = {
    Family.LOWERING: (lambda z, k: z ** k / mp.sqrt(mp.factorial(2 * k + 1)), 6.0),
    Family.DISPLACEMENT: (lambda z, k: z ** k * mp.sqrt(mp.factorial(2 * k + 1))
                          / mp.factorial(k), 0.4),
    Family.LIN_LOWERING: (lambda z, k: (z / mp.sqrt(2)) ** k / mp.sqrt(mp.factorial(k)), 4.0),
    Family.LIN_DISPLACEMENT: (lambda z, k: (mp.sqrt(2) * z) ** k
                              / mp.sqrt(mp.factorial(k)), 2.0),
}


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(list(AMPLITUDE_CLOSED_FORMS)), reach=st.floats(0.0, 1.0),
       angle=st.floats(-math.pi, math.pi), truncation=st.integers(2, 200))
def test_amplitudes_match_the_normalized_closed_forms(family, reach, angle, truncation):
    closed_form, r_max = AMPLITUDE_CLOSED_FORMS[family]
    z = cmath.rect(reach * r_max, angle)
    try:
        cs = build_cs(family, z, alpha=2.0, truncation=truncation)
    except TruncationTooSmall:
        assume(False)
    with mp.workdps(40):
        raw = [closed_form(mp.mpc(z), k) for k in range(truncation)]
        norm = mp.sqrt(mp.fsum(abs(c) ** 2 for c in raw))
        expected = np.array([complex(c / norm) for c in raw])
    # amplitudes below 1e-290 sit near the end of the double range, where
    # relative precision runs out; there both sides only need to be tiny
    error = np.abs(cs.amplitudes - expected)
    assert np.all(error <= 1e-12 * np.abs(expected) + 1e-290)


# ----------------------------------------------------------------------------
# eigenrelation and divergence behaviour
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("z", [0.25, 1.0, 2.0, 0.3 + 0.4j, -1.2 + 0.5j])
def test_lowering_states_are_ladder_eigenstates(z):
    cs = build_cs(Family.LOWERING, z)
    assert eigen_residual(cs) < 1e-10


def test_lin_lowering_states_satisfy_deformed_eigenrelation():
    cs = build_cs(Family.LIN_LOWERING, 0.9 + 0.2j)
    assert eigen_residual(cs) < 1e-10


def test_eigen_residual_rejects_displacement_families():
    cs = build_cs(Family.DISPLACEMENT, 0.2)
    with pytest.raises(FamilyMismatch):
        eigen_residual(cs)


def test_displacement_family_diverges_outside_its_radius():
    with pytest.raises(NotNormalizable):
        build_cs(Family.DISPLACEMENT, 0.6, truncation=128)


def test_displacement_partial_sums_blow_up_at_r_06():
    sums = displacement_norm_partial_sums(0.6, n_terms=80)
    assert sums[-1] > 1e6
    assert np.all(np.diff(sums) > 0)


def test_displacement_partial_sums_converge_inside_the_radius():
    sums = displacement_norm_partial_sums(0.3, n_terms=80)
    expected = (1.0 - 4.0 * 0.09) ** -1.5
    assert sums[-1] == pytest.approx(expected, rel=1e-10)


def test_truncation_guard_fires_when_the_tail_is_heavy():
    with pytest.raises(TruncationTooSmall):
        build_cs(Family.LOWERING, 6.0, truncation=16)


def test_build_cs_input_validation():
    with pytest.raises(ValueError):
        build_cs(Family.LOWERING, 0.5, truncation=1)
    with pytest.raises(ValueError):
        build_cs(Family.LIN_LOWERING, 0.5, alpha=0.0)
    # the partner towers exist at alpha = 2 only
    with pytest.raises(ValueError):
        build_cs(Family.SUSY_ISO, 0.5, alpha=3.0)


# ----------------------------------------------------------------------------
# energy and time evolution
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("r", [0.4, 1.1, 2.5])
def test_lowering_mean_energy_closed_form(r):
    cs = build_cs(Family.LOWERING, r)
    expected = 0.5 + r / math.tanh(r)
    assert energy_expectation(cs) == pytest.approx(expected, rel=1e-10)


def test_lin_displacement_mean_energy_closed_form():
    # Poisson level statistics with mean alpha r^2: <H> = 2 alpha r^2 + 3/2
    r, alpha = 0.6, 2.0
    cs = build_cs(Family.LIN_DISPLACEMENT, r, alpha=alpha)
    assert energy_expectation(cs) == pytest.approx(2 * alpha * r * r + 1.5, rel=1e-10)


def test_evolution_preserves_level_populations():
    cs = build_cs(Family.LOWERING, 1.2)
    moved = evolve(cs, 0.37)
    assert np.allclose(np.abs(moved.amplitudes),
                       np.abs(cs.amplitudes), rtol=0, atol=1e-14)


def test_evolution_revives_after_half_period():
    # level spacing 2 means t = pi restores the state up to a global phase
    cs = build_cs(Family.LOWERING, 1.2)
    out = evolve(cs, math.pi)
    overlap = np.vdot(cs.amplitudes, out.amplitudes)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)
    assert abs(overlap - cmath.exp(-1.5j * math.pi)) < 1e-12


def test_evolution_dephases_between_revivals():
    cs = build_cs(Family.LOWERING, 1.2)
    out = evolve(cs, math.pi / 3.0)
    overlap = abs(np.vdot(cs.amplitudes, out.amplitudes))
    assert overlap < 0.999


def test_evolved_lowering_state_tracks_the_rotated_label():
    # temporal stability: evolve(z, t) matches the state built at z e^{-2it}
    z, t = 0.9, 0.8
    moved = evolve(build_cs(Family.LOWERING, z), t)
    rebuilt = build_cs(Family.LOWERING, z * cmath.exp(-2j * t))
    phase = cmath.exp(-1.5j * t)
    assert np.allclose(moved.amplitudes,
                       phase * rebuilt.amplitudes, atol=1e-12)


def test_state_probability_bounds_check():
    cs = build_cs(Family.LOWERING, 0.5, truncation=16)
    with pytest.raises(IndexOutOfRange):
        state_probability(cs, 16)


# ----------------------------------------------------------------------------
# resolution of identity
# ----------------------------------------------------------------------------

def test_corrected_lowering_measure_resolves_identity():
    dev = identity_resolution_check(
        Family.LOWERING, lowering_measure_corrected,
        n_max=6, r_max=60.0, truncation=128)
    assert dev < 1e-6


def test_reference_lowering_measure_deviation_is_large():
    # moments come out (2k+3)(2k+2)/4, so level 6 deviates by ~55
    dev = identity_resolution_check(
        Family.LOWERING, lowering_measure_reference,
        n_max=6, r_max=60.0, truncation=128)
    assert dev == pytest.approx((2 * 6 + 3) * (2 * 6 + 2) / 4.0 - 1.0, rel=1e-6)


def test_identity_check_builds_each_radius_once(monkeypatch):
    radii = []

    def counting_build_cs(family, z, **kwargs):
        radii.append(z)
        return build_cs(family, z, **kwargs)

    monkeypatch.setattr(coherent, "build_cs", counting_build_cs)
    dev = identity_resolution_check(
        Family.LOWERING, lowering_measure_corrected,
        n_max=6, r_max=60.0, truncation=128)
    assert dev < 1e-6
    assert radii and len(radii) == len(set(radii))


def test_tail_guard_rejects_short_integration_ranges():
    with pytest.raises(TailTooFat):
        identity_resolution_check(
            Family.LOWERING, lowering_measure_corrected,
            n_max=10, r_max=10.0, truncation=64)


def test_flat_measure_density_value():
    assert iso_measure(3.3) == pytest.approx(2.0 / math.pi)


def test_measure_density_factories_are_distinct():
    # corrected = reference * 4/r^2: they agree only at r = 2 and the
    # reference grows linearly while the correction decays
    ref = lowering_measure_reference
    cor = lowering_measure_corrected
    for r in (0.5, 2.0, 10.0):
        assert ref(r) > 0
        assert cor(r) > 0
    assert ref(2.0) == pytest.approx(cor(2.0), rel=1e-12)
    assert ref(8.0) > 10.0 * cor(8.0)


# ----------------------------------------------------------------------------
# partner towers and level windows
# ----------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(r=st.floats(0.0, 2.0), angle=st.floats(-math.pi, math.pi),
       truncation=st.integers(2, 128))
def test_susy_iso_state_is_the_lin_displacement_series(r, angle, truncation):
    z = cmath.rect(r, angle)
    try:
        series = build_cs(Family.LIN_DISPLACEMENT, z, alpha=2.0, truncation=truncation)
    except TruncationTooSmall:
        with pytest.raises(TruncationTooSmall):
            build_cs(Family.SUSY_ISO, z, truncation=truncation)
        return
    state = build_cs(Family.SUSY_ISO, z, truncation=truncation)
    assert np.array_equal(state.amplitudes, series.amplitudes)
    assert state.family == Family.SUSY_ISO
    assert state.basis == Basis.SUSY_ISO


@pytest.mark.parametrize("z", [0.0, 0.3, 0.7 - 0.2j, -1.5j, 40.0])
def test_susy_new_state_is_its_two_level_closed_form(z):
    # (sqrt(2) z)^j / j! sqrt((-delta1/2)_j) on the principal branch, for
    # j < 2, whatever the truncation
    short = build_cs(Family.SUSY_NEW, z, truncation=8)
    long = build_cs(Family.SUSY_NEW, z, truncation=64)
    assert np.array_equal(short.amplitudes, long.amplitudes)
    with mp.workdps(40):
        raw = [(mp.sqrt(2) * mp.mpc(z)) ** j / mp.factorial(j)
               * mp.sqrt(mp.rf(-mp.mpf(DELTA1) / 2, j)) for j in range(2)]
        norm = mp.sqrt(mp.fsum(abs(c) ** 2 for c in raw))
        expected = np.array([complex(c / norm) for c in raw])
    assert np.max(np.abs(long.amplitudes - expected)) <= 1e-15
    assert long.family == Family.SUSY_NEW


def _window_state(family, window, r, angle):
    """build_cs over the family's entropy or uncertainty window, or
    None where the tail guard rejects |z| as past the window's reach."""
    terms = getattr(coherent.WINDOWS[family], f"{window}_terms")
    try:
        return build_cs(family, cmath.rect(r, angle), truncation=terms)
    except TruncOscError:
        return None


WINDOW_STATES = dict(family=st.sampled_from(list(Family)),
                     window=st.sampled_from(["entropy", "uncertainty"]),
                     r=st.floats(0.0, 3.0), angle=st.floats(-math.pi, math.pi))


@settings(max_examples=40, deadline=None)
@given(**WINDOW_STATES)
def test_family_states_are_unit_vectors_or_rejected(family, window, r, angle):
    # within its reach a window holds a normalized state; past it the tail
    # guard raises rather than returning a clipped vector
    state = _window_state(family, window, r, angle)
    if state is None:
        assert r > 0.05
    else:
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-13)


@settings(max_examples=30, deadline=None)
@given(**WINDOW_STATES)
def test_every_family_revives_at_half_period(family, window, r, angle):
    # every family's level energies are spaced by 2, so t = pi multiplies
    # each amplitude by one common phase
    state = _window_state(family, window, r, angle)
    assume(state is not None)
    out = evolve(state, math.pi)
    overlap = np.vdot(state.amplitudes, out.amplitudes)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(out.amplitudes
                         - overlap * state.amplitudes)) < 1e-12


def test_windows_hold_the_scan_windows_of_every_family():
    windows = coherent.WINDOWS
    assert set(windows) == set(Family)
    assert windows[Family.LOWERING].uncertainty(64) == (30, 132)
    assert windows[Family.LOWERING].uncertainty(16) == (16, 76)
    assert windows[Family.SUSY_ISO].uncertainty(64) == (48, 4 * 99 + 32)
    assert windows[Family.SUSY_ISO].uncertainty(40) == (40, 4 * 83 + 32)
    assert windows[Family.SUSY_NEW].uncertainty(64) == (2, 60)
    assert [windows[f].entropy_terms for f in Family] == [20, 20, 20, 20, 32, 20]
