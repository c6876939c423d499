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

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from truncosc import coherent
from truncosc.coherent import (
    CoherentState,
    Family,
    Measure,
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
from truncosc.fock import truncated_ladder


SPEC = truncated_ladder()


# ----------------------------------------------------------------------------
# norm constants against closed forms
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("r", [0.1, 0.7, 1.0, 2.0])
def test_lowering_norm_constant_closed_form(r):
    cs = build_cs(Family.LOWERING, SPEC, r)
    expected = math.sqrt(r / math.sinh(r))
    assert cs.norm_constant == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("r", [0.1, 0.3, 0.45])
def test_displacement_norm_constant_closed_form(r):
    # near the radius the amplitude decay slows to (2r)^k, so r = 0.45
    # needs ~300 levels before the 1e-12 tail guard is satisfied
    cs = build_cs(Family.DISPLACEMENT, SPEC, r, truncation=320)
    expected = (1.0 - 4.0 * r * r) ** 0.75
    assert cs.norm_constant == pytest.approx(expected, rel=1e-8)


def test_linearised_norm_constants():
    r, alpha = 0.8, 2.0
    low = build_cs(Family.LIN_LOWERING, SPEC, r, alpha=alpha)
    dis = build_cs(Family.LIN_DISPLACEMENT, SPEC, r, alpha=alpha)
    assert low.norm_constant == pytest.approx(math.exp(-r * r / (2 * alpha)), rel=1e-12)
    assert dis.norm_constant == pytest.approx(math.exp(-alpha * r * r / 2), rel=1e-12)


def test_states_are_unit_vectors():
    for fam in (Family.LOWERING, Family.DISPLACEMENT,
                Family.LIN_LOWERING, Family.LIN_DISPLACEMENT):
        cs = build_cs(fam, SPEC, 0.3)
        assert cs.vector.norm() == pytest.approx(1.0, abs=1e-13)
        total = sum(state_probability(cs, n) for n in range(cs.vector.truncation))
        assert total == pytest.approx(1.0, abs=1e-13)


# ----------------------------------------------------------------------------
# eigenrelation and divergence behaviour
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("z", [0.25, 1.0, 2.0, 0.3 + 0.4j, -1.2 + 0.5j])
def test_lowering_states_are_ladder_eigenstates(z):
    cs = build_cs(Family.LOWERING, SPEC, z)
    assert eigen_residual(cs) < 1e-10


def test_lin_lowering_states_satisfy_deformed_eigenrelation():
    cs = build_cs(Family.LIN_LOWERING, SPEC, 0.9 + 0.2j)
    assert eigen_residual(cs) < 1e-10


def test_eigen_residual_rejects_displacement_families():
    cs = build_cs(Family.DISPLACEMENT, SPEC, 0.2)
    with pytest.raises(FamilyMismatch):
        eigen_residual(cs)


def test_displacement_family_diverges_outside_its_radius():
    with pytest.raises(NotNormalizable):
        build_cs(Family.DISPLACEMENT, SPEC, 0.6, truncation=128)


def test_displacement_partial_sums_blow_up_at_r_06():
    sums = displacement_norm_partial_sums(SPEC, 0.6, n_terms=80)
    assert sums[-1] > 1e6
    assert np.all(np.diff(sums) > 0)


def test_displacement_partial_sums_converge_inside_the_radius():
    sums = displacement_norm_partial_sums(SPEC, 0.3, n_terms=80)
    expected = (1.0 - 4.0 * 0.09) ** -1.5
    assert sums[-1] == pytest.approx(expected, rel=1e-10)


def test_truncation_guard_fires_when_the_tail_is_heavy():
    with pytest.raises(TruncationTooSmall):
        build_cs(Family.LOWERING, SPEC, 6.0, truncation=16)


def test_build_cs_input_validation():
    with pytest.raises(ValueError):
        build_cs(Family.LOWERING, SPEC, 0.5, truncation=1)
    with pytest.raises(ValueError):
        build_cs(Family.LIN_LOWERING, SPEC, 0.5, alpha=0.0)
    with pytest.raises(FamilyMismatch):
        build_cs(Family.SUSY_ISO, SPEC, 0.5)


# ----------------------------------------------------------------------------
# energy and time evolution
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("r", [0.4, 1.1, 2.5])
def test_lowering_mean_energy_closed_form(r):
    cs = build_cs(Family.LOWERING, SPEC, r)
    expected = 0.5 + r / math.tanh(r)
    assert energy_expectation(cs) == pytest.approx(expected, rel=1e-10)


def test_lin_displacement_mean_energy_closed_form():
    # Poisson level statistics with mean alpha r^2: <H> = 2 alpha r^2 + 3/2
    r, alpha = 0.6, 2.0
    cs = build_cs(Family.LIN_DISPLACEMENT, SPEC, r, alpha=alpha)
    assert energy_expectation(cs) == pytest.approx(2 * alpha * r * r + 1.5, rel=1e-10)


def test_evolution_preserves_level_populations():
    cs = build_cs(Family.LOWERING, SPEC, 1.2)
    moved = evolve(cs, 0.37)
    assert np.allclose(np.abs(moved.vector.amplitudes),
                       np.abs(cs.vector.amplitudes), rtol=0, atol=1e-14)


def test_evolution_revives_after_half_period():
    # level spacing 2 means t = pi restores the state up to a global phase
    cs = build_cs(Family.LOWERING, SPEC, 1.2)
    out = evolve(cs, math.pi)
    overlap = np.vdot(cs.vector.amplitudes, out.vector.amplitudes)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)
    assert abs(overlap - cmath.exp(-1.5j * math.pi)) < 1e-12


def test_evolution_dephases_between_revivals():
    cs = build_cs(Family.LOWERING, SPEC, 1.2)
    out = evolve(cs, math.pi / 3.0)
    overlap = abs(np.vdot(cs.vector.amplitudes, out.vector.amplitudes))
    assert overlap < 0.999


def test_evolved_lowering_state_tracks_the_rotated_label():
    # temporal stability: evolve(z, t) matches the state built at z e^{-2it}
    z, t = 0.9, 0.8
    moved = evolve(build_cs(Family.LOWERING, SPEC, z), t)
    rebuilt = build_cs(Family.LOWERING, SPEC, z * cmath.exp(-2j * t))
    phase = cmath.exp(-1.5j * t)
    assert np.allclose(moved.vector.amplitudes,
                       phase * rebuilt.vector.amplitudes, atol=1e-12)


def test_state_probability_bounds_check():
    cs = build_cs(Family.LOWERING, SPEC, 0.5, truncation=16)
    with pytest.raises(IndexOutOfRange):
        state_probability(cs, 16)


# ----------------------------------------------------------------------------
# resolution of identity
# ----------------------------------------------------------------------------

def test_corrected_lowering_measure_resolves_identity():
    dev = identity_resolution_check(
        Family.LOWERING, SPEC, lowering_measure_corrected(),
        n_max=6, r_max=60.0, truncation=128)
    assert dev < 1e-6


def test_reference_lowering_measure_deviation_is_large():
    # moments come out (2k+3)(2k+2)/4, so level 6 deviates by ~55
    dev = identity_resolution_check(
        Family.LOWERING, SPEC, lowering_measure_reference(),
        n_max=6, r_max=60.0, truncation=128)
    assert dev == pytest.approx((2 * 6 + 3) * (2 * 6 + 2) / 4.0 - 1.0, rel=1e-6)


def test_identity_check_builds_each_radius_once(monkeypatch):
    radii = []

    def counting_build_cs(family, spec, z, **kwargs):
        radii.append(z)
        return build_cs(family, spec, z, **kwargs)

    monkeypatch.setattr(coherent, "build_cs", counting_build_cs)
    dev = identity_resolution_check(
        Family.LOWERING, SPEC, lowering_measure_corrected(),
        n_max=6, r_max=60.0, truncation=128)
    assert dev < 1e-6
    assert radii and len(radii) == len(set(radii))


def test_tail_guard_rejects_short_integration_ranges():
    with pytest.raises(TailTooFat):
        identity_resolution_check(
            Family.LOWERING, SPEC, lowering_measure_corrected(),
            n_max=10, r_max=10.0, truncation=64)


def test_flat_measure_density_value():
    mu = iso_measure()
    assert mu.radial_density(3.3) == pytest.approx(2.0 / math.pi)
    assert mu.label == "iso-flat"


def test_measure_density_factories_are_distinct():
    # corrected = reference * 4/r^2: they agree only at r = 2 and the
    # reference grows linearly while the correction decays
    ref = lowering_measure_reference()
    cor = lowering_measure_corrected()
    for r in (0.5, 2.0, 10.0):
        assert ref.radial_density(r) > 0
        assert cor.radial_density(r) > 0
    assert ref.radial_density(2.0) == pytest.approx(cor.radial_density(2.0), rel=1e-12)
    assert ref.radial_density(8.0) > 10.0 * cor.radial_density(8.0)


# ----------------------------------------------------------------------------
# family dispatch
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("family", list(Family))
def test_family_state_uses_each_family_constructor(family):
    from truncosc.fock import Basis
    from truncosc.susy import q4_model, susy_cs

    state = coherent.family_state(family.value, 0.2, truncation=64)
    windows = coherent.WINDOWS[family]
    assert state.family == family
    assert state.vector.basis == windows.basis
    if windows.basis == Basis.TRUNCATED:
        direct = build_cs(family, SPEC, 0.2, truncation=64)
    else:
        direct = susy_cs(q4_model(), windows.basis, 0.2, truncation=64)
    assert np.array_equal(state.vector.amplitudes, direct.vector.amplitudes)


def _window_state(family, window, r, angle):
    """family_state over the family's entropy or uncertainty window, or
    None where the tail guard rejects |z| as past the window's reach."""
    terms = getattr(coherent.WINDOWS[family], f"{window}_terms")
    try:
        return coherent.family_state(family, cmath.rect(r, angle), truncation=terms)
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
        assert state.vector.norm() == pytest.approx(1.0, abs=1e-13)


@settings(max_examples=30, deadline=None)
@given(**WINDOW_STATES)
def test_every_family_revives_at_half_period(family, window, r, angle):
    # every family's level energies are spaced by 2, so t = pi multiplies
    # each amplitude by one common phase
    state = _window_state(family, window, r, angle)
    assume(state is not None)
    out = evolve(state, math.pi)
    overlap = np.vdot(state.vector.amplitudes, out.vector.amplitudes)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(out.vector.amplitudes
                         - overlap * state.vector.amplitudes)) < 1e-12


def test_windows_hold_the_scan_windows_of_every_family():
    windows = coherent.WINDOWS
    assert set(windows) == set(Family)
    assert windows[Family.LOWERING].uncertainty(64) == (30, 132)
    assert windows[Family.SUSY_ISO].uncertainty(64) == (48, 4 * 99 + 32)
    assert windows[Family.SUSY_ISO].uncertainty(40) == (40, 4 * 83 + 32)
    assert windows[Family.SUSY_NEW].uncertainty(64) == (2, 60)
    assert [windows[f].entropy_terms for f in Family] == [20, 20, 20, 20, 32, 20]
