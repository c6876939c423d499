"""Two-mode embedding, beam splitter, reduced density, linear entropy.

The splitter blocks have an exact su(2) spin-rotation structure, so the
production evaluator diagonalizes a real symmetric tridiagonal generator
and is unitary to machine precision at any total photon number.  The
factorized triangular evaluation is kept as a cross-check; its float
instability above total ~ 30 is asserted below as documented behaviour.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import eigh_tridiagonal, expm

from truncosc import entangle
from truncosc.coherent import Family, build_cs
from truncosc.entangle import (
    BeamSplitterSetting,
    EntropyRecord,
    GramMatrix,
    TwoModeState,
    beamsplitter_apply,
    beamsplitter_block,
    beamsplitter_block_bch,
    beamsplitter_block_oracle,
    embed_cs_in_two_modes,
    entropy_scan,
    gram_matrix,
    halfline_overlap,
    linear_entropy,
    reduced_density,
)
from truncosc.errors import CutoffExceeded, ExpansionResidualTooLarge, GramNotPSD
from truncosc.fock import Basis, rows
from truncosc.numerics import gauss_halfline


# ----------------------------------------------------------------------------
# half-line overlaps and Gram matrices
# ----------------------------------------------------------------------------

def test_overlap_spot_values():
    assert halfline_overlap(0, 0) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-13)
    assert halfline_overlap(0, 1) == pytest.approx(1.0, rel=1e-13)
    assert halfline_overlap(1, 1) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    # cross-parity values are integers in this normalization
    assert halfline_overlap(2, 3) == pytest.approx(12.0, rel=1e-12)
    assert halfline_overlap(4, 7) == pytest.approx(-3360.0, rel=1e-12)


def test_overlap_closed_form_vs_quadrature_regular_pairs():
    for a in range(11):
        for b in range(a + 1):
            if (a + b) % 2 == 0 and a + b > 0:
                continue  # Gamma pole: no closed form
            closed = halfline_overlap(a, b, method="closed")
            quad = halfline_overlap(a, b, method="quadrature")
            scale = max(1.0, abs(quad))
            assert abs(closed - quad) < 1e-10 * scale, (a, b)


def test_overlap_pole_pairs_fall_back_to_quadrature():
    # same-parity pairs (a+b even, positive) sit on the Gamma pole
    val_auto = halfline_overlap(2, 4)
    val_quad = halfline_overlap(2, 4, method="quadrature")
    assert val_auto == val_quad
    with pytest.raises(ValueError):
        halfline_overlap(2, 4, method="closed")
    with pytest.raises(ValueError):
        halfline_overlap(-1, 0)


def test_overlap_symmetry(rng):
    for _ in range(10):
        a, b = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        # same-parity off-diagonal pairs vanish analytically, so compare
        # on the scale of the diagonal values
        scale = math.sqrt(halfline_overlap(a, a) * halfline_overlap(b, b))
        diff = abs(halfline_overlap(a, b) - halfline_overlap(b, a))
        assert diff < 1e-10 * scale


def test_gram_matrix_structure():
    g = gram_matrix(10)
    ent = g.entries
    assert g.size == 10
    assert np.allclose(np.diag(ent), 0.5, atol=1e-13)
    # same-parity entries vanish off the diagonal
    for i in range(10):
        for j in range(i):
            if (i - j) % 2 == 0:
                assert abs(ent[i, j]) < 1e-13
    assert np.min(np.linalg.eigvalsh(ent)) > 0
    # normalized cross-parity entry against the raw-polynomial overlap
    expected = halfline_overlap(0, 1) / math.sqrt(
        math.sqrt(math.pi) ** 2 * 2.0 ** 1 * math.factorial(1))
    assert ent[0, 1] == pytest.approx(expected, rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(size=st.integers(1, 64))
def test_gram_matrix_is_positive_definite_with_half_diagonal_blocks(size):
    # the smallest eigenvalue falls like 1e-3, 4e-8, 1e-12 at sizes 4, 8,
    # 12 and below rounding from 16 on, so larger matrices are only
    # positive semidefinite to rounding
    ent = gram_matrix(size).entries
    if size <= 12:
        np.linalg.cholesky(ent)
    assert np.min(np.linalg.eigvalsh(ent)) > -1e-14
    for parity in (0, 1):
        block = ent[parity::2, parity::2]
        assert np.allclose(block, 0.5 * np.eye(block.shape[0]), rtol=0, atol=1e-12)


def test_gram_odd_rows_give_an_orthonormal_basis():
    g = gram_matrix(12)
    t = g.odd_rows_scaled()
    # restricted odd levels are mutually orthonormal on the half-line
    assert np.allclose(t[:, 1::2], np.eye(6) / math.sqrt(2.0), atol=1e-13)


def test_gram_matrices_are_read_only_copies():
    ent = gram_matrix(9).entries
    assert not ent.flags.writeable
    with pytest.raises(ValueError):
        ent[0, 1] = 0.0
    # a record built from a caller's array leaves that array writable
    raw = np.eye(2) / 2.0
    assert not GramMatrix(raw).entries.flags.writeable and raw.flags.writeable


def test_gram_validation_rejects_bad_matrices():
    with pytest.raises(GramNotPSD):
        GramMatrix(np.array([[0.5, 0.2], [0.3, 0.5]]))
    with pytest.raises(GramNotPSD):
        GramMatrix(np.array([[0.5, 0.9], [0.9, 0.5]]))
    with pytest.raises(ValueError):
        gram_matrix(0)


# ----------------------------------------------------------------------------
# splitter blocks
# ----------------------------------------------------------------------------

def _su2_generator(total: int, setting: BeamSplitterSetting) -> np.ndarray:
    """tau K+ - conj(tau) K- on the fixed-total subspace (oracle helper)."""
    n = total + 1
    g = np.zeros((n, n), dtype=complex)
    for k in range(total):
        step = math.sqrt((k + 1) * (total - k))
        g[k + 1, k] = setting.tau * step
        g[k, k + 1] = -np.conj(setting.tau) * step
    return g


@pytest.mark.parametrize("theta, phi", [
    (math.pi / 2, 0.0), (1.0, 0.4), (0.3, -1.2), (2.8, 2.0),
])
def test_spectral_blocks_match_the_exponential_oracle(theta, phi):
    setting = BeamSplitterSetting(theta, phi)
    for total in range(13):
        block = beamsplitter_block(total, theta, phi)
        oracle = expm(_su2_generator(total, setting))
        assert np.max(np.abs(block - oracle)) < 1e-12, total


def test_bundled_oracle_agrees_with_local_expm():
    setting = BeamSplitterSetting(1.3, 0.7)
    for total in (0, 3, 8):
        assert np.allclose(beamsplitter_block_oracle(total, setting),
                           expm(_su2_generator(total, setting)), atol=1e-12)


def test_spectral_blocks_are_unitary_at_large_totals():
    for total in (1, 7, 40, 160, 320):
        b = beamsplitter_block(total, math.pi / 2, 0.3)
        defect = np.max(np.abs(b @ b.conj().T - np.eye(total + 1)))
        assert defect < 5e-14, total


def test_block_limits():
    assert beamsplitter_block(0, 1.0, 0.5) == pytest.approx(np.ones((1, 1)))
    assert np.allclose(beamsplitter_block(5, 0.0, 0.0), np.eye(6), atol=1e-14)
    # total = 2 carries spin 1: the middle element is cos(theta)
    b = beamsplitter_block(2, 1.1, 0.0)
    assert b[1, 1] == pytest.approx(math.cos(1.1), abs=1e-13)


@pytest.mark.parametrize("builder", [beamsplitter_block, beamsplitter_block_bch])
def test_block_builders_hand_out_fresh_blocks(builder):
    block = builder(2, 1.0, 0.0)
    expected = block.copy()
    block[0, 0] = 99.0
    assert np.array_equal(builder(2, 1.0, 0.0), expected)


def test_factorized_blocks_agree_at_small_totals():
    for theta, phi in ((math.pi / 2, 0.0), (0.7, 1.1)):
        for total in range(11):
            bch = beamsplitter_block_bch(total, theta, phi)
            spectral = beamsplitter_block(total, theta, phi)
            assert np.max(np.abs(bch - spectral)) < 1e-10, (total, theta)


def test_factorized_blocks_lose_precision_at_large_totals():
    # documented instability of the triangular factorized evaluation:
    # entries grow like tan(theta/2)^k sqrt(binomials) and cancel, so
    # unitarity degrades catastrophically while the spectral route stays
    # exact (see module docstring)
    b40 = beamsplitter_block_bch(40, math.pi / 2, 0.0)
    defect40 = np.max(np.abs(b40 @ b40.conj().T - np.eye(41)))
    assert defect40 > 1e-3
    b60 = beamsplitter_block_bch(60, math.pi / 2, 0.0)
    defect60 = np.max(np.abs(b60 @ b60.conj().T - np.eye(61)))
    assert defect60 > 1e6


def test_setting_derived_amplitudes():
    s = BeamSplitterSetting(1.2, 0.5)
    assert s.t == pytest.approx(math.cos(0.6))
    assert abs(s.r) == pytest.approx(math.sin(0.6))
    assert abs(s.r) ** 2 + s.t ** 2 == pytest.approx(1.0)
    assert s.tau == pytest.approx(0.6 * np.exp(0.5j))
    assert s.tau_tan == pytest.approx(math.tan(0.6) * np.exp(0.5j))


# ----------------------------------------------------------------------------
# applying the splitter
# ----------------------------------------------------------------------------

def test_apply_preserves_norm_and_total_photon_number(rng):
    n = 12
    amp = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    amp[np.add.outer(np.arange(n), np.arange(n)) >= n] = 0.0
    state = TwoModeState(amp / np.linalg.norm(amp))
    out = beamsplitter_apply(state, BeamSplitterSetting(0.9, 0.3))
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)
    # block structure: each anti-diagonal transforms within itself
    for total in range(n):
        k = np.arange(total + 1)
        w_in = np.linalg.norm(state.amplitudes[k, total - k])
        w_out = np.linalg.norm(out.amplitudes[k, total - k])
        assert w_out == pytest.approx(w_in, abs=1e-12)


def test_apply_roundtrip_with_opposite_phase(rng):
    # the inverse splitter keeps theta (domain [0, pi)) and shifts the
    # phase by pi, negating the generator
    n = 10
    amp = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    amp[np.add.outer(np.arange(n), np.arange(n)) >= n] = 0.0
    state = TwoModeState(amp / np.linalg.norm(amp))
    there = beamsplitter_apply(state, BeamSplitterSetting(0.8, 0.2))
    back = beamsplitter_apply(there, BeamSplitterSetting(0.8, 0.2 + math.pi))
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12


def test_setting_domain_validation():
    with pytest.raises(ValueError):
        BeamSplitterSetting(-0.8, 0.2)
    with pytest.raises(ValueError):
        BeamSplitterSetting(math.pi, 0.0)


def test_apply_guards_the_cutoff():
    amp = np.zeros((4, 4), dtype=complex)
    amp[3, 3] = 1.0  # total 6 >= cutoff 4
    with pytest.raises(CutoffExceeded):
        beamsplitter_apply(TwoModeState(amp), BeamSplitterSetting(0.5, 0.0))


def test_hong_ou_mandel_cancellation():
    amp = np.zeros((4, 4), dtype=complex)
    amp[1, 1] = 1.0
    out = beamsplitter_apply(TwoModeState(amp), BeamSplitterSetting(math.pi / 2, 0.0))
    assert abs(out.amplitudes[1, 1]) < 1e-12
    assert abs(out.amplitudes[2, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert abs(out.amplitudes[0, 2]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


@st.composite
def _populated_states(draw):
    """Random complex amplitudes on every anti-diagonal of total < cutoff <= 41."""
    n = draw(st.integers(1, 41))
    amp = draw(arrays(np.complex128, (n, n), elements=st.complex_numbers(
        max_magnitude=1.0, allow_nan=False, allow_infinity=False)))
    amp[np.add.outer(np.arange(n), np.arange(n)) >= n] = 0.0
    return amp


@settings(max_examples=40, deadline=None)
@given(amp=_populated_states(), theta=st.floats(0.0, math.pi, exclude_max=True),
       phi=st.floats(-math.pi, math.pi))
def test_apply_rotates_each_anti_diagonal_by_its_block(amp, theta, phi):
    out = beamsplitter_apply(TwoModeState(amp), BeamSplitterSetting(theta, phi))
    for total in range(amp.shape[0]):
        k = np.arange(total + 1)
        expected = beamsplitter_block(total, theta, phi) @ amp[k, total - k]
        assert np.max(np.abs(out.amplitudes[k, total - k] - expected)) <= 1e-13, total


@settings(max_examples=40, deadline=None)
@given(amp=_populated_states(), theta=st.floats(0.0, math.pi, exclude_max=True),
       phi=st.floats(-math.pi, math.pi))
def test_apply_preserves_the_norm_of_random_states(amp, theta, phi):
    norm = np.linalg.norm(amp)
    assume(norm > 0.0)
    state = TwoModeState(amp / norm)
    out = beamsplitter_apply(state, BeamSplitterSetting(theta, phi))
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12


def test_apply_leaves_no_complex_blocks_behind(monkeypatch):
    def no_block(*args):
        raise AssertionError("beamsplitter_apply formed a block")

    monkeypatch.setattr(entangle, "beamsplitter_block", no_block)
    monkeypatch.setattr(entangle, "beamsplitter_block_bch", no_block)
    state = embed_cs_in_two_modes(
        build_cs(Family.LOWERING, 0.8, truncation=12), cutoff=32)
    beamsplitter_apply(state, BeamSplitterSetting(1.1, 0.4))
    lam, vec = entangle._splitter_modes(20)
    assert vec.dtype == np.float64
    assert not lam.flags.writeable and not vec.flags.writeable


@pytest.mark.parametrize("totals", [
    range(201), range(202, 239, 2), (400, 600, 874)],
    ids=["all-to-200", "even-to-238", "even-large"])
def test_splitter_modes_are_scipys_tridiagonal_solve_bit_for_bit(totals):
    # numpy's dense eigh runs the same LAPACK divide and conquer as
    # eigh_tridiagonal, so the eigenpairs, and every entropy CSV built on
    # them, keep their bits.  This pins the LAPACK builds of this install,
    # as the recorded CSV digests do; scans populate only even totals, up
    # to 238 at basis 80 (odd totals above 200 may differ in the last bit)
    for total in totals:
        k = np.arange(total + 1)
        off = 0.5 * np.sqrt((k[:-1] + 1.0) * (total - k[:-1]))
        lam, vec = eigh_tridiagonal(np.zeros(total + 1), off)
        got_lam, got_vec = entangle._splitter_modes(total)
        assert np.array_equal(got_lam, lam) and np.array_equal(got_vec, vec), total
        # BLAS sums V x in an order set by the layout, so it must match too
        assert got_vec.strides == vec.strides, total


# ----------------------------------------------------------------------------
# embedding
# ----------------------------------------------------------------------------

def test_truncated_embedding_structure():
    cs = build_cs(Family.LOWERING, 0.7, truncation=12)
    state = embed_cs_in_two_modes(cs, cutoff=32)
    amp = state.amplitudes
    assert amp.shape == (32, 32)
    # mode A is the ground level (full-line level 1); mode B carries the
    # state's amplitudes on odd levels 2n+1
    assert np.allclose(amp[1, 1:25:2], cs.amplitudes, atol=1e-13)
    amp_copy = amp.copy()
    amp_copy[1, :] = 0.0
    assert np.max(np.abs(amp_copy)) == 0.0
    # even levels never populated
    assert np.max(np.abs(amp[:, 0::2])) == 0.0


def test_embedding_requires_capacity():
    cs = build_cs(Family.LOWERING, 0.5, truncation=16)
    with pytest.raises(ValueError):
        embed_cs_in_two_modes(cs, cutoff=20)


def test_partner_embedding_residual_guard():
    # the finite-tower functions need ~40 odd levels before the expansion
    # recovers 1 - 1e-6 of the norm: cutoff 60 still fails, 80 passes
    cs = build_cs(Family.SUSY_NEW, 1.0)
    for cutoff in (40, 60):
        with pytest.raises(ExpansionResidualTooLarge):
            embed_cs_in_two_modes(cs, cutoff=cutoff)
    state = embed_cs_in_two_modes(cs, cutoff=80)
    assert state.cutoff == 80


def test_iso_embedding_at_zero_label_is_the_lowest_pair():
    # z = 0 collapses the infinite-tower state onto its bottom level, so
    # the embedding is the product (lowest new level) x (tower-bottom image)
    cs = build_cs(Family.SUSY_ISO, 0.0, truncation=16)
    state = embed_cs_in_two_modes(cs, cutoff=96)
    u_mat, sing, v_mat = np.linalg.svd(state.amplitudes)
    assert sing[0] == pytest.approx(1.0, abs=1e-6)
    assert sing[1] < 1e-12  # exactly rank one
    # mode A carries the same extremal state for either partner tower
    new_state = embed_cs_in_two_modes(build_cs(Family.SUSY_NEW, 0.0), cutoff=96)
    u_new = np.linalg.svd(new_state.amplitudes)[0][:, 0]
    cos = abs(np.vdot(u_mat[:, 0], u_new))
    assert cos == pytest.approx(1.0, abs=1e-8)


# ----------------------------------------------------------------------------
# reduction and entropy
# ----------------------------------------------------------------------------

def test_reduced_density_of_a_product_state_is_pure():
    cs = build_cs(Family.LOWERING, 0.9, truncation=16)
    state = embed_cs_in_two_modes(cs, cutoff=40)
    rho = reduced_density(state, gram_matrix(40))
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert linear_entropy(rho) < 1e-12


def test_reduced_density_checks_gram_size():
    cs = build_cs(Family.LOWERING, 0.5, truncation=12)
    state = embed_cs_in_two_modes(cs, cutoff=32)
    with pytest.raises(ValueError):
        reduced_density(state, gram_matrix(16))


def test_linear_entropy_reference_points():
    assert linear_entropy(np.diag([1.0, 0.0, 0.0])) == 0.0
    d = 5
    assert linear_entropy(np.eye(d) / d) == pytest.approx(1.0 - 1.0 / d, rel=1e-12)
    with pytest.raises(ValueError):
        linear_entropy(np.array([[0.5, 0.1], [0.4, 0.5]]))
    with pytest.raises(ValueError):
        linear_entropy(np.diag([0.7, 0.7]))


def test_splitter_generates_entanglement_from_the_embedded_pair():
    cs = build_cs(Family.LOWERING, 0.9, truncation=16)
    state = embed_cs_in_two_modes(cs, cutoff=40)
    out = beamsplitter_apply(state, BeamSplitterSetting(math.pi / 2, 0.0))
    rho = reduced_density(out, gram_matrix(40))
    s = linear_entropy(rho)
    assert 0.0 < s < 1.0


def test_entropy_scan_regressions_truncated():
    rec = entropy_scan(Family.LOWERING, [0.5], cutoff=32, n_terms=12)[0]
    assert isinstance(rec, EntropyRecord)
    assert rec.entropy == pytest.approx(0.500008154785, abs=1e-9)
    assert rec.entropy_refined == pytest.approx(0.500009223416, abs=1e-9)
    assert rec.converged
    assert rec.theta == pytest.approx(math.pi / 2)
    assert rec.cutoff == 32


def test_entropy_scan_regressions_partner_towers():
    new = entropy_scan(Family.SUSY_NEW, [1.0], cutoff=80)[0]
    assert new.entropy == pytest.approx(0.539369533205, abs=1e-9)
    assert new.converged
    iso = entropy_scan(Family.SUSY_ISO, [0.5], cutoff=96, n_terms=32)[0]
    assert iso.entropy == pytest.approx(0.524544928481, abs=1e-9)
    assert iso.converged


# |z| each family's entropy window reaches with its tail guard satisfied
ENTROPY_REACH = {Family.LOWERING: 2.0, Family.DISPLACEMENT: 0.1,
                 Family.LIN_LOWERING: 0.9, Family.LIN_DISPLACEMENT: 0.45,
                 Family.SUSY_ISO: 1.0, Family.SUSY_NEW: 2.0}


@settings(max_examples=8, deadline=None)
@given(family=st.sampled_from(list(Family)), fraction=st.floats(0.0, 1.0),
       theta=st.floats(0.0, math.pi, exclude_max=True),
       phi=st.floats(-math.pi, math.pi))
def test_linear_entropy_lies_in_the_unit_interval(family, fraction, theta, phi):
    # the partner towers need cutoff 80 before their projections recover
    # the norm; the truncated families run at their 43-level minimum
    partner = family in (Family.SUSY_ISO, Family.SUSY_NEW)
    rec = entropy_scan(family, [fraction * ENTROPY_REACH[family]],
                       setting=BeamSplitterSetting(theta, phi),
                       cutoff=80 if partner else 43)[0]
    # a product state's purity is 1 up to rounding, so S may read -4e-16
    assert -1e-14 <= rec.entropy < 1.0
    assert -1e-14 <= rec.entropy_refined < 1.0


def test_entropy_vanishes_at_zero_mixing_angle():
    rec = entropy_scan(Family.LOWERING, [0.7],
                       setting=BeamSplitterSetting(0.0, 0.0),
                       cutoff=32, n_terms=12)[0]
    assert rec.entropy < 1e-12


# ----------------------------------------------------------------------------
# position-space oracle: the splitter rotates the two-mode wavefunction
# ----------------------------------------------------------------------------

_ORACLE_Z = (0.5, 1.0)
_ORACLE_CUTOFF = 43


@lru_cache(maxsize=None)
def _oracle_case(theta: float):
    """entropy_scan records and position-space entropies at _ORACLE_Z.

    For phi = 0 the splitter maps psi(x1, x2) to psi(t x1 + r x2, -r x1 + t x2)
    (t, r from BeamSplitterSetting), a rotation by theta/2 (Kim, Son, Buzek and
    Knight, PRA 65, 032323, 2002).  Mode A is the full-line level 1, mode B
    the coherent state over odd levels, both taken from fock.rows.  The rotated
    product is sampled on the quadrant x1, x2 > 0 with a gauss_halfline tensor
    grid; with M_ij = sqrt(w_i) psi(x_i, x_j) sqrt(w_j) the half-line reduced
    density is M M^H / |M|_F^2.  Nodes past x = 8 carry weights below e^{-64}
    and are dropped (keeping them up to x = 10 changes no printed digit).
    """
    setting = BeamSplitterSetting(theta, 0.0)
    records = entropy_scan(Family.LOWERING, _ORACLE_Z, setting=setting,
                           cutoff=_ORACLE_CUTOFF)
    amps = [build_cs(Family.LOWERING, z, truncation=20).amplitudes
            for z in _ORACLE_Z]
    rule = gauss_halfline(16)
    keep = rule.nodes <= 8.0
    x, sw = rule.nodes[keep], np.sqrt(rule.weights[keep])
    t, r = setting.t, setting.r.real
    m = np.empty((len(amps), x.size, x.size), dtype=complex)
    for i in range(0, x.size, 64):
        xi = x[i:i + 64, None]
        # weighted rows carry e^{u^2/2}; the rotation keeps u1^2 + u2^2 = x1^2 + x2^2
        mode_a = rows(Basis.TRUNCATED, 1, (t * xi + r * x).ravel())[0, 0]
        levels = rows(Basis.TRUNCATED, 20, (-r * xi + t * x).ravel())[0]
        for j, c in enumerate(amps):
            psi = (mode_a * (c @ levels)).reshape(-1, x.size)
            m[j, i:i + 64] = sw[i:i + 64, None] * psi * sw
    entropies = []
    for mj in m:
        rho = mj @ mj.conj().T
        entropies.append(1.0 - np.sum(np.abs(rho) ** 2) / np.sum(np.abs(mj) ** 2) ** 2)
    return records, entropies


@pytest.mark.parametrize("theta", [1.0, math.pi / 2])
def test_entropy_approaches_the_position_space_oracle(theta):
    # the odd-basis reduction converges like cutoff^(-1/2): the error at the
    # base cutoff is at most gap / (1 - 1.5^(-1/2)), about 5.45 gaps, and the
    # pipeline approaches the oracle from below
    records, oracle = _oracle_case(theta)
    for rec, s in zip(records, oracle):
        gap = rec.entropy_refined - rec.entropy
        assert 0.0 < gap
        assert rec.entropy < s
        assert s - rec.entropy <= gap / (1.0 - 1.5 ** -0.5), rec.z_abs


@pytest.mark.xfail(strict=True, reason=(
    "the 1.5x-cutoff gap understates the cutoff error about fivefold: the "
    "odd-basis reduction converges like cutoff^(-1/2)"))
@pytest.mark.parametrize("theta", [1.0, math.pi / 2])
def test_entropy_is_within_twice_its_convergence_gap_of_the_oracle(theta):
    records, oracle = _oracle_case(theta)
    for rec, s in zip(records, oracle):
        assert abs(rec.entropy - s) <= 2.0 * abs(rec.entropy - rec.entropy_refined)


# ----------------------------------------------------------------------------
# guards: what a scan computes once
# ----------------------------------------------------------------------------

def test_partner_scan_builds_projections_once_and_solves_each_total_once(monkeypatch):
    entangle._splitter_modes.cache_clear()
    entangle._susy_level_projections.cache_clear()
    row_calls = []
    real_rows = entangle.rows

    def counting_rows(*args, **kwargs):
        row_calls.append(args[:2])
        return real_rows(*args, **kwargs)

    def solves():
        # each cache miss is one solve of a total not solved before
        return entangle._splitter_modes.cache_info().misses

    monkeypatch.setattr(entangle, "rows", counting_rows)
    z = np.linspace(0.0, 1.0, 9)
    entropy_scan(Family.SUSY_ISO, z, cutoff=80)
    # (susy-iso, 32 levels) and (susy-new, 1 level) at cutoffs 80 and 120
    assert len(row_calls) == 4
    # even totals 2..238 of the refined padded size 239
    assert solves() == 119
    entropy_scan(Family.SUSY_ISO, z, setting=BeamSplitterSetting(1.2, 0.3),
                 cutoff=80)
    assert len(row_calls) == 4 and solves() == 119
    proj = entangle._susy_level_projections(Basis.SUSY_ISO, 32, 80)
    assert not proj.flags.writeable
