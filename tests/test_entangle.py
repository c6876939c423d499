"""Two-mode embedding, beam splitter, reduced density, linear entropy.

The splitter blocks have an exact su(2) spin-rotation structure.  The
production sweep builds them by Risbo's recursion, checked here against
the matrix exponential, Wigner's explicit sum (mpmath) and the spectral
blocks.  The factorized triangular evaluation is kept as a cross-check;
its float instability above total ~ 30 is asserted below as documented
behaviour.
"""

import math
import types
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from truncosc import entangle
from truncosc.coherent import WINDOWS, Family, build_cs
from truncosc.entangle import (
    BeamSplitterSetting,
    EntropyRecord,
    GramMatrix,
    beamsplitter_block,
    beamsplitter_block_bch,
    beamsplitter_block_oracle,
    entropy_scan,
    gram_matrix,
    halfline_overlap,
    halfline_overlap_quadrature,
    linear_entropy,
    reduced_density,
)
from truncosc.errors import DivergenceError, TruncationTooSmall
from truncosc.fock import Basis, _truncated_block, hermite_normalized, rows
from truncosc.numerics import gauss_halfline

from oracles import beamsplitter_apply

BALANCED = BeamSplitterSetting(math.pi / 2, 0.0)


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
            closed = halfline_overlap(a, b)
            quad = halfline_overlap_quadrature(a, b)
            scale = max(1.0, abs(quad))
            assert abs(closed - quad) < 1e-10 * scale, (a, b)


def test_overlap_pole_pairs_fall_back_to_quadrature():
    # same-parity pairs (a+b even, positive) sit on the Gamma pole
    assert halfline_overlap(2, 4) == halfline_overlap_quadrature(2, 4)
    with pytest.raises(ValueError):
        halfline_overlap(-1, 0)


@pytest.mark.parametrize("alpha, beta", [(132, 133), (0, 281), (401, 0)])
def test_overlaps_outside_the_float_range_raise(alpha, beta):
    # (132, 133) overflows; from a+b = 281 on the Gamma factor underflows to 0
    with pytest.raises(DivergenceError, match=f"\\({alpha}, {beta}\\)"):
        halfline_overlap(alpha, beta)


def test_overlaps_whose_2f1_cancels_past_rounding_raise_naming_the_pair():
    # nothing overflows, but the rounding bound of (20, 21)'s 2F1 sum is
    # 4.9e-8 of the sum, past the rule's 1e-8
    with pytest.raises(DivergenceError, match=r"\(20, 21\): 2F1.* cancels"):
        halfline_overlap(20, 21)


def test_overlap_pole_pairs_are_half_the_full_line_overlap():
    # on Gamma's poles (a + b even) the integrand is even, so the half-line
    # integral is half the full-line one: sqrt(pi) 2^a a! / 2 for a = b, else 0
    for a in range(13):
        for b in range(a % 2, 13, 2):
            diagonal = [math.sqrt(math.pi) * 2.0 ** n * math.factorial(n) / 2.0 for n in (a, b)]
            exact = diagonal[0] if a == b else 0.0
            scale = math.sqrt(diagonal[0] * diagonal[1])
            assert abs(halfline_overlap(a, b) - exact) <= 1e-13 * scale, (a, b)


def test_overlap_symmetry(rng):
    for _ in range(10):
        a, b = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        # same-parity off-diagonal pairs vanish analytically, so compare
        # on the scale of the diagonal values
        scale = math.sqrt(halfline_overlap(a, a) * halfline_overlap(b, b))
        diff = abs(halfline_overlap(a, b) - halfline_overlap(b, a))
        assert diff < 1e-10 * scale


def _gram_entry_oracle(m, n):
    """G[m, n] in mpmath from the raw-polynomial overlap's 2F1 closed form
    (the form of `halfline_overlap`), independent of the Wronskian."""
    if (m + n) % 2 == 0:
        return mp.mpf(1) / 2 if m == n else mp.mpf(0)
    with mp.workdps(40):
        c = 1 - mp.mpf(m + n) / 2
        raw = (mp.sqrt(mp.pi) * mp.hyp2f1(-m, -n, c, mp.mpf(1) / 2)
               / (mp.mpf(2) ** (1 - m - n) * mp.gamma(c)))
        return raw / mp.sqrt(mp.mpf(2) ** (m + n) * mp.factorial(m) * mp.factorial(n) * mp.pi)


@pytest.mark.parametrize("size, pairs", [
    (479, [(478, 477), (0, 477), (477, 477), (2, 477), (100, 3), (478, 1)]),
    (1447, [(1446, 1445), (0, 1445), (1446, 1), (700, 701), (1000, 3), (1445, 1445)])])
def test_gram_matrix_matches_mpmath_past_any_quadrature_rule(size, pairs):
    # the sizes lie past P = 325, where a Gauss rule stopping at x = 27.3
    # loses the top levels (G[477, 477] came out 0.342 there)
    ent = gram_matrix(size).entries
    for m, n in pairs:
        want = _gram_entry_oracle(m, n)
        assert ent[m, n] == ent[n, m]
        assert abs(ent[m, n] - want) <= 1e-14 * abs(want), (m, n)


@pytest.mark.parametrize("size", [400, 479, 1001])
def test_gram_matrix_is_exact_within_each_parity(size):
    ent = gram_matrix(size).entries
    assert np.all(np.diag(ent) == 0.5)
    for parity in (0, 1):
        block = ent[parity::2, parity::2]
        assert np.all(block[~np.eye(block.shape[0], dtype=bool)] == 0.0)


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
    t = math.sqrt(2.0) * g.entries[1::2, :]
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
    with pytest.raises(ValueError, match="Gram matrix is not symmetric"):
        GramMatrix(np.array([[0.5, 0.2], [0.3, 0.5]]))
    with pytest.raises(ValueError, match="Gram matrix has a negative eigenvalue"):
        GramMatrix(np.array([[0.5, 0.9], [0.9, 0.5]]))
    with pytest.raises(ValueError):
        gram_matrix(0)


# ----------------------------------------------------------------------------
# splitter blocks
# ----------------------------------------------------------------------------

def _su2_generator(total: int, setting: BeamSplitterSetting) -> np.ndarray:
    """tau K+ - conj(tau) K- on the fixed-total subspace (oracle helper),
    tau = (theta/2) e^{i phi}."""
    n = total + 1
    tau = setting.theta / 2 * np.exp(1j * setting.phi)
    g = np.zeros((n, n), dtype=complex)
    for k in range(total):
        step = math.sqrt((k + 1) * (total - k))
        g[k + 1, k] = tau * step
        g[k, k + 1] = -np.conj(tau) * step
    return g


@pytest.mark.parametrize("theta, phi", [
    (math.pi / 2, 0.0), (1.0, 0.4), (0.3, -1.2), (2.8, 2.0),
])
def test_spectral_blocks_match_the_exponential_oracle(theta, phi):
    setting = BeamSplitterSetting(theta, phi)
    for total in range(13):
        block = beamsplitter_block(total, setting)
        oracle = expm(_su2_generator(total, setting))
        assert np.max(np.abs(block - oracle)) < 1e-12, total


def test_bundled_oracle_agrees_with_local_expm():
    setting = BeamSplitterSetting(1.3, 0.7)
    for total in (0, 3, 8):
        assert np.allclose(beamsplitter_block_oracle(total, setting),
                           expm(_su2_generator(total, setting)), atol=1e-12)


def test_spectral_blocks_are_unitary_at_large_totals():
    for total in (1, 7, 40, 160, 320):
        b = beamsplitter_block(total, BeamSplitterSetting(math.pi / 2, 0.3))
        defect = np.max(np.abs(b @ b.conj().T - np.eye(total + 1)))
        assert defect < 5e-14, total


def test_block_limits():
    assert beamsplitter_block(0, BeamSplitterSetting(1.0, 0.5)) == pytest.approx(np.ones((1, 1)))
    assert np.allclose(beamsplitter_block(5, BeamSplitterSetting(0.0)), np.eye(6), atol=1e-14)
    # total = 2 carries spin 1: the middle element is cos(theta)
    b = beamsplitter_block(2, BeamSplitterSetting(1.1))
    assert b[1, 1] == pytest.approx(math.cos(1.1), abs=1e-13)


@pytest.mark.parametrize("builder", [beamsplitter_block, beamsplitter_block_bch])
def test_block_builders_hand_out_fresh_blocks(builder):
    setting = BeamSplitterSetting(1.0, 0.0)
    block = builder(2, setting)
    expected = block.copy()
    block[0, 0] = 99.0
    assert np.array_equal(builder(2, setting), expected)


def test_factorized_blocks_agree_at_small_totals():
    for setting in (BALANCED, BeamSplitterSetting(0.7, 1.1)):
        for total in range(11):
            bch = beamsplitter_block_bch(total, setting)
            spectral = beamsplitter_block(total, setting)
            assert np.max(np.abs(bch - spectral)) < 1e-10, (total, setting)


def test_factorized_blocks_lose_precision_at_large_totals():
    # documented instability of the triangular factorized evaluation:
    # entries grow like tan(theta/2)^k sqrt(binomials) and cancel, so
    # unitarity degrades catastrophically while the spectral route stays
    # exact (see module docstring)
    b40 = beamsplitter_block_bch(40, BALANCED)
    defect40 = np.max(np.abs(b40 @ b40.conj().T - np.eye(41)))
    assert defect40 > 1e-3
    b60 = beamsplitter_block_bch(60, BALANCED)
    defect60 = np.max(np.abs(b60 @ b60.conj().T - np.eye(61)))
    assert defect60 > 1e6


# ----------------------------------------------------------------------------
# applying the splitter
# ----------------------------------------------------------------------------

def _embedded(cs, cutoff: int) -> np.ndarray:
    """|extremal> (x) |cs> over `cutoff` full-line levels, from the mode
    coefficients an entropy scan packs."""
    mode_a, mode_b = entangle._embedded_modes(cs, cutoff)
    return np.outer(entangle._odd_levels(mode_a, cutoff), entangle._odd_levels(mode_b, cutoff))


def test_apply_preserves_norm_and_total_photon_number(rng):
    n = 12
    amp = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    amp[np.add.outer(np.arange(n), np.arange(n)) >= n] = 0.0
    state = amp / np.linalg.norm(amp)
    out = beamsplitter_apply(state, BeamSplitterSetting(0.9, 0.3))
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
    # block structure: each anti-diagonal transforms within itself
    for total in range(n):
        k = np.arange(total + 1)
        w_in = np.linalg.norm(state[k, total - k])
        w_out = np.linalg.norm(out[k, total - k])
        assert w_out == pytest.approx(w_in, abs=1e-12)


def test_apply_roundtrip_with_opposite_phase(rng):
    # the inverse splitter keeps theta (domain [0, pi)) and shifts the
    # phase by pi, negating the generator
    n = 10
    amp = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    amp[np.add.outer(np.arange(n), np.arange(n)) >= n] = 0.0
    state = amp / np.linalg.norm(amp)
    there = beamsplitter_apply(state, BeamSplitterSetting(0.8, 0.2))
    back = beamsplitter_apply(there, BeamSplitterSetting(0.8, 0.2 + math.pi))
    assert np.max(np.abs(back - state)) < 1e-12


def test_setting_domain_validation():
    with pytest.raises(ValueError):
        BeamSplitterSetting(-0.8, 0.2)
    with pytest.raises(ValueError):
        BeamSplitterSetting(math.pi, 0.0)
    for phi in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="phi must be finite"):
            BeamSplitterSetting(1.0, phi)


def test_apply_guards_the_cutoff():
    amp = np.zeros((4, 4), dtype=complex)
    amp[3, 3] = 1.0  # total 6 >= cutoff 4
    with pytest.raises(TruncationTooSmall,
                       match="populated total photon number 6 needs cutoff > 4"):
        beamsplitter_apply(amp, BeamSplitterSetting(0.5, 0.0))


def test_hong_ou_mandel_cancellation():
    amp = np.zeros((4, 4), dtype=complex)
    amp[1, 1] = 1.0
    out = beamsplitter_apply(amp, BALANCED)
    assert abs(out[1, 1]) < 1e-12
    assert abs(out[2, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert abs(out[0, 2]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


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
    setting = BeamSplitterSetting(theta, phi)
    out = beamsplitter_apply(amp, setting)
    for total in range(amp.shape[0]):
        k = np.arange(total + 1)
        expected = beamsplitter_block(total, setting) @ amp[k, total - k]
        assert np.max(np.abs(out[k, total - k] - expected)) <= 1e-13, total


@settings(max_examples=40, deadline=None)
@given(amp=_populated_states(), theta=st.floats(0.0, math.pi, exclude_max=True),
       phi=st.floats(-math.pi, math.pi))
def test_apply_preserves_the_norm_of_random_states(amp, theta, phi):
    norm = np.linalg.norm(amp)
    assume(norm > 0.0)
    out = beamsplitter_apply(amp / norm, BeamSplitterSetting(theta, phi))
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


def test_apply_leaves_no_complex_blocks_behind(monkeypatch):
    def no_block(*args):
        raise AssertionError("beamsplitter_apply formed a block")

    monkeypatch.setattr(entangle, "beamsplitter_block", no_block)
    monkeypatch.setattr(entangle, "beamsplitter_block_bch", no_block)
    state = _embedded(build_cs(Family.LOWERING, 0.8, truncation=12), 32)
    beamsplitter_apply(state, BeamSplitterSetting(1.1, 0.4))
    blocks = [block for _, block in entangle._risbo_blocks(20, 1.1)]
    assert all(block.dtype == np.float64 for block in blocks)


def test_apply_gives_the_hong_ou_mandel_null_to_rounding():
    amp = np.zeros((4, 4), dtype=complex)
    amp[1, 1] = 1.0
    out = beamsplitter_apply(amp, BALANCED)
    assert abs(out[1, 1]) < 1e-15


# ----------------------------------------------------------------------------
# Risbo's recursion against independent oracles
# ----------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(theta=st.floats(0.0, math.pi, exclude_max=True),
       phi=st.floats(-math.pi, math.pi))
def test_swept_blocks_match_the_exponential_oracle(theta, phi):
    # the production sweep applied to every unit state |k, total-k>, total
    # <= 20, gives each block column by column; packed, the unit states are
    # the rows of the identity
    top = 20
    setting = BeamSplitterSetting(theta, phi)
    pack = entangle._Diagonals(top + 1, range(top + 1), (top + 1) * (top + 2) // 2)
    pack.data[:] = np.eye(len(pack.data))
    entangle._rotate_in_place([pack], setting)
    for total in range(top + 1):
        span = slice(pack.starts[total], pack.starts[total] + total + 1)
        swept = pack.data[span, span].T
        oracle = beamsplitter_block_oracle(total, setting)
        assert np.max(np.abs(swept - oracle)) <= 1e-13, total


def _wigner_d(total: int, theta: float, i: int, k: int) -> float:
    """<i, total-i|U(theta, phi=0)|k, total-k> from Wigner's explicit sum:
    d^j_{m'm}(theta) with j = total/2, m' = j - i, m = j - k, evaluated in
    mpmath at 50 digits."""
    with mp.workdps(50):
        c, s = mp.cos(mp.mpf(theta) / 2), mp.sin(mp.mpf(theta) / 2)
        f = mp.factorial
        norm = mp.sqrt(f(total - i) * f(i) * f(total - k) * f(k))
        value = mp.mpf(0)
        for n in range(max(0, i - k), min(total - k, i) + 1):
            value += ((-1) ** (k - i + n) * norm
                      / (f(total - k - n) * f(n) * f(k - i + n) * f(i - n))
                      * c ** (total + i - k - 2 * n) * s ** (k - i + 2 * n))
        return float(value)


@pytest.mark.parametrize("total, theta", [(1, 0.9), (7, 0.7), (30, math.pi / 2), (64, 2.9)])
def test_recursion_matches_wigners_explicit_sum(total, theta):
    block = next(b for t, b in entangle._risbo_blocks(total, theta) if t == total)
    rows = sorted({0, 1, total // 3, total // 2, total})
    for i in rows:
        for k in range(total + 1):
            assert abs(block[i, k] - _wigner_d(total, theta, i, k)) <= 1e-14, (i, k)


def test_recursion_stays_orthogonal_at_total_822():
    # the largest total a scan at --basis 275 populates; the ~1446 of the
    # current maximum takes about 30 s to reach
    block = next(b for t, b in entangle._risbo_blocks(822, 1.3) if t == 822)
    assert np.max(np.abs(block @ block.T - np.eye(823))) < 1e-13


def test_recursion_is_the_identity_at_zero_angle():
    assert all(np.array_equal(block, np.eye(total + 1))
               for total, block in entangle._risbo_blocks(300, 0.0))
    state = _embedded(build_cs(Family.LOWERING, 0.7, truncation=12), 32)
    out = beamsplitter_apply(state, BeamSplitterSetting(0.0, 0.0))
    assert np.array_equal(out, state)


# ----------------------------------------------------------------------------
# embedding
# ----------------------------------------------------------------------------

def test_truncated_embedding_structure():
    cs = build_cs(Family.LOWERING, 0.7, truncation=12)
    amp = _embedded(cs, 32)
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
        entangle._embedded_modes(cs, 20)


def test_partner_embedding_residual_guard():
    # the finite-tower functions need ~40 odd levels before the expansion
    # recovers 1 - 1e-6 of the norm: cutoff 60 still fails, 80 passes
    cs = build_cs(Family.SUSY_NEW, 1.0)
    for cutoff in (40, 60):
        with pytest.raises(TruncationTooSmall, match=f"of the norm at cutoff {cutoff}$"):
            entangle._embedded_modes(cs, cutoff)
    mode_a, mode_b = entangle._embedded_modes(cs, 80)
    assert mode_a.size == mode_b.size == 40  # the odd levels below 80


def test_iso_embedding_at_zero_label_is_the_lowest_pair():
    # z = 0 collapses the infinite-tower state onto its bottom level, so
    # the embedding is the product (lowest new level) x (tower-bottom image)
    cs = build_cs(Family.SUSY_ISO, 0.0, truncation=16)
    state = _embedded(cs, 96)
    u_mat, sing, v_mat = np.linalg.svd(state)
    assert sing[0] == pytest.approx(1.0, abs=1e-6)
    assert sing[1] < 1e-12  # exactly rank one
    # mode A carries the same extremal state for either partner tower
    new_state = _embedded(build_cs(Family.SUSY_NEW, 0.0), 96)
    u_new = np.linalg.svd(new_state)[0][:, 0]
    cos = abs(np.vdot(u_mat[:, 0], u_new))
    assert cos == pytest.approx(1.0, abs=1e-8)


# ----------------------------------------------------------------------------
# reduction and entropy
# ----------------------------------------------------------------------------

def test_reduced_density_of_a_product_state_is_pure():
    cs = build_cs(Family.LOWERING, 0.9, truncation=16)
    state = _embedded(cs, 40)
    rho = reduced_density(state, gram_matrix(40))
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert linear_entropy(rho) < 1e-12


def test_reduced_density_checks_gram_size():
    cs = build_cs(Family.LOWERING, 0.5, truncation=12)
    state = _embedded(cs, 32)
    with pytest.raises(ValueError):
        reduced_density(state, gram_matrix(16))
    with pytest.raises(ValueError):
        reduced_density(state[:, :31], gram_matrix(32))  # not square
    with pytest.raises(ValueError):
        reduced_density(state[:31, :31], gram_matrix(32))  # square, the wrong size


def test_reduced_density_rejects_non_finite_amplitudes():
    state = _embedded(build_cs(Family.LOWERING, 0.5, truncation=12), 32)
    state[3, 5] = np.nan
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        reduced_density(state, gram_matrix(32))


def test_a_scan_with_a_nan_phase_raises():
    with pytest.raises(ValueError):
        entropy_scan(Family.LOWERING, [0.5], setting=BeamSplitterSetting(1.0, math.nan),
                     cutoff=43)
    # past the setting's own guard, the NaN the sweep spreads stops at the reduction
    unguarded = types.SimpleNamespace(theta=1.0, phi=math.nan)
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        entropy_scan(Family.LOWERING, [0.5], setting=unguarded, cutoff=43)


def test_linear_entropy_reference_points():
    assert linear_entropy(np.diag([1.0, 0.0, 0.0])) == 0.0
    d = 5
    assert linear_entropy(np.eye(d) / d) == pytest.approx(1.0 - 1.0 / d, rel=1e-12)
    with pytest.raises(ValueError):
        linear_entropy(np.array([[0.5, 0.1], [0.4, 0.5]]))
    with pytest.raises(ValueError):
        linear_entropy(np.diag([0.7, 0.7]))
    # NaN fails the guards instead of passing them
    with pytest.raises(ValueError):
        linear_entropy(np.full((2, 2), np.nan))
    with pytest.raises(ValueError):
        linear_entropy(np.diag([np.nan, 1.0]))


def test_splitter_generates_entanglement_from_the_embedded_pair():
    cs = build_cs(Family.LOWERING, 0.9, truncation=16)
    state = _embedded(cs, 40)
    out = beamsplitter_apply(state, BALANCED)
    rho = reduced_density(out, gram_matrix(40))
    s = linear_entropy(rho)
    assert 0.0 < s < 1.0


def test_entropy_scan_regressions_truncated():
    rec = entropy_scan(Family.LOWERING, [0.5], BALANCED, cutoff=32, n_terms=12)[0]
    assert isinstance(rec, EntropyRecord)
    assert rec.entropy == pytest.approx(0.500008154785, abs=1e-9)
    assert rec.entropy_refined == pytest.approx(0.500009223416, abs=1e-9)
    assert rec.converged
    assert rec.cutoff == 32


def test_entropy_scan_regressions_partner_towers():
    new = entropy_scan(Family.SUSY_NEW, [1.0], BALANCED, cutoff=80)[0]
    assert new.entropy == pytest.approx(0.539369533205, abs=1e-9)
    assert new.converged
    iso = entropy_scan(Family.SUSY_ISO, [0.5], BALANCED, cutoff=96, n_terms=32)[0]
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
    with t = cos(theta/2) and r = -sin(theta/2), a rotation by theta/2 (Kim, Son, Buzek and
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
    t, r = math.cos(theta / 2.0), -math.sin(theta / 2.0)
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
    # one sweep builds each total's block once for a whole chunk of points,
    # and no eigensolve runs
    entangle._susy_level_projections.cache_clear()
    row_calls, sweeps = [], []
    real_rows, real_rotate = entangle.rows, entangle._rotate_in_place

    def counting_rows(*args, **kwargs):
        row_calls.append(args[:2])
        return real_rows(*args, **kwargs)

    def counting_rotate(packs, setting):
        sweeps.append([pack.data.shape for pack in packs])
        return real_rotate(packs, setting)

    def no_eigh(*args, **kwargs):
        raise AssertionError("entropy_scan ran an eigensolve")

    monkeypatch.setattr(entangle, "rows", counting_rows)
    monkeypatch.setattr(entangle, "_rotate_in_place", counting_rotate)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    z = np.linspace(0.0, 1.0, 9)
    entropy_scan(Family.SUSY_ISO, z, BALANCED, cutoff=80)
    # the odd basis (truncated, 40 and 60 levels), mode A (susy-new, 1 level)
    # and the tower levels (susy-iso, 32 levels), at cutoffs 80 and 120
    assert sorted(row_calls) == sorted(
        (basis, n) for c in (80, 120)
        for basis, n in ((Basis.TRUNCATED, c // 2), (Basis.SUSY_NEW, 1), (Basis.SUSY_ISO, 32)))
    # the 9 points of both cutoffs in one sweep, packed: modes A and B span
    # the 40 (60) odd levels below 80 (120), so the even totals 2 .. 158
    # (238) hold 80^2 - 1 (120^2 - 1) entries
    assert sweeps == [[(9, 80 ** 2 - 1), (9, 120 ** 2 - 1)]]
    entropy_scan(Family.SUSY_ISO, z, setting=BeamSplitterSetting(1.2, 0.3),
                 cutoff=80)
    assert len(row_calls) == 6 and len(sweeps) == 2
    proj = entangle._susy_level_projections(Basis.SUSY_ISO, 32, 80)
    assert not proj.flags.writeable


def test_scan_points_do_not_depend_on_their_chunk(monkeypatch):
    # each state goes through its own product, so a point's record is the
    # same bit for bit whether it is swept alone, in one chunk of all points
    # or in chunks of one point each
    z = np.linspace(0.2, 1.0, 5)
    setting = BeamSplitterSetting(1.3, 0.4)
    together = entropy_scan(Family.SUSY_NEW, z, setting=setting, cutoff=80)
    alone = [entropy_scan(Family.SUSY_NEW, [x], setting=setting, cutoff=80)[0] for x in z]
    assert together == alone
    sweeps, calls = [], []
    real_rotate, real_build, real_gram = (entangle._rotate_in_place, entangle.build_cs,
                                          entangle.gram_matrix)

    def counting_rotate(packs, setting):
        sweeps.append(len(packs[0].data))
        return real_rotate(packs, setting)

    def counting(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    monkeypatch.setattr(entangle, "_rotate_in_place", counting_rotate)
    monkeypatch.setattr(entangle, "build_cs", counting("build_cs", real_build))
    monkeypatch.setattr(entangle, "gram_matrix", counting("gram_matrix", real_gram))
    monkeypatch.setattr(entangle, "_SWEEP_STATE_BYTES", 2 * 16 * (80 ** 2 - 1 + 120 ** 2 - 1))
    assert entangle.points_per_sweep(80) == 2
    assert entropy_scan(Family.SUSY_NEW, z, setting=setting, cutoff=80) == together
    assert sweeps == [2, 2, 1]
    # each input is built once: one Gram matrix per cutoff, one state per point
    assert (calls.count("gram_matrix"), calls.count("build_cs")) == (2, 5)
    assert entropy_scan(Family.SUSY_NEW, [], setting, cutoff=80) == []


def _one_point_entropy(family: Family, z_abs: float, cutoff: int,
                       setting: BeamSplitterSetting) -> float:
    """Linear entropy of one state at one cutoff through the public one-state
    path: the embedded state padded to 2c - 1 levels, rotated and reduced."""
    cs = build_cs(family, z_abs, truncation=WINDOWS[family].entropy_terms)
    size = 2 * cutoff - 1
    amps = np.zeros((size, size), dtype=complex)
    amps[:cutoff, :cutoff] = _embedded(cs, cutoff)
    out = beamsplitter_apply(amps, setting)
    return linear_entropy(reduced_density(out, gram_matrix(size)))


@pytest.mark.parametrize("family, cutoff", [(Family.LOWERING, 43), (Family.SUSY_NEW, 80)])
def test_scan_records_equal_the_one_point_path(monkeypatch, family, cutoff):
    # packing, one batched sweep per chunk and the reduction's reused buffer
    # change no bit of a record; five points run in chunks of two
    monkeypatch.setattr(entangle, "_SWEEP_STATE_BYTES", 2 * entangle._point_state_bytes(cutoff))
    assert entangle.points_per_sweep(cutoff) == 2
    setting = BeamSplitterSetting(1.2, 0.7)
    records = entropy_scan(family, np.linspace(0.2, 1.4, 5), setting=setting, cutoff=cutoff)
    for rec in records:
        assert (rec.entropy, rec.entropy_refined) == tuple(
            _one_point_entropy(family, rec.z_abs, c, setting)
            for c in (cutoff, int(1.5 * cutoff))), rec.z_abs


@pytest.mark.parametrize("cutoff", [78, 120, 331])
def test_blocked_projections_equal_the_full_table_formula(cutoff):
    # fock.rows builds the odd basis a block of 512 nodes at a time, with the
    # bits of one unblocked block over all nodes; the projections match the
    # weighted odd rows cut from one full Hermite table to 1e-15 of each
    # level's norm (the worst seen is 2.2e-16)
    rule = gauss_halfline(entangle._projection_degree(cutoff))
    assert rule.nodes.size > 512  # more than one block of nodes
    k_count = cutoff // 2
    block = np.empty((1, k_count, rule.nodes.size))
    _truncated_block(k_count, rule.nodes, 0, block)
    assert np.array_equal(rows(Basis.TRUNCATED, k_count, rule.nodes), block)
    bw = math.sqrt(2.0) / math.pi ** 0.25 * hermite_normalized(2 * k_count - 1, rule.nodes)[1::2]
    bw *= rule.weights
    levels = [rows(Basis.SUSY_NEW, 1, rule.nodes)[0, 0], *rows(Basis.SUSY_ISO, 32, rule.nodes)[0]]
    expected = np.array([bw @ level for level in levels])
    got = entangle._susy_level_projections(Basis.SUSY_ISO, 32, cutoff)
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected)
                  <= 1e-15 * np.linalg.norm(expected, axis=1)[:, None])
