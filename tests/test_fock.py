"""Half-line oscillator basis, ladder data, and Fock vectors."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import truncosc.fock as fock_module
from truncosc.errors import BasisMismatch, IndexOutOfRange
from truncosc.fock import (
    Basis,
    FockVector,
    hermite_normalized,
    ladder_apply,
    ladder_step_sq,
    level_energy,
    rows,
    weighted_eigenfunction_derivatives,
)
from truncosc.numerics import gauss_halfline


# ----------------------------------------------------------------------------
# eigenfunctions
# ----------------------------------------------------------------------------

def test_halfline_levels_are_scaled_odd_fullline_levels():
    x = np.linspace(0.05, 5.0, 40)
    for k in range(4):
        n = 2 * k + 1
        psi_n = math.pi ** -0.25 * np.exp(-0.5 * x * x) * hermite_normalized(n, x)[n]
        assert np.allclose(rows(Basis.TRUNCATED, k + 1, x, weighted=False)[0, k],
                           math.sqrt(2.0) * psi_n, rtol=0, atol=1e-14)


def test_halfline_levels_are_orthonormal_on_the_halfline():
    rule = gauss_halfline(degree=80)
    n_levels = 8
    rows = np.array([
        weighted_eigenfunction_derivatives(k, rule.nodes, order=0)[0]
        for k in range(n_levels)
    ])
    gram = (rows * rule.weights) @ rows.T
    assert np.max(np.abs(gram - np.eye(n_levels))) < 1e-12


def test_eigenfunction_vanishes_at_the_wall():
    for k in range(5):
        assert abs(rows(Basis.TRUNCATED, k + 1, 0.0, weighted=False)[0, k, 0]) < 1e-15


def test_derivative_rows_satisfy_the_schroedinger_equation():
    # -phi''/2 + (x^2/2) phi = E phi pointwise
    x = np.linspace(0.1, 4.0, 60)
    for k in range(5):
        phi, _, phi2 = rows(Basis.TRUNCATED, k + 1, x, 2, weighted=False)[:, k]
        residual = -0.5 * phi2 + 0.5 * x * x * phi - (2 * k + 1.5) * phi
        assert np.max(np.abs(residual)) < 1e-10, f"level {k}"


def test_first_derivative_row_matches_finite_differences():
    x = np.linspace(0.3, 3.0, 12)
    h = 1e-6
    for k in (0, 2):
        _, d1 = rows(Basis.TRUNCATED, k + 1, x, 1, weighted=False)[:, k]
        fd = (rows(Basis.TRUNCATED, k + 1, x + h, weighted=False)[0, k]
              - rows(Basis.TRUNCATED, k + 1, x - h, weighted=False)[0, k]) / (2 * h)
        assert np.allclose(d1, fd, rtol=1e-7, atol=1e-7)


def test_weighted_rows_are_plain_rows_times_gaussian():
    x = np.linspace(0.2, 3.5, 17)
    w = weighted_eigenfunction_derivatives(3, x, order=2)
    plain = rows(Basis.TRUNCATED, 4, x, 2, weighted=False)[:, 3]
    assert np.allclose(w * np.exp(-0.5 * x * x), plain, rtol=1e-13, atol=1e-13)


def test_hermite_normalized_stays_finite_at_high_order():
    x = np.linspace(-8.0, 8.0, 101)
    h = hermite_normalized(200, x)
    assert np.all(np.isfinite(h))
    # cross-check the scaling against mpmath's Hermite polynomial at a safe order
    n = 12
    raw = np.array([float(mp.hermite(n, float(t)) / mp.sqrt(2 ** n * mp.factorial(n)))
                    for t in x])
    assert np.allclose(h[n], raw, rtol=1e-10, atol=1e-10)


# ----------------------------------------------------------------------------
# the row engine
# ----------------------------------------------------------------------------

def test_truncated_rows_match_mpmath_hermite_functions():
    # psi_k = sqrt(2) psi^HO_n with n = 2k+1; analytic derivatives from
    # H_n' = 2n H_{n-1} and psi'' = (x^2 - 2n - 1) psi
    x = np.linspace(0.1, 7.0, 12)
    n_levels = 41
    got = {w: rows(Basis.TRUNCATED, n_levels, x, order=2, weighted=w)
           for w in (True, False)}
    assert got[True].shape == (3, n_levels, x.size)
    with mp.workdps(40):
        for k in range(n_levels):
            n = 2 * k + 1
            scale = mp.sqrt(2) * mp.pi ** mp.mpf(-0.25) / mp.sqrt(2 ** n * mp.factorial(n))
            for weighted, r in got.items():
                want = np.empty((3, x.size))
                for i, xv in enumerate(x):
                    t = mp.mpf(float(xv))
                    c = scale if weighted else scale * mp.exp(-t * t / 2)
                    hn, hm = mp.hermite(n, t), mp.hermite(n - 1, t)
                    want[:, i] = [float(c * hn), float(c * (2 * n * hm - t * hn)),
                                  float(c * (t * t - 2 * n - 1) * hn)]
                for j in range(3):
                    dev = np.max(np.abs(r[j, k] - want[j])) / np.max(np.abs(want[j]))
                    assert dev <= 1e-12, (k, j, weighted, dev)


def test_rows_validate_their_arguments():
    with pytest.raises(IndexOutOfRange):
        rows(Basis.TRUNCATED, 0, [0.5])
    with pytest.raises(ValueError):
        rows("full-line", 3, [0.5])
    with pytest.raises(ValueError):
        rows(Basis.SUSY_ISO, 3, [0.5], order=3)


def test_rows_run_one_hermite_recurrence_per_node_chunk(monkeypatch):
    calls = []
    original = fock_module.hermite_normalized

    def counting(n_max, x):
        calls.append(np.size(x))
        return original(n_max, x)

    monkeypatch.setattr(fock_module, "hermite_normalized", counting)
    nodes = gauss_halfline(4 * (2 * 48 + 3) + 32).nodes
    chunks = -(-nodes.size // fock_module._ROW_CHUNK)
    for basis in (Basis.TRUNCATED, Basis.SUSY_ISO):
        calls.clear()
        rows(basis, 48, nodes, order=1)
        assert len(calls) == chunks and sum(calls) == nodes.size


def test_partner_rows_stay_within_a_chunked_memory_bound():
    # 48 levels and slopes on the 5588-node rule of the susy-iso
    # uncertainty tables: 4.3 MB of output and a 7.7 MB peak in node
    # chunks; evaluated on all nodes at once the peak is 41 MB
    nodes = gauss_halfline(4 * (2 * 48 + 3) + 32).nodes
    assert nodes.size == 5588
    tracemalloc.start()
    try:
        out = rows(Basis.SUSY_ISO, 48, nodes, order=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes < 4.5e6
    assert peak < 12e6, f"peak {peak / 1e6:.1f} MB"


# ----------------------------------------------------------------------------
# ladder data
# ----------------------------------------------------------------------------

def test_truncated_ladder_step_coefficients():
    assert ladder_step_sq(0) == 0.0
    assert ladder_step_sq(1) == 6.0
    assert ladder_step_sq(2) == 20.0
    assert level_energy(2) == 5.5


def test_squared_ladder_commutator_closes_on_the_energy():
    # step(k+1) - step(k) = 8k + 6 = 4 E_k, exactly in floats
    k = np.arange(41)
    assert np.max(np.abs(ladder_step_sq(k + 1) - ladder_step_sq(k)
                         - 4.0 * level_energy(k))) == 0.0


def test_ladder_apply_lowering_and_raising():
    v = FockVector(Basis.TRUNCATED, np.array([0.0, 0.0, 1.0]))
    low = ladder_apply("lower", v)
    assert low.amplitudes[1] == pytest.approx(math.sqrt(20.0))
    up = ladder_apply("raise", FockVector(Basis.TRUNCATED, [1.0, 0.0, 0.0]))
    assert up.amplitudes[1] == pytest.approx(math.sqrt(6.0))
    assert up.amplitudes[0] == 0.0


def test_lowering_annihilates_the_ground_level():
    v = FockVector(Basis.TRUNCATED, np.array([1.0, 0.0]))
    low = ladder_apply("lower", v)
    assert low.norm() == 0.0


def test_ladder_apply_rejects_basis_mismatch():
    v = FockVector(Basis.SUSY_ISO, np.array([1.0, 0.0]))
    with pytest.raises(BasisMismatch):
        ladder_apply("lower", v)
    with pytest.raises(ValueError):
        ladder_apply("sideways",
                     FockVector(Basis.TRUNCATED, np.array([1.0, 0.0])))


def test_fock_vector_normalization():
    v = FockVector(Basis.TRUNCATED, np.array([3.0, 4.0]))
    assert v.norm() == 5.0
    assert v.truncation == 2
    with pytest.raises(ValueError):
        FockVector(Basis.TRUNCATED, np.zeros((2, 2)))

