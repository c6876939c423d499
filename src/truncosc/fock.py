"""Half-line oscillator eigenbasis, its ladder data and ladder action.

The half-line (truncated) oscillator has V = x^2/2 on x > 0 with a hard
wall at the origin.  Its k-th eigenfunction is sqrt(2) times the full-line
oscillator level 2k+1 restricted to x > 0, with energy 2k + 3/2.  The
squared ladder operators close on this basis with step coefficients
2k(2k+1) and commutator 4H.  The ladder data are plain functions of the
level index, so they take an int or an index array alike.
"""
from __future__ import annotations

import math
from enum import Enum
from functools import partial

import numpy as np

__all__ = [
    "Basis",
    "ladder_step_sq",
    "level_energy",
    "hermite_normalized",
    "weighted_eigenfunction_derivatives",
    "rows",
    "ladder_apply",
]


class Basis(str, Enum):
    TRUNCATED = "truncated"
    SUSY_ISO = "susy-iso"
    SUSY_NEW = "susy-new"


def ladder_step_sq(k):
    """Squared half-line ladder step 2k(2k+1) between levels k-1 and k.

    lower|k> = sqrt(ladder_step_sq(k)) |k-1> and
    raise|k-1> = sqrt(ladder_step_sq(k)) |k>.
    """
    return 2.0 * k * (2 * k + 1)


def level_energy(k):
    """Energy 2k + 3/2 of level k, shared by the half-line oscillator and
    the infinite tower of its isospectral partner."""
    return 2.0 * k + 1.5


# ----------------------------------------------------------------------------
# eigenfunctions
# ----------------------------------------------------------------------------

def hermite_normalized(n_max: int, x) -> np.ndarray:
    """h_n(x) = H_n(x)/sqrt(2^n n!) for n = 0..n_max, shape (n_max+1, len(x)).

    The scaled recurrence h_{n+1} = x sqrt(2/(n+1)) h_n - sqrt(n/(n+1)) h_{n-1}
    keeps values in range where the raw polynomials would overflow.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1, x.size))
    out[0] = 1.0
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x
    for n in range(1, n_max):
        out[n + 1] = x * math.sqrt(2.0 / (n + 1)) * out[n] \
            - math.sqrt(n / (n + 1.0)) * out[n - 1]
    return out


# Nodes per block in rows(), whose blocks write into their slice of its output:
# keeps the Hermite table and the partner temporaries near a megabyte.
_ROW_CHUNK = 512


def rows(basis: Basis, n_levels: int, x, order: int = 0,
         weighted: bool = True) -> np.ndarray:
    """Eigenfunction rows of levels 0..n_levels-1 of a basis, with derivatives.

    Returns shape (order+1, n_levels, len(x)); entry [j, k] is the j-th
    derivative of level k.  weighted=True folds in e^{+x^2/2}: those rows
    stay polynomially bounded and are the integrand factors for Gauss
    half-line rules, whose weights carry e^{-x^2}.  Plain rows get e^{-x^2/2}
    here, block by block, and nowhere else.  The partner bases (susy-iso,
    susy-new) are those of the frozen fourth-order model; order <= 2.
    """
    basis = Basis(basis)
    if n_levels < 1:
        raise ValueError(f"need at least one level, got {n_levels}")
    if order < 0:
        raise ValueError("derivative order must be non-negative")
    if basis != Basis.TRUNCATED and order > 2:
        raise ValueError("partner rows available up to second derivative")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((order + 1, n_levels, x.size))
    if basis == Basis.TRUNCATED:
        block = _truncated_block
    else:
        from . import susy
        block = susy._new_block
        if basis == Basis.SUSY_ISO:
            # the truncated rows the intertwiner reads, one block at a time
            scratch = np.empty((order + 5, n_levels, min(x.size, _ROW_CHUNK)))
            block = partial(susy._iso_block, scratch=scratch)
    for i in range(0, x.size, _ROW_CHUNK):
        xs, part = x[i:i + _ROW_CHUNK], out[:, :, i:i + _ROW_CHUNK]
        block(n_levels, xs, order, part)
        if not weighted:
            part *= np.exp(-xs * xs / 2.0)
    return out


def _ladder_step(coeff: np.ndarray, start: np.ndarray, j: int) -> np.ndarray:
    """One derivative of sum_o coeff[:, o] psi^HO_{start+o}, offsets o = -j..j.

    Uses (psi^HO_m)' = sqrt(m/2) psi^HO_{m-1} - sqrt((m+1)/2) psi^HO_{m+1},
    which is exact.  Returns the coefficients over offsets -j-1..j+1;
    those of negative levels are zero.
    """
    src = start[:, None] + np.arange(-j, j + 1, 2)
    nxt = np.zeros((start.size, j + 2))
    nxt[:, :-1] += coeff * np.sqrt(np.maximum(src, 0) / 2.0)
    nxt[:, 1:] -= coeff * np.sqrt((np.maximum(src, -1) + 1) / 2.0)
    nxt[start[:, None] + np.arange(-j - 1, j + 2, 2) < 0] = 0.0
    return nxt


def _truncated_block(n_levels: int, x: np.ndarray, order: int, out: np.ndarray) -> None:
    """Weighted levels k, sqrt(2) psi^HO_{2k+1} e^{x^2/2}, into out from one Hermite table."""
    h = hermite_normalized(2 * n_levels - 1 + order, x)
    start = 2 * np.arange(n_levels) + 1
    coeff = np.full((n_levels, 1), math.sqrt(2.0))
    for j in range(order + 1):
        if j:
            coeff = _ladder_step(coeff, start, j - 1)
        np.multiply(coeff[:, :1], h[np.maximum(start - j, 0)], out=out[j])
        for i, offset in enumerate(range(2 - j, j + 1, 2), 1):
            out[j] += coeff[:, i, None] * h[np.maximum(start + offset, 0)]
        out[j] *= math.pi ** -0.25


def weighted_eigenfunction_derivatives(k: int, x, order: int = 2) -> np.ndarray:
    """Rows psi_k^{(j)}(x) e^{x^2/2}, j = 0..order (see rows)."""
    return rows(Basis.TRUNCATED, k + 1, x, order)[:, k]


# ----------------------------------------------------------------------------
# ladder action
# ----------------------------------------------------------------------------

def ladder_apply(direction: str, amplitudes) -> np.ndarray:
    """Apply the half-line lowering or raising ladder to level amplitudes."""
    if direction not in ("lower", "raise"):
        raise ValueError("direction must be 'lower' or 'raise'")
    a = np.asarray(amplitudes, dtype=complex)
    steps = np.sqrt(ladder_step_sq(np.arange(1, a.size)))
    out = np.zeros_like(a)
    if direction == "lower":
        out[:-1] = steps * a[1:]
    else:
        out[1:] = steps * a[:-1]
    return out
