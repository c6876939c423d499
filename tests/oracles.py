"""Oracles that only the tests read: independent routes to numbers the
package computes another way.

transformed_eigenfunction_rows is the Wronskian-quotient route to the
partner eigenfunctions for any number of seeds; the package builds the
explicit fourth-order tower through its intertwiner instead (fock.rows).

seed_second_derivative is a seed's u'' from its twice-differentiated
series, against which the package's derivative recurrence is checked.

beamsplitter_apply is the splitter sweep of entangle.entropy_scan on one
square array of two-mode amplitudes.
"""
import math
from typing import Sequence

import numpy as np

from truncosc.entangle import BeamSplitterSetting, _Diagonals, _rotate_in_place
from truncosc.fock import Basis, rows
from truncosc.numerics import hyp1f1
from truncosc.susy import SeedSolution, _raise_if_singular, _wronskian_triple


def transformed_eigenfunction_rows(seeds: Sequence[SeedSolution], n: int,
                                   x: Sequence[float]) -> np.ndarray:
    """(phi, phi', phi'') of the Wronskian-transformed eigenfunction.

    phi = W(u_1..u_q, psi_n) / W(u_1..u_q), unnormalized; valid for any
    seed count q >= 1.  Used as the general-q route (the explicit
    fourth-order model has the faster intertwiner path).
    """
    q = len(seeds)
    if q < 1:
        raise ValueError("need at least one seed")
    x = np.asarray(x, dtype=float)
    order = q + 2
    stack = np.array([s.derivatives(x, order=order) for s in seeds]
                     + [rows(Basis.TRUNCATED, n + 1, x, order, weighted=False)[:, n]])
    a, ap, app = _wronskian_triple(stack)
    b, bp, bpp = _wronskian_triple(stack[:q])
    _raise_if_singular(b, x)
    phi = a / b
    phip = (ap - phi * bp) / b
    phipp = (app - 2.0 * phip * bp - phi * bpp) / b
    return np.array([phi, phip, phipp])


def seed_second_derivative(seed: SeedSolution, x: Sequence[float]) -> np.ndarray:
    """u'' of the seed from its twice-differentiated series.

    Uses only the contiguous derivative identity of the confluent series,
    never the differential equation, so it can certify the recurrence of
    SeedSolution.derivatives.
    """
    x = np.asarray(x, dtype=float)
    ae, ao = seed._a_even, seed._a_odd
    c = seed._mixing
    coeff = math.copysign(1.0, seed.nu) if c is None else c
    h = np.zeros_like(x, dtype=float)
    h1 = np.zeros_like(h)
    h2 = np.zeros_like(h)
    if coeff != 0.0:
        fo = hyp1f1(ao, 1.5, x * x)
        fo1 = hyp1f1(ao + 1.0, 2.5, x * x)
        fo2 = hyp1f1(ao + 2.0, 3.5, x * x)
        g = x * fo
        g1 = fo + (4.0 * ao / 3.0) * x * x * fo1
        g2 = 3.0 * (4.0 * ao / 3.0) * x * fo1 + (16.0 / 15.0) * ao * (ao + 1.0) * x ** 3 * fo2
        h += coeff * g
        h1 += coeff * g1
        h2 += coeff * g2
    if c is not None:
        fe = hyp1f1(ae, 0.5, x * x)
        fe1 = hyp1f1(ae + 1.0, 1.5, x * x)
        fe2 = hyp1f1(ae + 2.0, 2.5, x * x)
        h += fe
        h1 += 4.0 * ae * x * fe1
        h2 += 4.0 * ae * fe1 + (16.0 / 3.0) * ae * (ae + 1.0) * x * x * fe2
    w = np.exp(-x * x / 2.0)
    return w * (h2 - 2.0 * x * h1 + (x * x - 1.0) * h)


def beamsplitter_apply(amplitudes: np.ndarray, setting: BeamSplitterSetting) -> np.ndarray:
    """The splitter applied to the amplitudes over |alpha, beta> full-line
    levels, a new complex array: each populated anti-diagonal is packed and
    rotated by its Risbo block, as in entropy_scan.  Raises TruncationTooSmall
    when a populated total reaches the array's size."""
    totals = sorted(set(np.add(*np.nonzero(amplitudes)).tolist()))
    pack = _Diagonals(len(amplitudes), totals, 1)
    pack.data[0] = amplitudes[pack.rows, pack.cols]
    _rotate_in_place([pack], setting)
    out = np.array(amplitudes, dtype=complex)
    out[pack.rows, pack.cols] = pack.data[0]
    return out
