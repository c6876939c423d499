"""Oracles that only the tests read: independent routes to numbers the
package computes another way.

transformed_eigenfunction_rows is the Wronskian-quotient route to the
partner eigenfunctions for any number of seeds; the package builds the
explicit fourth-order tower through its intertwiner instead (fock.rows).

beamsplitter_apply is the splitter sweep of entangle.entropy_scan on one
square array of two-mode amplitudes.
"""
from typing import Sequence

import numpy as np

from truncosc.entangle import BeamSplitterSetting, _Diagonals, _rotate_in_place
from truncosc.fock import Basis, rows
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
