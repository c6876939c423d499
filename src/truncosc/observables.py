"""Position/momentum matrix elements and coherent-state uncertainty products.

Matrix elements in the half-line eigenbasis come from two independent
routes: closed-form expressions (factorial ratios assembled in log space,
terminating Gauss series) and direct quadrature with analytic derivative
rows.  Quadrature is the authoritative source; wherever the closed form
disagrees beyond tolerance the entry is flagged in a discrepancy report
and the quadrature value is used.

Expectation values in a coherent state use the weight matrix
Lambda_mn = c_m conj(c_n) folded into the diagonal-plus-twice-real-part
form, which touches only entries with n >= m.  The lower triangle of a
stored table is therefore bookkeeping; it is filled so that X/X2/P2
tables are real symmetric and the P table satisfies
entry(n, m) = -conj(entry(m, n)) (purely imaginary entries, symmetric
fill).  Note the directed integral of psi_n (-i d/dx) psi_m for n < m is
the conjugate of the (m, n) entry, i.e. the negative of the stored fill;
no expectation value depends on that half.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .coherent import WINDOWS, CoherentState, Family, build_cs
from .errors import TruncationTooSmall
from .fock import Basis, level_energy, rows, weighted_eigenfunction_derivatives
from .numerics import QuadratureRule, gauss_halfline, hyp2f1_terminating, log_gamma_signed

__all__ = [
    "ObservableKind",
    "MatrixElementTable",
    "UncertaintyRecord",
    "matrix_element_closed",
    "matrix_element_quadrature",
    "table_degree",
    "build_table",
    "discrepancy_report",
    "expectation",
    "uncertainty_scan",
]


class ObservableKind(str, Enum):
    X = "X"
    X2 = "X2"
    P = "P"
    P2 = "P2"


@dataclass(frozen=True)
class MatrixElementTable:
    """Dense (n_max+1) x (n_max+1) operator table in a fixed eigenbasis."""

    kind: ObservableKind
    entries: np.ndarray
    basis: Basis

    def __post_init__(self) -> None:
        e = self.entries
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("entries must be a square matrix")
        # written as not (... <= tol), so that a NaN entry fails the checks
        if self.kind in (ObservableKind.X, ObservableKind.X2):
            if not (np.max(np.abs(e - e.T)) <= 1e-10 and np.max(np.abs(e.imag)) <= 1e-10):
                raise ValueError(f"{self.kind.value} table must be real symmetric")
        elif self.kind == ObservableKind.P2:
            if not (np.max(np.abs(e - e.T)) <= 1e-8 and np.max(np.abs(e.imag)) <= 1e-8):
                raise ValueError("P2 table must be real symmetric within 1e-8")
        elif self.kind == ObservableKind.P:
            if not np.max(np.abs(np.diag(e))) <= 1e-10:
                raise ValueError("P table diagonal must vanish")
            if not np.max(np.abs(e + np.conj(e).T)) <= 1e-10:
                raise ValueError("P table must satisfy entry(n,m) = -conj(entry(m,n))")

    @property
    def n_max(self) -> int:
        return self.entries.shape[0] - 1


@dataclass(frozen=True)
class UncertaintyRecord:
    z_modulus: float
    sigma_x: float
    sigma_p: float
    product: float


# ----------------------------------------------------------------------------
# closed forms (half-line eigenbasis only)
# ----------------------------------------------------------------------------

def _closed_x(n: int, m: int) -> float:
    d = n - m
    log_mag = 0.5 * (log_gamma_signed(2 * n + 2)[0] - log_gamma_signed(2 * m + 2)[0])
    lg, sg = log_gamma_signed(d - 0.5)
    log_mag += (d - 1) * math.log(2.0) + lg - math.log(math.pi)
    log_mag -= log_gamma_signed(2 * d + 1)[0]
    sign = (-1.0) ** ((d - 1) % 2) * sg
    f = hyp2f1_terminating(-2 * m - 1, d - 0.5, 2 * d + 1, 2.0)
    return sign * math.exp(log_mag) * f


def _closed_x2(n: int, m: int) -> float:
    out = 0.5 if n == m else 0.0
    if abs(n - m) <= 1:
        log_mag = (0.5 * (log_gamma_signed(2 * n + 2)[0] + log_gamma_signed(2 * m + 2)[0])
                   - log_gamma_signed(n + m + 1)[0])
        weight = 1.0 if n == m else 0.5
        out += weight * math.exp(log_mag)
    return out


def _closed_p(n: int, m: int) -> complex:
    d = n - m
    log_mag = 0.5 * (log_gamma_signed(2 * n + 2)[0] - log_gamma_signed(2 * m + 2)[0])
    lg, sg = log_gamma_signed(d - 0.5)
    log_mag += d * math.log(2.0) + lg - math.log(math.pi)
    log_mag -= log_gamma_signed(2 * d + 2)[0]
    sign = (-1.0) ** (d % 2) * sg
    f = hyp2f1_terminating(-2 * m, d + 0.5, 2 * d + 2, 2.0)
    correction = (2 * m + 1) * sign * math.exp(log_mag) * (2 * d - 1) * f
    return 1j * (_closed_x(n, m) - correction)


def _closed_p2(n: int, m: int) -> float:
    out = 0.5 if n == m else 0.0
    if abs(n - m) <= 1:
        log_mag = (0.5 * (log_gamma_signed(2 * n + 2)[0] + log_gamma_signed(2 * m + 2)[0])
                   - log_gamma_signed(n + m + 1)[0])
        weight = 1.0 if n == m else -0.5
        out += 2.0 * weight * math.exp(log_mag)
    return out


_CLOSED = {ObservableKind.X: _closed_x, ObservableKind.X2: _closed_x2,
           ObservableKind.P: _closed_p, ObservableKind.P2: _closed_p2}


def matrix_element_closed(kind: ObservableKind, n: int, m: int) -> complex:
    """Closed-form matrix element in the half-line eigenbasis.

    Evaluated directly for n >= m; the n < m half follows the fill rule of
    the corresponding table (symmetric for X/X2/P2, negative-conjugate for
    P).  X and P raise DivergenceError where their 2F1 sum breaks the
    rounding rule of hyp2f1_terminating, which indices <= 10 (X), 9 (P) meet.
    """
    kind = ObservableKind(kind)
    if n < 0 or m < 0:
        raise ValueError("matrix element indices must be non-negative")
    if n >= m:
        return complex(_CLOSED[kind](n, m))
    val = complex(_CLOSED[kind](m, n))
    return -np.conj(val) if kind == ObservableKind.P else val


# ----------------------------------------------------------------------------
# quadrature route
# ----------------------------------------------------------------------------

def table_degree(basis: Basis, n_max: int) -> int:
    """Degree of the Gauss rule behind the operator tables of levels 0..n_max,
    on the truncated oscillator or on a partner tower."""
    if Basis(basis) == Basis.TRUNCATED:
        return 4 * n_max + 16
    return 4 * (2 * n_max + 5) + 32


def _table_rule(basis: Basis, n_max: int) -> QuadratureRule:
    """The table_degree rule of levels 0..n_max.  It ends near x = 27.19, where
    e^{-x^2} underflows, and must reach 2.1 past the top level's turning point
    sqrt(2 E) (level_energy bounds E on every basis), else TruncationTooSmall: so a
    table holds levels up to 156, whose X2 and P2 diagonals are exact to 3.1e-15,
    where level 162's X2 diagonal was off by 3.4e-12 and level 200's by 35%."""
    rule = gauss_halfline(table_degree(basis, n_max))
    turning, end = math.sqrt(2.0 * level_energy(n_max)), rule.nodes[-1]
    if turning + 2.1 > end:
        raise TruncationTooSmall(f"the rule would clip level {n_max}, whose turning point "
                                 f"{turning:.4g} is not 2.1 short of its end, x = {end:.4g}")
    return rule


def matrix_element_quadrature(kind: ObservableKind, n: int, m: int) -> complex:
    """Directed integral <n| (x | x^2 | -i d/dx | p^2) |m> by Gauss quadrature.

    The single-element oracle of the half-line eigenbasis, on the rule of
    the table up to max(n, m); tables in any basis come from build_table.
    The momentum-squared element uses the symmetric first-derivative form
    (boundary-safe since all basis functions vanish at the origin).
    """
    kind = ObservableKind(kind)
    rule = _table_rule(Basis.TRUNCATED, max(n, m))
    x, w = rule.nodes, rule.weights
    fn = weighted_eigenfunction_derivatives(n, x, order=1)
    fm = weighted_eigenfunction_derivatives(m, x, order=1)
    if kind == ObservableKind.X:
        return complex(np.sum(w * x * fn[0] * fm[0]))
    if kind == ObservableKind.X2:
        return complex(np.sum(w * x * x * fn[0] * fm[0]))
    if kind == ObservableKind.P:
        return complex(-1j * np.sum(w * fn[0] * fm[1]))
    return complex(np.sum(w * fn[1] * fm[1]))


@lru_cache(maxsize=8)
def _quadrature_tables(n_max: int, basis: Basis) -> dict:
    """The X, X2, P and P2 tables of levels 0..n_max from one fock.rows call
    on the table_degree rule, cached per (n_max, basis).  The clean-up
    strips last-bit quadrature noise, keeps the honest n > m half and fills
    the rest per the module's convention."""
    rule = _table_rule(basis, n_max)
    x, w = rule.nodes, rule.weights
    vals, ders = rows(basis, n_max + 1, x, order=1)
    p = -1j * (vals * w) @ ders.T
    lower = np.tril(1j * ((p - p.T) / 2.0).imag, -1)
    entries = {ObservableKind.P: lower - np.conj(lower).T}
    for kind, raw in ((ObservableKind.X, (vals * (w * x)) @ vals.T),
                      (ObservableKind.X2, (vals * (w * x * x)) @ vals.T),
                      (ObservableKind.P2, (ders * w) @ ders.T)):
        entries[kind] = ((raw + raw.T) / 2.0).real.astype(complex)
    for ent in entries.values():
        ent.flags.writeable = False  # the cache hands these to every caller
    return {kind: MatrixElementTable(kind, ent, basis) for kind, ent in entries.items()}


def build_table(kind: ObservableKind, n_max: int,
                basis: Basis = Basis.TRUNCATED) -> MatrixElementTable:
    """The quadrature table of one operator up to n_max, looked up among the
    four of _quadrature_tables (closed forms are the oracle, through
    matrix_element_closed and discrepancy_report)."""
    return _quadrature_tables(n_max, Basis(basis))[ObservableKind(kind)]


# ----------------------------------------------------------------------------
# discrepancy report
# ----------------------------------------------------------------------------

def discrepancy_report(tol: float = 1e-8) -> list[dict]:
    """Flag closed-form entries that disagree with quadrature beyond tol.

    Returns row dicts (kind, n, m, closed_form, quadrature, abs_diff) for
    all n >= m entries up to level 8; quadrature is treated as truth.
    """
    n_max = 8
    rows = []
    for kind in ObservableKind:
        quad_table = build_table(kind, n_max)
        for n in range(n_max + 1):
            for m in range(n + 1):
                cf = matrix_element_closed(kind, n, m)
                qv = quad_table.entries[n, m]
                diff = abs(cf - qv)
                if diff > tol:
                    rows.append({"kind": kind.value, "n": n, "m": m,
                                 "closed_form": cf, "quadrature": qv,
                                 "abs_diff": diff})
    return rows


# ----------------------------------------------------------------------------
# expectation values and uncertainty products
# ----------------------------------------------------------------------------

def _times(a: tuple, b: tuple) -> tuple:
    """Complex product of (real, imaginary) array pairs with each real product
    rounded on its own, as numpy's scalar complex multiply rounds it (its
    array multiply may fuse a product into the sum)."""
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def expectation(table: MatrixElementTable, cs: CoherentState, n_terms: int) -> float:
    """<O> = sum_n L_nn O_nn + sum_{n>m} 2 Re(L_mn O_nm), L_mn = c_m conj(c_n).

    Only the n >= m half of the table is consulted (the operator is
    treated as Hermitian, as in the defining double sum).  The imaginary
    residue of the diagonal contribution is checked against 1e-12, and
    TruncationTooSmall is raised when the state holds more than 1e-12 of
    its probability beyond the n_terms window.
    """
    if table.basis != cs.basis:
        raise ValueError(f"table basis {table.basis} != state basis {cs.basis}")
    if n_terms > table.n_max + 1:
        raise ValueError(f"n_terms={n_terms} exceeds table size {table.n_max + 1}")
    c = cs.amplitudes[:n_terms]
    if c.size < n_terms:
        raise ValueError(f"state truncation {c.size} below n_terms={n_terms}")
    dropped = float(np.sum(np.abs(cs.amplitudes[n_terms:]) ** 2))
    if dropped > 1e-12:
        raise TruncationTooSmall(
            f"{dropped:.2e} of the probability lies beyond the {n_terms}-term window")
    # Every term is rounded as the defining double sum rounds it, taken term
    # by term (diagonal first, then n > m row by row), and cumsum adds them
    # in that order from 0.0: the result is that sum's, bit for bit.
    entries = table.entries[:n_terms, :n_terms]
    amp, conj = (c.real, c.imag), (c.real, -c.imag)
    diag = np.diagonal(entries)
    diag_re, diag_im = _times(_times(amp, conj), (diag.real, diag.imag))
    n, m = np.tril_indices(n_terms, -1)
    weights = _times((amp[0][m], amp[1][m]), (conj[0][n], conj[1][n]))
    off = 2.0 * _times(weights, (entries[n, m].real, entries[n, m].imag))[0]
    real = np.cumsum(np.concatenate(([0.0], diag_re, off)))[-1]
    imag = np.cumsum(np.concatenate(([0.0], diag_im)))[-1]
    if abs(imag) > 1e-12 * (1.0 + abs(real)):
        raise ValueError(f"expectation has imaginary residue {imag:.2e}")
    return float(real)


def uncertainty_scan(family: Family, z_moduli: Sequence[float],
                     truncation: int = 64) -> list[UncertaintyRecord]:
    """sigma_x, sigma_p and their product along a |z| grid, for any family.

    The family's coherent.WINDOWS entry sets the levels the expectations
    sum over (30 on the truncated oscillator, as in the reference plots,
    capped by the truncation); the quadrature tables of that window are
    built once.
    """
    windows = WINDOWS[Family(family)]
    n_terms = min(truncation, windows.uncertainty_terms)
    tables = {kind: build_table(kind, n_terms - 1, basis=windows.basis)
              for kind in ObservableKind}
    records = []
    for r in z_moduli:
        cs = build_cs(family, r, truncation=truncation)
        ex = expectation(tables[ObservableKind.X], cs, n_terms)
        ex2 = expectation(tables[ObservableKind.X2], cs, n_terms)
        ep = expectation(tables[ObservableKind.P], cs, n_terms)
        ep2 = expectation(tables[ObservableKind.P2], cs, n_terms)
        sx = math.sqrt(ex2 - ex * ex)
        sp = math.sqrt(ep2 - ep * ep)
        records.append(UncertaintyRecord(z_modulus=float(r), sigma_x=sx, sigma_p=sp,
                                         product=sx * sp))
    return records
