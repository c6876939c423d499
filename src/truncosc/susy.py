"""Higher-order partner Hamiltonians of the half-line oscillator.

Contents:

* general seed solutions of the oscillator equation at arbitrary energy,
  with analytic derivatives to fifth order,
* Wronskian partner potentials for any number of seeds, with analytic
  first and second determinant derivatives (no finite differences),
* the one partner model the package computes, the explicit fourth-order
  model, as module data: its seeds (Q4_SEEDS, energies -11/2..-5/2), the
  two new levels (NEW_ENERGIES) and their gap DELTA1 to the half-line
  tower bottom, the closed-form partner potential and six-factor, the
  fourth-order intertwiner coefficients and the two bound states of the
  finite tower as frozen polynomial data,
* sixth-order and linearised ladder coefficients on both towers,
* coherent states on each tower and the measure diagnostics for the
  finite one.

Other seed sets reach the package only through the general Wronskian
routes, which `validate --seed-config` checks.

Seed-parity constants for the explicit model were recovered numerically
(the kernel of the printed intertwiner pins the log-derivative of each
seed through a Riccati identity; a grid fit of the Wronskian potential
against the closed form confirms the same choice):
the seeds alternate odd, even, odd, even with increasing energy, i.e.
asymmetry values (inf, 0, inf, 0); the plain-normalized Wronskian then
satisfies W(x) e^{-2x^2} / den(x) = 16/45.

The finite-tower coherent state uses the principal complex branch for
square roots of negative rising factorials; probabilities use moduli,
so the branch shows up only in relative phases.  Its normalization is
always the direct modulus-squared sum; the closed-form norm constant
printed in the source material evaluates to the SIGNED series
1 - 6|z|^2 for this model and is exposed for side-by-side logging only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .coherent import (
    CoherentState,
    Family,
    _series_state,
    identity_resolution_check,
    iso_measure,
)
from .errors import GammaPole, IndexOutOfRange, SingularWronskian
from .fock import (
    Basis,
    level_energy,
    rows,
)
from .numerics import (
    _panel_rule,
    hyp1f1,
    hyp2f2,
    log_gamma_signed,
    meijer_g_2012,
    rising_factorial,
)

__all__ = [
    "SeedSolution",
    "wronskian_values",
    "wronskian_potential",
    "transformed_eigenfunction_rows",
    "susy_ladder_action",
    "susy_cs",
    "new_norm_constant_closed",
    "new_measure_check",
    "iso_measure_check",
    "g_moment",
    "Q4_SEED_ENERGIES",
    "Q4_SEED_ASYMMETRY",
    "Q4_SEEDS",
    "NEW_ENERGIES",
    "DELTA1",
    "six_factor",
    "potential",
]

# ----------------------------------------------------------------------------
# seed solutions
# ----------------------------------------------------------------------------

def _is_nonpositive_integer(value: float) -> bool:
    return value <= 0 and float(value).is_integer()


@dataclass(frozen=True)
class SeedSolution:
    """Solution of -u''/2 + (x^2/2) u = epsilon u with parity asymmetry nu.

    nu = 0 selects the even series branch, nu = +-inf the odd branch
    (returned as the plain odd series, dropping the diverging gamma-ratio
    scale), and finite nonzero nu mixes them with the coefficient
    2 nu Gamma((3-2e)/4) / Gamma((1-2e)/4).
    """

    epsilon: float
    nu: float

    def __post_init__(self) -> None:
        if math.isnan(self.epsilon) or math.isnan(self.nu):
            raise ValueError(f"seed parameters must not be NaN: epsilon={self.epsilon}, "
                             f"nu={self.nu}")
        if math.isfinite(self.nu) and self.nu != 0.0:
            if _is_nonpositive_integer(self._a_even) or _is_nonpositive_integer(self._a_odd):
                raise GammaPole(
                    f"gamma-ratio pole at epsilon={self.epsilon}; "
                    "use nu = 0 or nu = +-inf to select a parity branch")

    @property
    def _a_even(self) -> float:
        return (1.0 - 2.0 * self.epsilon) / 4.0

    @property
    def _a_odd(self) -> float:
        return (3.0 - 2.0 * self.epsilon) / 4.0

    @property
    def _mixing(self) -> Optional[float]:
        """Odd-branch coefficient; None encodes the pure odd branch."""
        if not math.isfinite(self.nu):
            return None
        if self.nu == 0.0:
            return 0.0
        log_odd, sign_odd = log_gamma_signed(self._a_odd)
        log_even, sign_even = log_gamma_signed(self._a_even)
        return 2.0 * self.nu * (sign_odd * sign_even) * math.exp(log_odd - log_even)

    def _series(self, a: float, b: float, x: np.ndarray) -> np.ndarray:
        return hyp1f1(a, b, x * x)

    def _value_and_slope(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ae, ao = self._a_even, self._a_odd
        w = np.exp(-x * x / 2.0)
        c = self._mixing
        coeff = math.copysign(1.0, self.nu) if c is None else c
        u = np.zeros_like(x, dtype=float)
        du = np.zeros_like(u)
        if coeff != 0.0:
            fo = self._series(ao, 1.5, x)
            fo1 = self._series(ao + 1.0, 2.5, x)
            u_odd = w * x * fo
            du_odd = w * (fo + x * x * (-fo + (4.0 * ao / 3.0) * fo1))
            u += coeff * u_odd
            du += coeff * du_odd
        if c is not None:
            fe = self._series(ae, 0.5, x)
            fe1 = self._series(ae + 1.0, 1.5, x)
            u += w * fe
            du += w * x * (-fe + 4.0 * ae * fe1)
        return u, du

    def derivatives(self, x: Sequence[float], order: int = 5) -> np.ndarray:
        """Rows u, u', ..., u^(order) on x, via the differentiated equation.

        u'' = (x^2 - 2 epsilon) u seeds a three-term Leibniz recurrence:
        u^(n+2) = (x^2 - 2e) u^(n) + 2 n x u^(n-1) + n (n-1) u^(n-2).
        """
        x = np.asarray(x, dtype=float)
        u, du = self._value_and_slope(x)
        rows = [u, du]
        for k in range(2, order + 1):
            n = k - 2
            term = (x * x - 2.0 * self.epsilon) * rows[n]
            if n >= 1:
                term = term + 2.0 * n * x * rows[n - 1]
            if n >= 2:
                term = term + n * (n - 1) * rows[n - 2]
            rows.append(term)
        return np.array(rows)

    def second_derivative_direct(self, x: Sequence[float]) -> np.ndarray:
        """u'' from the twice-differentiated series (independent oracle).

        Uses only the contiguous derivative identity of the confluent
        series, never the differential equation, so it can certify the
        recurrence route.
        """
        x = np.asarray(x, dtype=float)
        ae, ao = self._a_even, self._a_odd
        c = self._mixing
        coeff = math.copysign(1.0, self.nu) if c is None else c
        h = np.zeros_like(x, dtype=float)
        h1 = np.zeros_like(h)
        h2 = np.zeros_like(h)
        if coeff != 0.0:
            fo = self._series(ao, 1.5, x)
            fo1 = self._series(ao + 1.0, 2.5, x)
            fo2 = self._series(ao + 2.0, 3.5, x)
            g = x * fo
            g1 = fo + (4.0 * ao / 3.0) * x * x * fo1
            g2 = 3.0 * (4.0 * ao / 3.0) * x * fo1 + (16.0 / 15.0) * ao * (ao + 1.0) * x ** 3 * fo2
            h += coeff * g
            h1 += coeff * g1
            h2 += coeff * g2
        if c is not None:
            fe = self._series(ae, 0.5, x)
            fe1 = self._series(ae + 1.0, 1.5, x)
            fe2 = self._series(ae + 2.0, 2.5, x)
            h += fe
            h1 += 4.0 * ae * x * fe1
            h2 += 4.0 * ae * fe1 + (16.0 / 3.0) * ae * (ae + 1.0) * x * x * fe2
        w = np.exp(-x * x / 2.0)
        return w * (h2 - 2.0 * x * h1 + (x * x - 1.0) * h)

    def __call__(self, x: Sequence[float]) -> np.ndarray:
        return self.derivatives(x, order=0)[0]


# ----------------------------------------------------------------------------
# Wronskian machinery
# ----------------------------------------------------------------------------

def _det_over_columns(stack: np.ndarray, cols: Sequence[int]) -> np.ndarray:
    """det of the (function x derivative-order) minor at every grid point.

    stack has shape (q, max_order+1, nx); cols picks derivative orders.
    """
    minor = stack[:, list(cols), :].transpose(2, 0, 1)
    return np.linalg.det(minor)


def _wronskian_triple(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, W', W'') of the q functions in stack, shape (q, >= q+2, nx).

    W' bumps the last derivative column by one; W'' adds the twice-bumped
    column determinant and (when q >= 2) the doubly-single-bumped one.
    """
    q = stack.shape[0]
    base = list(range(q))
    w = _det_over_columns(stack, base)
    wp = _det_over_columns(stack, base[:-1] + [q])
    wpp = _det_over_columns(stack, base[:-1] + [q + 1])
    if q >= 2:
        wpp = wpp + _det_over_columns(stack, base[:-2] + [q - 1, q])
    return w, wp, wpp


def wronskian_values(seeds: Sequence[SeedSolution], x: Sequence[float]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, W', W'') of the seed Wronskian, all from analytic derivative rows."""
    q = len(seeds)
    x = np.asarray(x, dtype=float)
    if q == 0:
        ones = np.ones_like(x)
        return ones, np.zeros_like(x), np.zeros_like(x)
    return _wronskian_triple(np.array([s.derivatives(x, order=q + 1) for s in seeds]))


def wronskian_potential(seeds: Sequence[SeedSolution], grid: Sequence[float]) -> np.ndarray:
    """Partner potential x^2/2 - (ln W)'' on the grid.

    Raises SingularWronskian when W changes sign between grid points or
    dips far below its neighbors (a grid point sitting on a zero); the
    message reports where.  W itself grows like exp(q x^2 / 2), so wide
    grids can overflow, which is reported separately.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0):
        raise ValueError("grid points must be positive")
    w, wp, wpp = wronskian_values(seeds, grid)
    _raise_if_singular(w, grid)
    return grid * grid / 2.0 - (wpp * w - wp * wp) / (w * w)


def _raise_if_singular(w: np.ndarray, grid: np.ndarray) -> None:
    if not np.all(np.isfinite(w)):
        i = int(np.argmax(~np.isfinite(w)))
        raise ValueError(
            f"Wronskian overflows near x = {grid[i]:.6g}; shrink the grid")
    crossing = w[:-1] * w[1:] < 0
    if np.any(crossing):
        i = int(np.argmax(crossing))
        raise SingularWronskian(f"Wronskian changes sign near x = {grid[i]:.6g}")
    mag = np.abs(w)
    if mag.size >= 2:
        local = np.maximum(np.roll(mag, 1), np.roll(mag, -1))
        local[0], local[-1] = mag[1], mag[-2]
        dip = (mag < 1e-8 * local) | (mag == 0.0)
    else:
        dip = mag == 0.0
    if np.any(dip):
        i = int(np.argmax(dip))
        raise SingularWronskian(f"Wronskian vanishes near x = {grid[i]:.6g}")


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


# ----------------------------------------------------------------------------
# the explicit fourth-order model (frozen polynomial data)
# ----------------------------------------------------------------------------

Q4_SEED_ENERGIES = (-5.5, -4.5, -3.5, -2.5)
Q4_SEED_ASYMMETRY = (math.inf, 0.0, math.inf, 0.0)

_P = np.polynomial.Polynomial
_DEN = _P([45.0, 0, 0, 0, 120.0, 0, -64.0, 0, 16.0])
_V_NUM = _P([2025.0, 0, 16200.0, 0, -10800.0, 0, -10080.0, 0, 27360.0, 0,
             -19584.0, 0, 10496.0, 0, -2560.0, 0, 256.0])
_ETA_NUM = {
    3: _P([0, -180.0, 0, -480.0, 0, -96.0, 0, 128.0, 0, -64.0]),
    2: _P([-630.0, 0, 990.0, 0, -720.0, 0, 528.0, 0, -96.0, 0, 96.0]),
    1: _P([0, 1260.0, 0, 3660.0, 0, 192.0, 0, -864.0, 0, 64.0, 0, -64.0]),
    0: _P([1935.0, 0, -7110.0, 0, -795.0, 0, 240.0, 0, 360.0, 0, -32.0, 0, 16.0]),
}
_PHI_NEW_NUM = {
    0: _P([0, 15.0, 0, 10.0, 0, -4.0, 0, 8.0]) * (4.0 * math.sqrt(3.0) / math.pi ** 0.25),
    1: _P([0, -135.0, 0, 0, 0, 72.0, 0, 0, 0, 16.0]) * (2.0 / (math.sqrt(3.0) * math.pi ** 0.25)),
}


@dataclass(frozen=True)
class _Rational:
    """Polynomial quotient with exact derivative via the quotient rule."""

    num: np.polynomial.Polynomial
    den: np.polynomial.Polynomial

    def __call__(self, x):
        return self.num(x) / self.den(x)

    def deriv(self) -> "_Rational":
        return _Rational(self.num.deriv() * self.den - self.num * self.den.deriv(),
                         self.den * self.den)


Q4_SEEDS = tuple(SeedSolution(e, nu) for e, nu in zip(Q4_SEED_ENERGIES, Q4_SEED_ASYMMETRY))
# the two levels the seeds create below the half-line tower (kappa = 2 of
# them, spaced by 2), and their gap to its bottom level 3/2
NEW_ENERGIES = (-4.5, -2.5)
DELTA1 = 1.5 - NEW_ENERGIES[0]


def six_factor(energy: float) -> float:
    """The degree-six product whose square root scales the full ladder."""
    e = Q4_SEED_ENERGIES
    return ((energy - 0.5) * (energy - 1.5) * (energy - e[0]) * (energy - e[1])
            * (energy - e[-2] - 2.0) * (energy - e[-1] - 2.0))


def potential(x) -> np.ndarray:
    """Partner potential x^2/2 - 4 num / den^2 (closed form)."""
    x = np.asarray(x, dtype=float)
    d = _DEN(x)
    return x * x / 2.0 - 4.0 * _V_NUM(x) / (d * d)


@lru_cache(maxsize=6)
def _rationals(tower: Basis, j: int) -> tuple[_Rational, _Rational, _Rational]:
    """(r, r', r'') of r = num_j / den: the intertwiner coefficient eta_j
    (j = 0..3) for the infinite tower, the bound state j (j = 0, 1) for
    the finite one."""
    r0 = _Rational((_ETA_NUM if tower == Basis.SUSY_ISO else _PHI_NEW_NUM)[j], _DEN)
    r1 = r0.deriv()
    return r0, r1, r1.deriv()


def _iso_block(n_levels: int, x: np.ndarray, order: int,
               weighted: bool) -> np.ndarray:
    """Infinite-tower rows via the intertwiner: phi_n = L psi_n / (4 norm_n).

    L psi = psi^{(4)} + sum_i eta_i psi^{(i)}; its d-th derivative follows
    the Leibniz rule.  The eta rationals are evaluated once for all levels.
    """
    psi = rows(Basis.TRUNCATED, n_levels, x, 4 + order)
    etas = [[r(x) for r in _rationals(Basis.SUSY_ISO, i)[:order + 1]] for i in range(4)]
    n = np.arange(n_levels)  # norm_n^2 = prod_i (E_n - eps_i)
    scale = 4.0 * np.sqrt((2 * n + 4) * (2 * n + 5) * (2 * n + 6) * (2 * n + 7))[:, None]
    out = np.empty((order + 1, n_levels, x.size))
    for d in range(order + 1):
        q = psi[4 + d].copy()
        for i in range(4):
            q += sum(math.comb(d, l) * etas[i][l] * psi[i + d - l]
                     for l in range(d, -1, -1))
        out[d] = q / scale
    return out if weighted else out * np.exp(-x * x / 2.0)


def _new_block(n_levels: int, x: np.ndarray, order: int,
               weighted: bool) -> np.ndarray:
    """Finite-tower rows from the closed forms (levels 0 and 1)."""
    if n_levels > 2:
        raise IndexOutOfRange("finite tower has levels 0 and 1 only")
    out = np.empty((order + 1, n_levels, x.size))
    for j in range(n_levels):
        r0, r1, r2 = _rationals(Basis.SUSY_NEW, j)
        f = out[0, j] = r0(x)
        if order >= 1:
            f1 = r1(x)
            out[1, j] = f1 - x * f
        if order >= 2:
            out[2, j] = r2(x) - 2.0 * x * f1 + (x * x - 1.0) * f
    return out if weighted else out * np.exp(-x * x / 2.0)


# ----------------------------------------------------------------------------
# ladder operators on the partner towers
# ----------------------------------------------------------------------------

def susy_ladder_action(subspace: Basis, direction: str, index: int,
                       operator: str = "linearized") -> tuple[complex, Optional[int]]:
    """(coefficient, target index) of a ladder step; annihilation -> (0, None).

    subspace is the infinite tower (susy-iso) or the finite one (susy-new);
    operator selects the sixth-order ("full") or linearised form.  With u
    the upper level of the step and E_u its energy, the coefficient is
    sqrt(six_factor(E_u)) or sqrt(E_u - 3/2) on the principal branch, real
    when its imaginary part is below 1e-14.  E_u - 3/2 is 2u on the
    infinite tower and 2u - delta1 on the finite one.  Lowering level 0
    annihilates, and so does raising the top of the finite tower (the
    linearised coefficient would not vanish there by itself).
    """
    subspace = Basis(subspace)
    if subspace not in (Basis.SUSY_ISO, Basis.SUSY_NEW):
        raise ValueError(f"subspace must be a partner-tower basis, got {subspace}")
    if direction not in ("lower", "raise"):
        raise ValueError("direction must be 'lower' or 'raise'")
    if operator not in ("full", "linearized"):
        raise ValueError("operator must be 'full' or 'linearized'")
    if index < 0:
        raise IndexOutOfRange("index must be non-negative")
    finite = subspace == Basis.SUSY_NEW
    kappa = len(NEW_ENERGIES)
    if finite and index >= kappa:
        raise IndexOutOfRange(f"finite tower has {kappa} levels")
    target = index - 1 if direction == "lower" else index + 1
    if target < 0 or (finite and target == kappa):
        return 0.0, None
    upper = max(index, target)
    energy = NEW_ENERGIES[upper] if finite else level_energy(upper)
    root = complex(np.sqrt(complex(
        six_factor(energy) if operator == "full" else energy - 1.5)))
    return (root.real if abs(root.imag) < 1e-14 else root), target


# ----------------------------------------------------------------------------
# coherent states on the partner towers
# ----------------------------------------------------------------------------

def susy_cs(subspace: Basis, z: complex, truncation: int = 64) -> CoherentState:
    """Displacement-type coherent state on either partner tower.

    Infinite tower: amplitudes (sqrt(2) z)^n / sqrt(n!) (the linearised
    displacement series).  Finite tower: amplitudes
    (sqrt(2) z)^j / j! * sqrt((-delta1/2)_j) under the principal branch,
    truncated at kappa levels.  Both are normalized by the direct
    modulus-squared sum.
    """
    subspace = Basis(subspace)
    z = complex(z)
    if subspace == Basis.SUSY_ISO:
        return _series_state(Family.SUSY_ISO, z, 2.0, truncation)
    if subspace != Basis.SUSY_NEW:
        raise ValueError(f"subspace must be a partner-tower basis, got {subspace}")
    c = np.zeros(len(NEW_ENERGIES), dtype=complex)
    for j in range(c.size):
        poch = rising_factorial(-DELTA1 / 2.0, j)
        c[j] = ((math.sqrt(2.0) * z) ** j / math.factorial(j)
                * complex(np.sqrt(complex(poch))))
    with np.errstate(over="ignore"):  # an infinite norm leaves a zero state, rejected below
        norm = float(np.linalg.norm(c))
    return CoherentState(family=Family.SUSY_NEW, z=z, alpha=2.0, amplitudes=c / norm,
                         norm_constant=1.0 / norm,
                         energies=np.array(NEW_ENERGIES))


def new_norm_constant_closed(z: complex) -> float:
    """The closed-form norm constant of the finite-tower state, as printed.

    For the explicit model this evaluates to the signed series
    1 - 6|z|^2 (negative beyond |z| = 1/sqrt(6)), which cannot be a
    squared norm; exposed for side-by-side logging against the direct
    normalization, never used in construction.
    """
    kappa, d = len(NEW_ENERGIES), DELTA1
    u = 2.0 * abs(z) ** 2
    first = hyp1f1(-d / 2.0, 1.0, u)
    # the gamma ratio Gamma(kappa - d/2) / Gamma(-d/2) is a rising factorial
    ratio = rising_factorial(-d / 2.0, kappa)
    second = (abs(z) ** (2 * kappa) * 2.0 ** kappa * ratio
              / math.factorial(kappa) ** 2
              * hyp2f2(1.0, kappa - d / 2.0, kappa + 1.0, kappa + 1.0, u))
    return float(first - second)


# ----------------------------------------------------------------------------
# measures on the partner towers
# ----------------------------------------------------------------------------

# Layout of the fixed kernel rule: geometric panels with edges 2^-20 .. 1
# absorb the log singularity of G at t -> 0; uniform panels in u = sqrt(t)
# cover [1, min(t_max, 64)].  G decays like t^-a1 e^-t, so for j <= 5 and
# a1 >= -4 the moments lose less than 1e-15 relative beyond t = 64.
# Kernel values are computed 32 nodes per meijer_g_2012 call so each
# (contour nodes x chunk) temporary stays near 130 kB.
_KERNEL_POINTS = 12
_KERNEL_DEPTH = 20
_KERNEL_OUTER_PANELS = 12
_KERNEL_T_END = 64.0
_KERNEL_CHUNK = 32


def _kernel_values(a1: float, t: np.ndarray, contour_re: Optional[float]) -> np.ndarray:
    return np.concatenate([
        meijer_g_2012(a1, t[i:i + _KERNEL_CHUNK], contour_re=contour_re)
        for i in range(0, t.size, _KERNEL_CHUNK)])


def _kernel_rule(a1: float, t_max: float):
    """Nodes t, weights w and G(t) on a fixed composite Gauss-Legendre rule.

    sum(w * t^j * G) approximates int_0^t_max t^j G^{2,0}_{1,2}(t | a1; 0, 0) dt.
    On (0, 1] the kernel is taken on the low contour Re s = 0.6 (the
    default contour loses digits to cancellation as t -> 0); on
    [1, min(t_max, 64)] on the default one.  The rule reproduces
    (j!)^2 / Gamma(a1 + j + 1) to better than 1e-8 relative for j <= 4 at
    a1 in {1.5, 0.5, -2.5, -4}.
    """
    if t_max <= 1.0:
        raise ValueError("t_max must exceed 1")
    inner = np.concatenate(([0.0], 2.0 ** np.arange(-_KERNEL_DEPTH, 1.0)))
    t_lo, w_lo = _panel_rule(inner, _KERNEL_POINTS)
    outer = np.linspace(1.0, math.sqrt(min(t_max, _KERNEL_T_END)),
                        _KERNEL_OUTER_PANELS + 1)
    u, w_u = _panel_rule(outer, _KERNEL_POINTS)
    t_hi, w_hi = u * u, 2.0 * u * w_u
    g = np.concatenate((_kernel_values(a1, t_lo, 0.6),
                        _kernel_values(a1, t_hi, None)))
    return np.concatenate((t_lo, t_hi)), np.concatenate((w_lo, w_hi)), g


def g_moment(j: int, a1: float, t_max: float = 900.0) -> float:
    """int_0^t_max t^j G(t) dt for the Mellin-contour kernel at parameter a1.

    Evaluated on the fixed kernel rule (_kernel_rule): 396 nodes, with
    the kernel computed in vectorized chunks rather than once per
    adaptive quadrature node.
    """
    t, w, g = _kernel_rule(a1, t_max)
    return float(w @ (t ** j * g))


def new_measure_check(n_max: int = 5, r_max: float = 20.0) -> float:
    """Deviation of the finite-tower measure's diagonal moments from 1.

    The printed measure carries a Gamma(-delta1/2) prefactor that is a
    pole for the explicit model; folding it against Gamma(j - delta1/2)
    analytically (their ratio is 1/(-delta1/2)_j) leaves
    M_jj = |(-d/2)_j| / (-d/2)_j, i.e. the SIGN of the rising factorial.
    The kernel moments int t^j G dt = (j!)^2 / Gamma(j - d/2) are checked
    numerically to 1e-4 before the fold is trusted; the kernel rule is
    built once and every moment is read off it.  Off-diagonal moments
    vanish by the phase integral.  Returns max_j |M_jj - 1| (reported,
    not patched: the value 2 for the explicit model documents the signed
    measure's failure against honest probabilities).
    """
    d = DELTA1
    a1 = -(d + 2.0) / 2.0
    t_max = min(900.0, 2.0 * r_max * r_max)
    t, w, g = _kernel_rule(a1, t_max)
    for j in range(min(n_max, 5) + 1):
        target = 0.0
        arg = j - d / 2.0
        if not _is_nonpositive_integer(arg):
            log_gamma, sign = log_gamma_signed(arg)
            target = math.factorial(j) ** 2 * sign * math.exp(-log_gamma)
        got = float(w @ (t ** j * g))
        scale = max(1.0, abs(target))
        if abs(got - target) > 1e-4 * scale:
            raise ValueError(
                f"kernel moment {j} is {got:.6g}, expected {target:.6g}")
    deviation = 0.0
    for j in range(len(NEW_ENERGIES)):
        poch = rising_factorial(-d / 2.0, j)
        m_jj = abs(poch) / poch
        deviation = max(deviation, abs(m_jj - 1.0))
    return deviation


def iso_measure_check(n_max: int = 10, r_max: float = 8.0,
                      truncation: int = 320) -> float:
    """Flat-measure identity check for the infinite-tower state family.

    The infinite-tower amplitudes coincide with the linearised
    displacement series, so the existing radial moment checker applies.
    """
    return identity_resolution_check(Family.LIN_DISPLACEMENT, iso_measure(),
                                     n_max=n_max, r_max=r_max, truncation=truncation)

