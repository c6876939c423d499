"""Half-line oscillator eigenbasis, abstract ladder algebra, Fock vectors.

The half-line (truncated) oscillator has V = x^2/2 on x > 0 with a hard
wall at the origin.  Its k-th eigenfunction is sqrt(2) times the full-line
oscillator level 2k+1 restricted to x > 0, with energy 2k + 3/2.  The
squared ladder operators close on this basis with step coefficients
2k(2k+1) and commutator 4H.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import BasisMismatch, IndexOutOfRange, UnsupportedBasis

__all__ = [
    "Basis",
    "LadderSpec",
    "FockVector",
    "truncated_ladder",
    "oscillator_ladder",
    "hermite_normalized",
    "ho_eigenfunction",
    "weighted_eigenfunction_derivatives",
    "rows",
    "energy",
    "ladder_apply",
    "commutator_check",
]


class Basis(str, Enum):
    TRUNCATED = "truncated"
    SUSY_ISO = "susy-iso"
    SUSY_NEW = "susy-new"
    FULL_LINE = "full-line"


@dataclass(frozen=True)
class LadderSpec:
    """Abstract ladder data on a number basis.

    lower_sq(k) is the squared coefficient of the lowering step
    (lower|k> = sqrt(lower_sq(k)) |k-1>), raise_sq(k) the squared
    coefficient with which raising reaches |k> from |k-1>, and
    level_energy(k) the eigenvalue ladder.  dim is None for an infinite
    tower, else the dimension (raising annihilates the top level).
    """

    lower_sq: Callable[[int], float]
    raise_sq: Callable[[int], float]
    level_energy: Callable[[int], float]
    dim: Optional[int] = None
    basis: Basis = Basis.TRUNCATED

    def validate(self, n_check: int = 16) -> None:
        if self.lower_sq(0) != 0.0:
            raise ValueError("lowering must annihilate the bottom level: lower_sq(0) == 0")
        top = self.dim if self.dim is not None else n_check
        for k in range(1, top):
            if self.lower_sq(k) < 0 or self.raise_sq(k) < 0:
                raise ValueError("step coefficients must be nonnegative")
        if self.dim is not None and self.raise_sq(self.dim) != 0.0:
            raise ValueError("raising must annihilate the top level of a finite tower")


def truncated_ladder() -> LadderSpec:
    """Ladder data of the half-line oscillator: steps 2k(2k+1), energies 2k+3/2."""
    return LadderSpec(
        lower_sq=lambda k: 2.0 * k * (2 * k + 1),
        raise_sq=lambda k: 2.0 * k * (2 * k + 1),
        level_energy=lambda k: 2.0 * k + 1.5,
        dim=None,
        basis=Basis.TRUNCATED,
    )


def oscillator_ladder() -> LadderSpec:
    """Standard full-line oscillator ladder (steps k, energies k + 1/2)."""
    return LadderSpec(
        lower_sq=lambda k: float(k),
        raise_sq=lambda k: float(k),
        level_energy=lambda k: k + 0.5,
        dim=None,
        basis=Basis.FULL_LINE,
    )


@dataclass
class FockVector:
    """Amplitudes over a number basis."""

    basis: Basis
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.ndim != 1:
            raise ValueError("amplitudes must be a 1-d array")

    @property
    def truncation(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "FockVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockVector(self.basis, self.amplitudes / n)


# ----------------------------------------------------------------------------
# eigenfunctions
# ----------------------------------------------------------------------------

def hermite_normalized(n_max: int, x) -> np.ndarray:
    """h_n(x) = H_n(x)/sqrt(2^n n!) for n = 0..n_max, shape (n_max+1, len(x)).

    The scaled recurrence h_{n+1} = x sqrt(2/(n+1)) h_n - sqrt(n/(n+1)) h_{n-1}
    keeps values in range where the raw polynomials would overflow.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1, x.size))
    out[0] = 1.0
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x
    for n in range(1, n_max):
        out[n + 1] = x * math.sqrt(2.0 / (n + 1)) * out[n] \
            - math.sqrt(n / (n + 1.0)) * out[n - 1]
    return out


def ho_eigenfunction(n: int, x):
    """Full-line oscillator eigenfunction psi_n(x) (unit L2(R) norm)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    h = hermite_normalized(n, x)[n]
    return math.pi ** -0.25 * np.exp(-0.5 * x * x) * h


def energy(k: int) -> float:
    """E_k = 2k + 3/2."""
    if k < 0:
        raise IndexOutOfRange(f"level index {k} is negative")
    return 2.0 * k + 1.5


# Nodes per block in rows(): keeps the Hermite table and the partner
# temporaries near a megabyte whatever the quadrature size.
_ROW_CHUNK = 512


def rows(basis: Basis, n_levels: int, x, order: int = 0,
         weighted: bool = True) -> np.ndarray:
    """Eigenfunction rows of levels 0..n_levels-1 of a basis, with derivatives.

    Returns shape (order+1, n_levels, len(x)); entry [j, k] is the j-th
    derivative of level k.  weighted=True folds in e^{+x^2/2}: those rows
    stay polynomially bounded and are the integrand factors for Gauss
    half-line rules, whose weights carry e^{-x^2}.  The partner bases
    (susy-iso, susy-new) are those of the frozen fourth-order model and
    support order <= 2.
    """
    basis = Basis(basis)
    if n_levels < 1:
        raise IndexOutOfRange(f"need at least one level, got {n_levels}")
    if order < 0:
        raise ValueError("derivative order must be non-negative")
    if basis == Basis.TRUNCATED:
        block = _truncated_block
    elif basis in (Basis.SUSY_ISO, Basis.SUSY_NEW):
        if order > 2:
            raise ValueError("partner rows available up to second derivative")
        from . import susy
        block = susy._iso_block if basis == Basis.SUSY_ISO else susy._new_block
    else:
        raise UnsupportedBasis(f"no eigenfunction rows for basis {basis}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((order + 1, n_levels, x.size))
    for i in range(0, x.size, _ROW_CHUNK):
        out[:, :, i:i + _ROW_CHUNK] = block(n_levels, x[i:i + _ROW_CHUNK],
                                            order, weighted)
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


def _truncated_block(n_levels: int, x: np.ndarray, order: int,
                     weighted: bool) -> np.ndarray:
    """Half-line levels k = sqrt(2) psi^HO_{2k+1} from one Hermite table."""
    h = hermite_normalized(2 * n_levels - 1 + order, x)
    start = 2 * np.arange(n_levels) + 1
    coeff = np.full((n_levels, 1), math.sqrt(2.0))
    out = np.empty((order + 1, n_levels, x.size))
    for j in range(order + 1):
        if j:
            coeff = _ladder_step(coeff, start, j - 1)
        acc = np.zeros((n_levels, x.size))
        for i, offset in enumerate(range(-j, j + 1, 2)):
            acc += coeff[:, i, None] * h[np.maximum(start + offset, 0)]
        out[j] = math.pi ** -0.25 * acc
    if not weighted:
        gauss = np.exp(-0.5 * x * x)
        out[1:] *= gauss
        out[0] = math.sqrt(2.0) * ((math.pi ** -0.25 * gauss) * h[start])
    return out


def weighted_eigenfunction_derivatives(k: int, x, order: int = 2) -> np.ndarray:
    """Rows psi_k^{(j)}(x) e^{x^2/2}, j = 0..order (see rows)."""
    return rows(Basis.TRUNCATED, k + 1, x, order)[:, k]


# ----------------------------------------------------------------------------
# ladder action
# ----------------------------------------------------------------------------

def ladder_apply(spec: LadderSpec, direction: str, v: FockVector) -> FockVector:
    """Apply the lowering or raising ladder to a Fock vector."""
    if v.basis != spec.basis:
        raise BasisMismatch(f"vector basis {v.basis} != spec basis {spec.basis}")
    if direction not in ("lower", "raise"):
        raise ValueError("direction must be 'lower' or 'raise'")
    a = v.amplitudes
    out = np.zeros_like(a)
    if direction == "lower":
        for k in range(1, a.size):
            out[k - 1] = math.sqrt(spec.lower_sq(k)) * a[k]
    else:
        top = a.size if spec.dim is None else min(a.size, spec.dim)
        for k in range(1, top):
            out[k] = math.sqrt(spec.raise_sq(k)) * a[k - 1]
    return FockVector(v.basis, out)


def commutator_check(spec: LadderSpec, n_max: int,
                     target: Callable[[int], float] | None = None) -> float:
    """Deviation of [lower, raise] from its target on levels k <= n_max.

    On |k> the commutator acts as raise_sq(k+1) - lower_sq(k).  The default
    target is 4 * level_energy(k), the closure relation of the half-line
    oscillator's squared ladder; pass another callable to check e.g. the
    standard oscillator's constant 1.
    """
    if target is None:
        target = lambda k: 4.0 * spec.level_energy(k)
    dev = 0.0
    for k in range(n_max + 1):
        got = spec.raise_sq(k + 1) - spec.lower_sq(k)
        dev = max(dev, abs(got - target(k)))
    return dev
