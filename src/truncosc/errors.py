"""Exception types shared across the package.

One rule routes every raise: an argument outside a function's domain (a
negative index, a mismatched basis or family, a malformed matrix or
array) raises ValueError, and a computation that fails raises the
TruncOscError subclass naming its kind.
"""


class TruncOscError(Exception):
    """Base class for the numerical failures of a computation."""


class DivergenceError(TruncOscError):
    """A series failed to converge within the term budget."""


class PoleError(TruncOscError):
    """A function was evaluated at (or its series ran into) a gamma pole."""


class NonConvergence(TruncOscError):
    """A half-line Gauss rule misses its weight's mass, or an adaptive
    quadrature stops short of its tolerance."""


class NotNormalizable(TruncOscError):
    """The requested state has a divergent norm series."""


class TruncationTooSmall(TruncOscError):
    """A truncation window or cutoff clips a tail that is not negligible."""


class SingularWronskian(TruncOscError):
    """The seed Wronskian vanishes inside the requested grid."""
