"""Exception types shared across the package."""


class TruncOscError(Exception):
    """Base class for all truncosc errors."""


class DivergenceError(TruncOscError):
    """A series failed to converge within the term budget."""


class PoleError(TruncOscError):
    """A function was evaluated at (or its series ran into) a gamma pole."""


class NonConvergence(TruncOscError):
    """A half-line Gauss rule misses its weight's mass or would clip a level's
    tail, or an adaptive quadrature stops short of its tolerance."""


class BasisMismatch(TruncOscError):
    """Two vectors (or a vector and an operator) live in different bases."""


class NotNormalizable(TruncOscError):
    """The requested state has a divergent norm series."""


class TruncationTooSmall(TruncOscError):
    """Amplitudes have not decayed at the truncation edge."""


class FamilyMismatch(TruncOscError):
    """An operation was applied to a coherent-state family it is not defined for."""


class IndexOutOfRange(TruncOscError):
    """A level index lies outside the stored truncation."""


class GammaPole(PoleError):
    """A seed-solution coefficient hit a gamma pole with a finite mixing parameter."""


class SingularWronskian(TruncOscError):
    """The seed Wronskian vanishes inside the requested grid."""


class CutoffExceeded(TruncOscError):
    """Populated two-mode levels reach the cutoff; results would be clipped."""


class ExpansionResidualTooLarge(TruncOscError):
    """A half-line expansion recovered too little of the function's norm."""


class GramNotPSD(TruncOscError):
    """The overlap matrix has a significantly negative eigenvalue."""


class TailTooFat(TruncOscError):
    """A radial measure integrand is still significant at the integration edge."""
