"""Exception hierarchy shared across the package."""


class PencilError(Exception):
    """Base class for all errors raised by this package."""


class SingularShift(PencilError):
    """lambda*E - A, or a matrix built on it at one shift, is numerically singular (core._lu's rule)."""


class ShiftOutsideResolventSet(PencilError):
    """A sampled shift on a grid or contour is outside the resolvent set."""


class IrregularPencil(PencilError):
    """det(lambda*E - A) vanishes identically; the pencil has no resolvent set."""


class IllConditionedTransform(PencilError):
    """A computed equivalence transformation is too ill-conditioned to trust."""


class NoConvergence(PencilError):
    """A limit-based approximation sequence failed to Cauchy-converge."""


class DegeneratePairing(PencilError):
    """<c, b> is numerically zero; the rank-one construction is undefined."""


class InconsistentInitialState(PencilError):
    """Initial state has a nonzero component in the algebraic (nilpotent) subspace."""


class QuadratureNotConverged(PencilError):
    """Adaptive contour quadrature exhausted its refinement budget."""


class OverflowRisk(PencilError):
    """Matrix exponential argument too large for double precision."""


class SingularQ(PencilError):
    """The structure matrix Q is numerically singular."""


class NoSpectralGap(PencilError):
    """Range/kernel eigenvalue split of a PSD matrix is ambiguous at this precision."""


class PoleHit(PencilError):
    """Closed-form resolvent evaluated at (numerically) one of its poles."""


class InvalidParams(PencilError):
    """Model parameters violate their declared constraints."""
