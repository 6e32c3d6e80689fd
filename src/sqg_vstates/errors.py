"""Exception hierarchy for the V-states library.

Every failure mode raised by this package derives from :class:`VStatesError`,
so callers can trap the whole family with one clause.  Guard and argument
violations additionally derive from :class:`ValueError` and table lookups
from :class:`LookupError`, keeping standard ``except`` idioms working.
"""


class VStatesError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(VStatesError, ValueError):
    """An argument or state violates a documented precondition or guard."""


class IndexOutOfTable(VStatesError, LookupError):
    """A mode index exceeds the memoized constant tables."""


class TableExhausted(VStatesError):
    """A scan ran off the end of the constant tables without resolving."""


class NotSimple(VStatesError):
    """The reduced discriminant is not positive: the eigenvalue pair at this
    mode is not a pair of simple real eigenvalues, so no branch exists."""


class NotAnEigenvalue(VStatesError):
    """The supplied angular velocity does not annihilate the mode matrix."""


class BoundaryCollision(VStatesError):
    """The two patch boundaries came closer than the disjointness guard."""


class NoConvergence(VStatesError):
    """A series, quadrature or Newton iteration hit its cap before reaching
    tolerance."""


class SingularJacobian(VStatesError):
    """The Newton linear solve is numerically singular."""
