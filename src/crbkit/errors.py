"""Exception types raised by crb-kit.

Every error raised deliberately by this package derives from CrbKitError,
so callers can catch one base class at an API boundary.
"""

from __future__ import annotations


class CrbKitError(Exception):
    """Base class for all crb-kit errors."""


class InvalidMatrix(CrbKitError):
    """Matrix input is malformed: non-finite entries, wrong shape, not square."""


class InvalidInput(CrbKitError):
    """Argument outside a function's documented domain."""


class InvalidModel(CrbKitError):
    """Statistical model is malformed, e.g. a singular noise covariance."""


class DegenerateParameter(CrbKitError):
    """Parameter point where a required direction or Jacobian is undefined."""


class NumericalFailure(CrbKitError):
    """A numerical routine produced non-finite values.

    sample_index identifies the offending Monte-Carlo draw when applicable.
    """

    def __init__(self, message: str, sample_index: int | None = None):
        super().__init__(message)
        self.sample_index = sample_index


class RankDeficientConstraint(CrbKitError):
    """Constraint Jacobian does not have full row rank."""

    def __init__(self, rank: int, rows: int):
        super().__init__(f"Jacobian row rank {rank} below row count {rows}; rows are dependent")
        self.rank = int(rank)
        self.rows = int(rows)


class FullRankFim(CrbKitError):
    """Fisher information is nonsingular; no constraint is needed or derivable."""


class NotMinimumConstraint(CrbKitError):
    """Constraint fails one of the minimum-constraint requirements."""


class SingularRestriction(CrbKitError):
    """Restricted information matrix V'JV is numerically singular."""
