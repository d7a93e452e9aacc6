"""Exception types raised by crb-kit.

Every error raised deliberately by this package derives from CrbKitError,
so callers can catch one base class at an API boundary. A class exists
for a condition that some caller tells apart, and each condition raises
one class from every entry point; the message names the case.
"""

from __future__ import annotations


class CrbKitError(Exception):
    """Base class for all crb-kit errors."""


class InvalidMatrix(CrbKitError):
    """Matrix input is malformed: non-finite entries, wrong shape, not square."""


class InvalidInput(CrbKitError):
    """Argument outside a function's documented domain, a malformed model or a nonsingular J among them."""


class NumericalFailure(CrbKitError):
    """A numerical routine produced non-finite values.

    sample_index identifies the offending Monte-Carlo draw when applicable.
    """

    def __init__(self, message: str, sample_index: int | None = None):
        super().__init__(message)
        self.sample_index = sample_index


class NotMinimumConstraint(CrbKitError):
    """Constraint fails a minimum-constraint requirement: full row rank, a nonsingular U'JU (or V'JV of a frame) or
    rank F + rank J = n."""
