"""Exception hierarchy shared by all cantorlab modules, with the budget
default and the finiteness check every layer uses.

Construction problems (bad partitions, non-expanding branches, broken
transition graphs) derive from ValidationError.  Resource problems
(interval budgets, precision floors) derive from ResourceError.  Both
roots derive from CantorLabError so callers can catch everything the
library raises deliberately.

`resolve_budget` turns an optional budget into a count, the default
cover budget for None.  `finite` reads a number from outside as a float
and refuses NaN, +-inf and a number beyond the float range with
ValidationError.  This module imports nothing from the package, so
every other module can import it.
"""

from __future__ import annotations

import math

DEFAULT_COVER_BUDGET = 2_000_000


class CantorLabError(Exception):
    """Base class for every error raised deliberately by cantorlab."""


class ValidationError(CantorLabError):
    """Input data violates a structural invariant."""


class OverlappingPieces(ValidationError):
    """Markov pieces are unsorted, overlapping, or lack positive gaps."""


class NonMixingTransitions(ValidationError):
    """No power of the transition matrix is strictly positive."""


class NonContiguousTransitions(ValidationError):
    """A branch's transition targets do not form a contiguous block.

    The branch image is the convex hull of its targets, so any piece
    lying between two targets would intersect the image while being
    unreachable; such a relation cannot define a Markov system.
    """


class ContractionViolation(ValidationError):
    """Some branch fails the expansion requirement |derivative| > 1."""


class ResourceError(CantorLabError):
    """A configured resource limit was hit."""


class BudgetExceeded(ResourceError):
    """An interval, pair, or cell budget would be exceeded."""


class PrecisionLoss(ResourceError):
    """Interval lengths fell below the configured floating floor."""


class DegenerateCover(CantorLabError):
    """A cover contains an interval of zero length."""


class NoGaps(CantorLabError):
    """A cover exposes no bounded gap, so thickness is undefined."""


class EmptyTarget(CantorLabError):
    """Shrinking a target interval by the margin left nothing to test."""


class TZeroNotInDifference(CantorLabError):
    """The requested base point is not in the difference-set cover."""


class NonAffineInput(CantorLabError):
    """An operation restricted to affine sets received a non-affine one."""


class EstimatorMismatch(CantorLabError):
    """Two independent estimators disagree beyond the allowed tolerance."""


class ConfigInvalid(ValidationError):
    """A command configuration failed validation."""


def resolve_budget(budget: int | None) -> int:
    return DEFAULT_COVER_BUDGET if budget is None else int(budget)


def finite(x, message: str) -> float:
    """float(x), or ValidationError(message) when x is NaN, +-inf or too
    large for a float; a `{}` in the message is filled with float(x),
    which reads inf for such a number."""
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise ValidationError(message.format(f))
    return f
