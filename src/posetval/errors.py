"""Exception types shared across the package.

Every failure mode of the library raises a subclass of :class:`Error`, so
callers (in particular the CLI) can distinguish library failures from bugs.
"""


class Error(Exception):
    """Base class for all posetval errors."""


# -- exact arithmetic ------------------------------------------------------

class NegativeResult(Error):
    """A subtraction would produce a negative value."""


class PrecisionLoss(Error):
    """An integer rescaling was requested below the value's precision."""


class OutOfRange(Error):
    """A unit-interval argument lies outside [0, 1]."""


# -- posets ----------------------------------------------------------------

class UnknownElement(Error):
    """An element identifier is not part of the poset."""


class OrderViolation(Error):
    """The input relation is not a partial order with bottom."""


class TooLarge(Error):
    """An exhaustive enumeration or table was requested above its bound."""


# -- valuations ------------------------------------------------------------

class MixedBase(Error):
    """Two objects referring to different base posets were combined."""


class NotComparable(Error):
    """A transport plan was requested for an unordered pair."""


class NotProbability(Error):
    """A probability valuation (total mass 1) was required."""


class NotMonotone(Error):
    """A map violates monotonicity with respect to the poset order."""


class PartialMap(Error):
    """A map is undefined on part of its required domain."""


class MassExceeded(Error):
    """A valuation's total mass exceeds 1."""


class NotConvergent(Error):
    """A sequence failed the weak-convergence check."""


# -- chains ----------------------------------------------------------------

class NotAChain(Error):
    """A chain-only operation was applied to a non-chain poset."""


class Unreachable(Error):
    """A quantile was requested above the total mass."""


class PartialQuantile(Error):
    """A total quantile map was required but the map is partial."""


# -- binary words ----------------------------------------------------------

class DepthExceeded(Error):
    """A word is too short for the requested depth."""


class SourceExhausted(Error):
    """The bit source ran out before a full word was drawn."""


# -- parsing ---------------------------------------------------------------

class ParseError(Error):
    """A text input is malformed; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line
