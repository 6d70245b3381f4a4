"""Exception types shared across sturmlab."""


class SturmlabError(Exception):
    """Base class for all sturmlab errors."""


class InvalidSlope(SturmlabError, ValueError):
    """Slope construction rejected (rational, zero, or malformed parameters)."""


class SlopeSyntaxError(InvalidSlope):
    """A slope expression failed to parse; the message names the offending token."""


class CoefficientsExhausted(SturmlabError):
    """A partial-quotient source ran out before the requested index."""


class RefinementBudgetExceeded(SturmlabError):
    """A floor or bracket needs a convergent index above budget + 1.

    The budget caps the depth of the continued-fraction expansion: a floor of
    u*alpha uses the least convergent index m with q_{m+1} > |u|.  Since q_m
    grows at least like the Fibonacci numbers, the default budget never binds
    in practice; a small one bounds the size of the multiples allowed.
    """


class SafetyCapExceeded(SturmlabError):
    """A window scan exceeded its safety cap without collecting enough factors."""


class RecurrenceMismatch(SturmlabError):
    """The three-term permutation recurrence failed to give an ordering."""


class NotInImage(SturmlabError, ValueError):
    """A matrix is not the image of any permutation under the representation."""


class SingularParameters(SturmlabError, ValueError):
    """Conjugation matrix parameters (a, b) make the matrix singular."""


class WitnessCollision(SturmlabError):
    """Two multiples of a cell witness landed on the same fractional part."""
