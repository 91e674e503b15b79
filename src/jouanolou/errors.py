"""Exception types shared across the library."""


class JouanolouError(Exception):
    """Base class for all library errors."""


class ParseError(JouanolouError):
    """Malformed textual input. Carries the offending position and what was expected."""

    def __init__(self, message, position=None, expected=None):
        self.position = position
        self.expected = expected
        loc = f" at position {position}" if position is not None else ""
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"{message}{loc}{hint}")


# field
class DivisionByZero(JouanolouError):
    pass


class ContextMismatch(JouanolouError):
    pass


class ZeroInput(JouanolouError):
    pass


class NotPrimeField(JouanolouError):
    pass


# groebner
class BudgetExceeded(JouanolouError):
    """The reduction-step budget ran out before the computation finished."""


class DegreeOverflow(BudgetExceeded):
    """A monomial degree past the engine's packed key field: the problem is
    left undecided, as when the budget runs out."""


# bundle / resultants
class ResultantNotUnit(JouanolouError):
    pass


class PreconditionViolated(JouanolouError):
    pass


# morphism
class NotGenerating(JouanolouError):
    pass


class NotPointed(JouanolouError):
    pass


class NotNormalizable(JouanolouError):
    pass


class NotUnimodular(JouanolouError):
    pass


class ZeroParameter(JouanolouError):
    pass


class ResultantZero(JouanolouError):
    pass


# sl2 / homotopy
class NoCertificate(JouanolouError):
    pass


class LiftMismatch(JouanolouError):
    pass


# realize
class ChartDegenerate(JouanolouError):
    pass


class Unresolved(JouanolouError):
    pass


# mwk
class UnsupportedField(JouanolouError):
    pass
