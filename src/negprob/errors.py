"""Exception types shared across the package.

Every error raised deliberately by this package derives from
:class:`NegprobError`, so callers can catch one base class.  Errors that
signal bad input additionally derive from :class:`ValueError` (or
:class:`LookupError` where that is the better fit) to stay friendly to
generic handling code.
"""

from __future__ import annotations


class NegprobError(Exception):
    """Base class for every error raised by this package."""


class DuplicateName(NegprobError, ValueError):
    """A variable name appears more than once in a space definition."""


class TooManyVariables(NegprobError, ValueError):
    """More variables requested than the enumerable-atom limit allows."""


class InvalidName(NegprobError, ValueError):
    """A variable name is empty, not a string, or the name list is empty."""


class UnknownVariable(NegprobError, ValueError):
    """A referenced variable is not part of the relevant space."""


class InvalidAssignment(NegprobError, ValueError):
    """An assignment value is something other than +1 or -1."""


class SpaceMismatch(NegprobError, ValueError):
    """Two objects that must share a sample space do not."""


class UndefinedConditional(NegprobError, ZeroDivisionError):
    """Conditioning event has mass zero, so the conditional has no value."""


class ImproperDistribution(NegprobError, ValueError):
    """A context distribution is negative somewhere or does not sum to 1."""


class ContradictoryRows(NegprobError, ValueError):
    """The same event is pinned to two different values."""

    def __init__(self, event: object, value_a: object, value_b: object) -> None:
        super().__init__(
            f"event {event!r} pinned to both {value_a} and {value_b}"
        )
        self.event = event
        self.value_a = value_a
        self.value_b = value_b


class MissingNormalization(NegprobError, ValueError):
    """A constraint system reached the solver without its total-mass row."""


class ValueOutOfBounds(NegprobError, ValueError):
    """A numeric argument lies outside its documented range."""


class MissingPairContext(NegprobError, LookupError):
    """No context in the family covers a requested variable pair."""


class InvalidCase(NegprobError, ValueError):
    """Interferometer case index outside 1..8."""


class AlphaOutOfRange(NegprobError, ValueError):
    """Minimizer-family parameter outside [0, 1/2]."""


class EpsOutOfRange(NegprobError, ValueError):
    """Detuning fraction outside [0, 1/2)."""


class CorrelationOutOfRange(NegprobError, ValueError):
    """A pair correlation with magnitude above 1."""


class DegenerateGeometry(NegprobError, ArithmeticError):
    """Both detector intensities vanished; cannot normalize."""


class ScenarioFormatError(NegprobError, ValueError):
    """A rational literal or scenario file violates its documented format."""
