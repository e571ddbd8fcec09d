"""Exception hierarchy shared by all solver modules."""


class CenterStringError(Exception):
    """Base class for all errors raised by this package."""


class LengthMismatch(CenterStringError):
    """Two sequences that must have equal length do not."""


class AlphabetMismatch(CenterStringError):
    """Sequences over different alphabets, or a symbol outside the alphabet."""


class FrameMismatch(CenterStringError):
    """An anchor row or position mask has a different length than the strings it is applied to."""


class EmptyInput(CenterStringError):
    """An operation that needs at least one sequence received none."""


class WindowTooLong(CenterStringError):
    """The requested window length exceeds some input string."""


class BudgetExceeded(CenterStringError):
    """A sweep or search would do more work than its budget allows."""


class DomainError(CenterStringError):
    """A parameter is outside its documented domain."""


class EstimatorAtLeastOne(CenterStringError):
    """The conditional-expectation failure estimator starts at >= 1, so the
    derandomized guarantee cannot be certified for this epsilon."""


class NumericalFailure(CenterStringError):
    """The LP backend failed to produce a usable solution."""
