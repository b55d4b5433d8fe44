"""Domain exceptions shared across the package."""


class DomainError(ValueError):
    """Base class for violated mathematical preconditions."""


class NotReduced(DomainError):
    pass


class OutsideWindow(DomainError):
    pass


class NotCommuting(DomainError):
    pass


class NotBraidPattern(DomainError):
    pass


class WrongCarrier(DomainError):
    pass


class NotLongestWord(DomainError):
    pass


class ParityMismatch(DomainError):
    pass


class NotPrimeSnakePair(DomainError):
    pass


class NotSnake(DomainError):
    pass


class NotPrimeSnake(DomainError):
    pass


class TooShort(DomainError):
    pass


class MissingTableEntry(DomainError):
    pass


class NotAnInteger(DomainError):
    """A count, letter, height or rank that is not an int (a float, a bool, a Fraction, ...)."""


class NotHeightFunction(DomainError):
    """Values that break the height rule of their flavor."""


class InternalError(AssertionError):
    """A failed internal consistency check: a bug, not bad input.

    Raised explicitly, so that ``python -O`` cannot strip the check; it stays
    an AssertionError for callers that treat a failed check as one.
    """
