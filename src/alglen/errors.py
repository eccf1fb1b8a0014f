"""Exception types shared across the package."""


class AlgLenError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(AlgLenError, ZeroDivisionError):
    """Division by, or inversion of, the zero scalar."""


class ParseError(AlgLenError, ValueError):
    """Malformed scalar, word, or algebra-file text."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DimensionMismatch(AlgLenError):
    """Vector length does not match the ambient dimension."""


class IndexOutOfRange(AlgLenError):
    """A 1-based basis or letter index is outside its valid range."""


class ResourceLimit(AlgLenError):
    """An enumeration or iteration exceeded its configured budget."""


class NotRestrictedForm(AlgLenError):
    """Word is not a chain of single-letter left/right multiplications."""


class WordTooShort(AlgLenError):
    """Word has fewer letters than the operation requires."""


class DomainError(AlgLenError, ValueError):
    """Numeric argument outside its domain: a bound formula's, or a sample count below 1."""


class NotFiniteField(AlgLenError):
    """Operation requires a prime field but the algebra is rational."""


class AlreadyUnital(AlgLenError):
    """Unital hull requested for an algebra that already has a unity."""
