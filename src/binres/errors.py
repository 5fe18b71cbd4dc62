"""Typed errors raised by the binres library.

Exceptions derived from ValidationError indicate bad input (CLI exit code 1);
InternalCheckError indicates a violated internal invariant (exit code 2).
"""
from __future__ import annotations


def clip(text: str, limit: int = 40) -> str:
    """text, or its first limit characters and its length when it is longer,
    so that an error message never echoes a huge input value whole."""
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


class BinresError(Exception):
    """Base class for all library errors."""


class ValidationError(BinresError):
    """Malformed or inconsistent user input."""


class ParseError(ValidationError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class ModeMismatchError(ValidationError):
    """Symbolic and specialized values mixed in one operation."""


class MissingParameterError(ValidationError):
    """A specialization assignment does not cover a parameter in use."""


class DependentFormsError(ValidationError):
    """Input forms of a quadratic space are linearly dependent."""


class GenericityExhaustedError(BinresError):
    """Retry budget for a generic substitution ran out (cannot happen over Q)."""


class NonSquareMatrixError(ValidationError):
    """Determinant factorization requires a square matrix."""


class SingularCoeffMatrixError(BinresError):
    """C(lambda) is singular after specialization; carries the degree."""

    def __init__(self, lam: int, message: str | None = None):
        super().__init__(message or f"C({lam}) is singular for this specialization")
        self.lam = lam


class DegenerateSystemError(BinresError):
    """A delta determinant vanished identically; the system is degenerate."""


class DegreeRangeError(ValidationError):
    """Polynomial degree outside the range the operation supports."""


class DegenerateSampleError(BinresError):
    """A randomized computation hit a degenerate sample; resample."""


class InternalCheckError(BinresError):
    """An internal cross-check failed; indicates a bug, not bad input."""
