"""Exact length functions, identity classes, and canonical word forms for
finite-dimensional non-associative algebras given by structure constants."""

from .algebra import Algebra, make_algebra
from .field import PrimeField, Rationals
from .spans import DiffSequence, SpanBasis, diff_sequence, exact_algebra_length

__all__ = [
    "Algebra",
    "DiffSequence",
    "PrimeField",
    "Rationals",
    "SpanBasis",
    "diff_sequence",
    "exact_algebra_length",
    "make_algebra",
]

__version__ = "0.1.0"
