"""Exact scalar arithmetic over the rationals or a prime field GF(p).

Scalars are plain Python values.  Over GF(p) they are ``int`` residues in
``[0, p)``.  Over the rationals an integral scalar may be a plain ``int`` or
a ``fractions.Fraction`` with denominator 1, and a non-integral one is a
reduced ``Fraction`` with positive denominator.  The two types agree on
``==``, ``hash`` and ``str`` (``Fraction(3) == 3``, ``str(Fraction(3)) ==
"3"``), so no comparison, set, dict key or printed output depends on which
one a computation produced.  A :class:`Field` object supplies the
operations, so no floating point ever enters any computation.

The hot loops (``Algebra.multiply``, ``SpanBasis``) do not call the field
per scalar: over Q they work on integer numerators over one common
denominator (:func:`integer_row`) and build exact scalars only for their
output (:func:`rational_row`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DivisionByZero, FieldMismatch, ParseError

Scalar = object  # int or Fraction over Q, int residue over GF(p)


def integer_row(vec) -> tuple:
    """(numerators, d) with vec == [x / d for x in numerators]; d > 0 is the lcm.

    ``vec`` holds rational scalars (``int`` or ``Fraction``).  An all-int
    vector is returned as it is, not copied.
    """
    for x in vec:
        if type(x) is not int:
            break
    else:
        return vec, 1
    d = 1
    for x in vec:
        q = x.denominator
        if d % q:
            d = d // gcd(d, q) * q
    if d == 1:
        return [x if type(x) is int else x.numerator for x in vec], 1
    return [x * d if type(x) is int else x.numerator * (d // x.denominator)
            for x in vec], d


def rational_row(numerators, d: int) -> tuple:
    """The exact scalars x / d, for integers x and d > 0: int when integral."""
    if d == 1:
        return tuple(numerators)
    return tuple(x // d if x % d == 0 else Fraction(x, d) for x in numerators)


def is_prime(n: int) -> bool:
    """Trial division up to sqrt(n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """Common interface for exact scalar arithmetic.

    ``kind`` is ``"rationals"`` or ``"prime-field"``; ``characteristic`` is
    0 or p.  Concrete values are produced by :meth:`from_int` and
    :meth:`parse` and consumed by the arithmetic methods below.
    """

    kind: str
    characteristic: int

    def __eq__(self, other):
        return isinstance(other, Field) and self.kind == other.kind \
            and self.characteristic == other.characteristic

    def __hash__(self):
        return hash((self.kind, self.characteristic))

    def check_same(self, other: "Field") -> None:
        if self != other:
            raise FieldMismatch(f"cannot mix {self} and {other}")

    # subclass API: zero, one, from_int, add, sub, mul, neg, inv, div,
    # is_zero, parse-helper _parse_parts, format

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def parse(self, text: str):
        """Parse ``a``, ``a/b``, or ``-a/b`` (ASCII or U+2212 minus)."""
        cleaned = text.strip().replace("−", "-")
        num, _, den = cleaned.partition("/")
        try:
            n = int(num)
        except ValueError:
            raise ParseError(f"bad scalar {text!r}") from None
        if not _:
            return self.from_int(n)
        try:
            d = int(den)
        except ValueError:
            raise ParseError(f"bad scalar {text!r}") from None
        return self.div(self.from_int(n), self.from_int(d))


class Rationals(Field):
    kind = "rationals"
    characteristic = 0

    def __repr__(self):
        return "Q"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by 0")
        return Fraction(a) / b

    def is_zero(self, a) -> bool:
        return a == 0

    def format(self, a) -> str:
        return str(a)


class PrimeField(Field):
    """GF(p) with residues stored as the least non-negative representative."""

    kind = "prime-field"

    def __init__(self, p: int):
        if not is_prime(p):
            raise ParseError(f"modulus {p} is not prime")
        self.p = p
        self.characteristic = p

    def __repr__(self):
        return f"GF({self.p})"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero("inverse of 0")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def format(self, a) -> str:
        return str(a % self.p)


_ARITH_UNARY = {"neg", "inv"}


def scalar_arith(field: Field, op: str, a, b=None):
    """Apply one of add/sub/mul/div/neg/inv in the given field."""
    if op in _ARITH_UNARY:
        if b is not None:
            raise ValueError(f"{op} takes one operand")
        return getattr(field, op)(a)
    if b is None:
        raise ValueError(f"{op} takes two operands")
    return getattr(field, op)(a, b)


def field_from_spec(kind: str, modulus: int | None = None) -> Field:
    """Build a field from its textual description."""
    if kind == "rationals":
        return Rationals()
    if kind == "prime-field":
        if modulus is None:
            raise ParseError("prime field needs a modulus")
        return PrimeField(modulus)
    raise ParseError(f"unknown field kind {kind!r}")
