"""Exact scalar arithmetic over the rationals or a prime field GF(p).

Scalars are plain Python values.  Over GF(p) they are ``int`` residues in
``[0, p)``.  Over the rationals an integral scalar may be a plain ``int`` or
a ``fractions.Fraction`` with denominator 1, and a non-integral one is a
reduced ``Fraction`` with positive denominator.  The two types agree on
``==``, ``hash`` and ``str`` (``Fraction(3) == 3``, ``str(Fraction(3)) ==
"3"``), so no comparison, set, dict key or printed output depends on which
one a computation produced.  A :class:`Field` object supplies the
operations, so no floating point ever enters any computation.

The hot loops (the span ladder ``spans._ladder`` and the identity walk
``identities._walk``) do not call the field per scalar: they work on
integer rows, over Q an element's numerators over one common denominator
(:func:`integer_row`), multiply them with plain ``int`` arithmetic in the
code that each algebra compiles from its structure constants
(``Algebra.product_kernel``), and build exact scalars only for their
output (:func:`rational_row`).

``fractions`` is imported only where a ``Fraction`` is built, so a run over
GF(p) never loads it (nor the ``decimal`` module that it loads).
"""

from __future__ import annotations

from math import gcd

from .errors import DivisionByZero, ParseError


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
    from fractions import Fraction
    return tuple(x // d if x % d == 0 else Fraction(x, d) for x in numerators)


# Miller-Rabin with these bases decides every n < 2^64 exactly
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_LIMIT = 2**64


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for 0 <= n < 2^64; larger n raise ValueError."""
    if n >= _PRIME_LIMIT:
        raise ValueError(f"no exact primality test for {n} >= 2^64")
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface for exact scalar arithmetic.

    ``characteristic`` is 0 over the rationals and p over GF(p), so it alone
    tells two fields apart.  Concrete values are produced by :meth:`from_int`
    and :meth:`parse` and consumed by the arithmetic methods below.
    """

    characteristic: int

    def __eq__(self, other):
        return isinstance(other, Field) and self.characteristic == other.characteristic

    def __hash__(self):
        return hash(self.characteristic)

    # subclass API: from_int, add, sub, mul, neg, inv, is_zero, format

    def zero(self):
        return 0

    def one(self):
        return 1

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
    characteristic = 0

    def __repr__(self):
        return "Q"

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
        from fractions import Fraction
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by 0")
        from fractions import Fraction
        return Fraction(a) / b

    def is_zero(self, a) -> bool:
        return a == 0

    def format(self, a) -> str:
        return str(a)


class PrimeField(Field):
    """GF(p) with residues stored as the least non-negative representative."""

    def __init__(self, p: int):
        if p >= _PRIME_LIMIT:
            raise ParseError(f"modulus {p} is not below 2^64")
        if not is_prime(p):
            raise ParseError(f"modulus {p} is not prime")
        self.p = p
        self.characteristic = p

    def __repr__(self):
        return f"GF({self.p})"

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

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def format(self, a) -> str:
        return str(a % self.p)
