import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from alglen.errors import DivisionByZero, ParseError
from alglen.field import PrimeField, Rationals, is_prime
from alglen.io_cli import _resolve_field

Q = Rationals()
F5 = PrimeField(5)


def test_arith_examples():
    assert Q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert F5.mul(3, 4) == 2
    with pytest.raises(DivisionByZero):
        Q.inv(Fraction(0))
    with pytest.raises(DivisionByZero):
        F5.inv(0)


def test_parse_examples():
    assert Q.parse("−3/6") == Fraction(-1, 2)
    assert F5.parse("7") == 2
    assert F5.parse("1/2") == 3
    with pytest.raises(ParseError):
        Q.parse("one half")
    with pytest.raises(DivisionByZero):
        Q.parse("1/0")


def test_prime_check():
    assert is_prime(2) and is_prime(3) and is_prime(97)
    assert not is_prime(1) and not is_prime(4) and not is_prime(91)
    with pytest.raises(ParseError):
        PrimeField(6)
    # the Mersenne prime 2^61 - 1 and the largest prime below 2^64
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59)
    start = time.perf_counter()
    assert PrimeField(2**64 - 59).characteristic == 2**64 - 59
    assert time.perf_counter() - start < 0.05
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the primes up to 31
    assert not is_prime(3215031751) and not is_prime(3825123056546413051)
    # every n below 10^5 against a sieve of Eratosthenes
    n = 10**5
    sieve = [False, False] + [True] * (n - 2)
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, n, i))
    assert [k for k in range(n) if is_prime(k)] == [k for k in range(n) if sieve[k]]
    # no exact test is claimed from 2^64 on, so such a modulus is refused
    with pytest.raises(ValueError):
        is_prime(2**64)
    with pytest.raises(ParseError, match="not below 2"):
        PrimeField(10**30 + 57)


def test_field_equality_and_mismatch():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7) != Q
    assert Q != F5 and hash(F5) == hash(PrimeField(5))
    assert _resolve_field("rational") == Q
    assert _resolve_field("gf:5") == F5


rationals = st.fractions(min_value=-50, max_value=50)
residues = st.integers(min_value=0, max_value=4)


@given(rationals, rationals, rationals)
def test_rational_axioms(a, b, c):
    assert Q.add(Q.add(a, b), c) == Q.add(a, Q.add(b, c))
    assert Q.mul(a, b) == Q.mul(b, a)
    assert Q.mul(a, Q.add(b, c)) == Q.add(Q.mul(a, b), Q.mul(a, c))
    if a != 0:
        assert Q.mul(a, Q.inv(a)) == Q.one()


@given(residues, residues, residues)
def test_prime_field_axioms(a, b, c):
    assert F5.add(F5.add(a, b), c) == F5.add(a, F5.add(b, c))
    assert F5.mul(a, b) == F5.mul(b, a)
    assert F5.mul(a, F5.add(b, c)) == F5.add(F5.mul(a, b), F5.mul(a, c))
    if a % 5:
        assert F5.mul(a, F5.inv(a)) == 1


@given(rationals)
def test_rational_print_parse_roundtrip(a):
    assert Q.parse(Q.format(a)) == a


@given(st.integers(min_value=0, max_value=96))
def test_prime_field_print_parse_roundtrip(a):
    f = PrimeField(97)
    assert f.parse(f.format(a)) == a
