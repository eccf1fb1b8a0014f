"""Differential tests of the integer fast paths of Algebra.multiply and SpanBasis.

Over Q the engine works on integer numerators over a common denominator and
hands out int or Fraction scalars; over GF(p) on residue lists.  These tests
compare it with the per-scalar Field-method references in ``oracles`` on
random algebras of dimension at most 4, and check that a vector's scalar
types (all Fraction, or int where integral) never change a result.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import oracles
from alglen.algebra import make_algebra
from alglen.field import PrimeField, Rationals
from alglen.spans import SpanBasis

Q = Rationals()
FIELDS = (Q, PrimeField(2), PrimeField(3))

SETTINGS = settings(max_examples=150, deadline=None)


def scalars(field):
    if field.characteristic:
        return st.integers(0, field.characteristic - 1)
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))


def plain(x):
    """The same rational, as a plain int when it is integral."""
    return x.numerator if x.denominator == 1 else x


def mixed(vec):
    return tuple(map(plain, vec))


def as_fractions(vec):
    return tuple(Fraction(x) for x in vec)


def in_contract(field, vec):
    """int residues over GF(p); int or non-integral reduced Fraction over Q."""
    if field.characteristic:
        return all(type(x) is int and 0 <= x < field.characteristic for x in vec)
    return all(type(x) is int or (type(x) is Fraction and x.denominator > 1)
               for x in vec)


@st.composite
def algebras(draw, field):
    dim = draw(st.integers(1, 4))
    index = st.integers(1, dim)
    products = {}
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            products[(i, j)] = draw(st.lists(st.tuples(index, scalars(field)),
                                             max_size=2, unique_by=lambda t: t[0]))
    return make_algebra(field, dim, products)


@st.composite
def algebra_and_vectors(draw, count):
    field = draw(st.sampled_from(FIELDS))
    algebra = draw(algebras(field))
    vec = st.tuples(*[scalars(field)] * algebra.dim)
    return algebra, [draw(vec) for _ in range(count)]


@SETTINGS
@given(algebra_and_vectors(2))
def test_multiply_matches_field_reference(case):
    algebra, (a, b) = case
    f = algebra.field
    expected = oracles.field_multiply(algebra, a, b)
    got = algebra.multiply(a, b)
    assert got == expected
    assert in_contract(f, got)
    if not f.characteristic:
        for u, v in ((mixed(a), mixed(b)), (as_fractions(a), mixed(b)),
                     (mixed(a), as_fractions(b))):
            assert algebra.multiply(u, v) == expected
        # the structure constants' scalar types do not matter either
        retyped = make_algebra(f, algebra.dim, {ij: [(k, plain(c)) for k, c in terms]
                                                for ij, terms in algebra.sc.items()})
        assert retyped.multiply(mixed(a), b) == expected


@st.composite
def span_cases(draw):
    field = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(1, 4))
    vec = st.tuples(*[scalars(field)] * dim)
    vectors = draw(st.lists(vec, max_size=5))
    # a probe inside the span of a prefix, shifted off it half the time
    coeffs = draw(st.lists(scalars(field), min_size=len(vectors), max_size=len(vectors)))
    probe = [field.zero()] * dim
    for c, v in zip(coeffs, vectors):
        probe = [field.add(x, field.mul(c, y)) for x, y in zip(probe, v)]
    if draw(st.booleans()):
        probe = [field.add(x, y) for x, y in zip(probe, draw(vec))]
    return field, dim, vectors, tuple(probe)


def _grow(field, dim, vectors):
    """Insert the vectors one by one; (basis, per-insert results)."""
    basis = SpanBasis(field, dim)
    results = [basis.insert(v) for v in vectors]
    return basis, results


@SETTINGS
@given(span_cases())
def test_span_basis_matches_reference_reduction(case):
    field, dim, vectors, probe = case
    basis = SpanBasis(field, dim)
    for m, v in enumerate(vectors):
        before = oracles.rref_rows(field, vectors[:m], dim)
        residue = oracles.field_residue(field, before, v)
        added, normalized = basis.insert(v)
        lead = next((i for i, x in enumerate(residue) if not field.is_zero(x)), None)
        assert added == (lead is not None)
        if added:
            inv = field.inv(residue[lead])
            assert normalized == tuple(field.mul(inv, x) for x in residue)
            assert in_contract(field, normalized)
        else:
            assert normalized is None
        rref = oracles.rref_rows(field, vectors[:m + 1], dim)
        assert basis.row_tuples() == rref
        assert basis.rank == len(rref)
        assert [tuple(r) for r in basis.rows] == list(rref)
        assert all(in_contract(field, r) for r in basis.rows)
    rref = oracles.rref_rows(field, vectors, dim)
    expected = oracles.field_residue(field, rref, probe)
    got = basis.reduce(probe)
    assert got == expected and in_contract(field, got)
    assert basis.contains(probe) == all(field.is_zero(x) for x in expected)
    # equality depends on the span only, not on the order or sign of the rows
    negated, _ = _grow(field, dim, [tuple(map(field.neg, v)) for v in reversed(vectors)])
    assert negated == basis


@SETTINGS
@given(span_cases())
def test_span_basis_ignores_scalar_types(case):
    field, dim, vectors, probe = case
    if field.characteristic:
        return
    as_frac, frac_results = _grow(field, dim, [as_fractions(v) for v in vectors])
    as_mixed, mixed_results = _grow(field, dim, [mixed(v) for v in vectors])
    assert frac_results == mixed_results
    assert as_frac == as_mixed and as_frac.row_tuples() == as_mixed.row_tuples()
    for basis in (as_frac, as_mixed):
        for p in (as_fractions(probe), mixed(probe)):
            assert basis.reduce(p) == as_frac.reduce(probe)
            assert basis.contains(p) == as_frac.contains(probe)
