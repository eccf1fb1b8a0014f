"""Differential tests of the integer fast paths of Algebra.multiply, SpanBasis
and the span ladder.

Over Q the engine works on integer numerators over a common denominator and
hands out int or Fraction scalars; over GF(p) on residue lists.  These tests
compare it with the per-scalar Field-method references in ``oracles`` on
random algebras of dimension at most 4, and check that a vector's scalar
types (all Fraction, or int where integral) never change a result.  The
difference sequences and the spans Lin_k(S) of the span ladder are compared
with the spans of all words, enumerated by brute force, and the exhaustive
identity verdicts with a sweep over every pair of elements.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

import oracles
from alglen.algebra import make_algebra
from alglen.examples import make_unital_hull
from alglen.field import PrimeField, Rationals, rational_row
from alglen.identities import classify
from alglen.spans import SpanBasis, diff_sequence, lin_span

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


def small_integers(field):
    if field.characteristic:
        return scalars(field)
    return st.integers(-2, 2).map(Fraction)


@st.composite
def algebras(draw, field, constants=scalars, max_dim=4):
    dim = draw(st.integers(1, max_dim))
    index = st.integers(1, dim)
    products = {}
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            products[(i, j)] = draw(st.lists(st.tuples(index, constants(field)),
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
    """Add the vectors one by one; (basis, per-add residue and whether it grew)."""
    basis = SpanBasis(field, dim)
    results = [(rational_row(*basis.residue(v)), basis.add(v)) for v in vectors]
    return basis, results


@SETTINGS
@given(span_cases())
def test_span_basis_matches_reference_reduction(case):
    field, dim, vectors, probe = case
    basis = SpanBasis(field, dim)
    for m, v in enumerate(vectors):
        before = oracles.rref_rows(field, vectors[:m], dim)
        residue = oracles.field_residue(field, before, v)
        got = rational_row(*basis.residue(v))
        assert list(got) == residue and in_contract(field, got)
        assert basis.add(v) == any(residue)
        rref = oracles.rref_rows(field, vectors[:m + 1], dim)
        assert basis.row_tuples() == rref
        assert basis.rank == len(rref)
        assert [tuple(r) for r in basis.rows] == list(rref)
        assert all(in_contract(field, r) for r in basis.rows)
    rref = oracles.rref_rows(field, vectors, dim)
    expected = oracles.field_residue(field, rref, probe)
    got = rational_row(*basis.residue(probe))
    assert list(got) == expected and in_contract(field, got)
    assert basis.contains(probe) == all(field.is_zero(x) for x in expected)
    # the rows depend on the span only, not on the order or sign of the vectors
    negated, _ = _grow(field, dim, [tuple(map(field.neg, v)) for v in reversed(vectors)])
    assert negated.row_tuples() == basis.row_tuples()


@SETTINGS
@given(span_cases())
def test_span_basis_ignores_scalar_types(case):
    field, dim, vectors, probe = case
    if field.characteristic:
        return
    as_frac, frac_results = _grow(field, dim, [as_fractions(v) for v in vectors])
    as_mixed, mixed_results = _grow(field, dim, [mixed(v) for v in vectors])
    assert frac_results == mixed_results
    assert as_frac.row_tuples() == as_mixed.row_tuples()
    for basis in (as_frac, as_mixed):
        for p in (as_fractions(probe), mixed(probe)):
            assert rational_row(*basis.residue(p)) == rational_row(*as_frac.residue(probe))
            assert basis.contains(p) == as_frac.contains(probe)


@st.composite
def algebra_and_set(draw):
    field = draw(st.sampled_from(FIELDS))
    algebra = draw(algebras(field, small_integers))
    if algebra.dim < 4 and draw(st.booleans()):
        algebra = make_unital_hull(algebra)
    vec = st.tuples(*[scalars(field)] * algebra.dim)
    return algebra, draw(st.lists(vec, min_size=1, max_size=2))


@SETTINGS
@given(algebra_and_set())
def test_ladder_matches_word_spans(case):
    algebra, gens = case
    seq = diff_sequence(algebra, gens)
    words = oracles.full_word_span(algebra, gens, len(seq.d) + 1)
    dims = [len(rows) for rows in words]
    diffs = tuple([dims[0]] + [b - a for a, b in zip(dims, dims[1:])])
    assert diffs == seq.d + (0, 0)
    # the closure-checked ladder never ends on a level that added nothing
    assert seq.d == (0,) or seq.d[-1] != 0
    assert seq.stabilized_by == "closure-criterion"
    for k in range(seq.length_of_set + 1):
        assert lin_span(algebra, gens, k).row_tuples() == words[k], k


@SETTINGS
@given(st.sampled_from([(PrimeField(2), 3), (PrimeField(3), 2)]).flatmap(
    lambda case: algebras(case[0], max_dim=case[1])))
def test_exhaustive_verdicts_match_brute_force(algebra):
    points = list(product(range(algebra.field.characteristic), repeat=algebra.dim))
    table = {(a, b): oracles.field_multiply(algebra, a, b) for a in points for b in points}

    def mul(a, b):
        return table[a, b]

    flexible = all(mul(mul(a, b), a) == mul(a, mul(b, a)) for a in points for b in points)
    alternative = all(mul(a, mul(a, b)) == mul(mul(a, a), b)
                      and mul(mul(b, a), a) == mul(b, mul(a, a))
                      for a in points for b in points)
    report = classify(algebra, samples=4)
    assert report.verdict("flexible").kind == ("holds-exhaustive" if flexible else "fails")
    assert report.verdict("alternative").kind == ("holds-exhaustive" if alternative else "fails")
    for verdict in report.verdicts.values():
        if verdict.kind == "fails":
            assert oracles.witness_violated(algebra, verdict.witness), verdict.witness
