import random
import re
import time
import traceback
from fractions import Fraction
from itertools import accumulate, combinations, product, takewhile

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from alglen import examples, spans
from alglen.algebra import make_algebra
from alglen.errors import DimensionMismatch, NotFiniteField, ResourceLimit
from alglen.field import PrimeField, Rationals, integer_row
from alglen.io_cli import build_example
from alglen.spans import (DiffSequence, SpanBasis, count_subspaces, diff_sequence,
                          exact_algebra_length, gaussian_binomial, lin_span)
from alglen.words import word_row
from oracles import enumerate_subspaces

Q = Rationals()


def test_rref_insert_examples():
    b = SpanBasis(Q, 3)
    assert b.add([Fraction(1), Fraction(0), Fraction(0)]) and b.rank == 1
    assert b.residue([Fraction(2), Fraction(0), Fraction(0)]) == ([0, 0, 0], 1)
    assert not b.add([Fraction(2), Fraction(0), Fraction(0)]) and b.rank == 1
    b = SpanBasis(Q, 3)
    b.add([Fraction(1), Fraction(1), Fraction(0)])
    assert b.residue([Fraction(0), Fraction(1), Fraction(0)]) == ([0, 1, 0], 1)
    b.add([Fraction(0), Fraction(1), Fraction(0)])
    assert b.row_tuples() == ((Fraction(1), Fraction(0), Fraction(0)),
                              (Fraction(0), Fraction(1), Fraction(0)))


ECHELON_FIELDS = [Q, PrimeField(2), PrimeField(3), PrimeField(5)]


@st.composite
def vector_lists(draw):
    """(field, dim, vectors): some drawn vectors, then linear combinations of them."""
    field = draw(st.sampled_from(ECHELON_FIELDS))
    dim = draw(st.integers(1, 5))
    if field.characteristic:
        scalar = st.integers(0, field.characteristic - 1)
    else:
        scalar = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    vec = st.lists(scalar, min_size=dim, max_size=dim)
    free = draw(st.lists(vec, min_size=1, max_size=4))
    dependent = [
        [sum((field.mul(c, u[i]) for c, u in zip(coeffs, free)), 0)
         for i in range(dim)]
        for coeffs in draw(st.lists(st.lists(scalar, min_size=len(free), max_size=len(free)),
                                    max_size=3))]
    if field.characteristic:
        dependent = [[x % field.characteristic for x in v] for v in dependent]
    return field, dim, free + dependent


def _as_rational(field, residue):
    w, s = residue
    return [Fraction(x, s) for x in w] if not field.characteristic else list(w)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_echelon_rows_match_the_rref_oracle(data):
    # rows are reduced only against the rows inserted before them, and the
    # reduced row-echelon form is built on read: in any insertion order,
    # after every insertion, the read form, the pivots and the residues
    # must be those of a fully reduced basis
    field, dim, vectors = data.draw(vector_lists())
    probes = data.draw(st.lists(st.sampled_from(vectors), max_size=2)) + [
        [(i * 7 + 3) % 5 - 2 for i in range(dim)], [1] * dim]
    bases = []
    for order in (data.draw(st.permutations(vectors)), data.draw(st.permutations(vectors))):
        basis = SpanBasis(field, dim)
        for k, v in enumerate(order):
            before = oracles.rref_rows(field, order[:k], dim)
            residue = oracles.field_residue(field, before, v)
            if field.characteristic:
                residue = [x % field.characteristic for x in residue]
            assert _as_rational(field, basis.residue(list(v))) == residue
            assert basis.add(list(v)) == any(residue)
            rref = oracles.rref_rows(field, order[:k + 1], dim)
            assert basis.row_tuples() == rref
            assert basis.rows == [list(r) for r in rref]
            assert basis.pivots == [next(i for i, x in enumerate(r) if not field.is_zero(x))
                                    for r in rref]
            assert basis.rank == len(rref)
            for probe in probes:
                expected = oracles.field_residue(field, rref, probe)
                if field.characteristic:
                    expected = [x % field.characteristic for x in expected]
                assert _as_rational(field, basis.residue(probe)) == expected
                assert basis.contains(probe) == (not any(expected))
        bases.append(basis)
    rref = oracles.rref_rows(field, vectors, dim)
    again = SpanBasis(field, dim)
    for row in rref:
        again.add(list(row))
    assert bases[0].row_tuples() == bases[1].row_tuples() == again.row_tuples() == rref
    # add builds no residue but the same rows; over Q an integer multiple
    # of a vector spans the same line
    added = SpanBasis(field, dim)
    for k, v in enumerate(vectors):
        rank = added.rank
        scale = 1 if field.characteristic else k + 2
        assert added.add([x * scale for x in v]) == (added.rank > rank)
    assert added.row_tuples() == again.row_tuples()
    # one vector fewer spans less when it was not dependent on the others
    smaller = SpanBasis(field, dim)
    for v in vectors[1:]:
        smaller.add(list(v))
    assert (smaller.row_tuples() == again.row_tuples()) == (smaller.rank == again.rank)


ROW_ENTRY = st.one_of(st.just(0), st.integers(-9, 9),
                      st.integers(2**64, 2**70), st.integers(-2**70, -2**64))


@st.composite
def insertion_sequences(draw):
    """(p, vectors): int vectors of one length 1-9, some of them combinations of earlier ones."""
    p = draw(st.sampled_from([0, 2, 3, 5, 10007]))
    n = draw(st.integers(1, 9))
    vectors = []
    for _ in range(draw(st.integers(1, 12))):
        if vectors and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(vectors),
                                   max_size=len(vectors)))
            vectors.append([sum(c * u[i] for c, u in zip(coeffs, vectors)) for i in range(n)])
        else:
            vectors.append(draw(st.lists(ROW_ENTRY, min_size=n, max_size=n)))
    return p, vectors


def _assert_matches_the_interpreted_routine(p, vectors):
    rows, pivots, ref_rows, ref_pivots = [], [], [], []
    for v in vectors:
        assert (spans._reduce(rows, pivots, p, list(v))
                == oracles.echelon_reduce(ref_rows, ref_pivots, p, list(v)))
        assert (spans._insert(rows, pivots, p, list(v))
                == oracles.echelon_insert(ref_rows, ref_pivots, p, list(v)))
        assert (rows, pivots) == (ref_rows, ref_pivots)


@settings(max_examples=300, deadline=None)
@given(insertion_sequences())
@example((0, [[], []]))  # rows of length 0, as in SpanBasis(field, 0)
@example((3, [[]]))
def test_row_kernels_match_the_interpreted_routine(case):
    # the echelon routine with its row operations compiled per row length
    # returns the rows (or None), keeps the pivots and gives the (w, s) of
    # the interpreted loops, over Q with entries past 2^64 and over GF(p)
    p, vectors = case
    _assert_matches_the_interpreted_routine(p, vectors)


def test_row_kernels_build_in_linear_time_once_per_length(monkeypatch):
    # the five kernels of 4,001 entries build in about 0.25 s on a 2-core
    # Xeon VM, so the bound catches a build some eight times slower; a
    # length is compiled once, however often the routine runs on it
    n = 4001
    compile_kernel, builds = spans.compile_kernel, []
    monkeypatch.setattr(spans, "compile_kernel",
                        lambda *args: builds.append(args[:2]) or compile_kernel(*args))
    monkeypatch.delitem(spans._ROW_KERNELS, n, raising=False)
    start = time.perf_counter()
    kernels = spans._ROW_KERNELS[n]
    assert time.perf_counter() - start < 2.0
    assert builds == [(f"row kernels, dim {n}", name)
                      for name in ("sub", "comb", "residue", "scale", "lead")]
    rng = random.Random(0)
    long_rows = [[rng.randint(-2**66, 2**66) for _ in range(n)] for _ in range(3)]
    long_rows.append([x - 2 * y for x, y in zip(long_rows[0], long_rows[2])])
    for p in (0, 10007):
        _assert_matches_the_interpreted_routine(p, long_rows)
    assert spans._ROW_KERNELS[n] is kernels and len(builds) == 5


def test_row_kernels_are_named_in_tracebacks():
    # profiles and tracebacks name the kernels and their length, not "<string>"
    name = "<alglen row kernels, dim 3>"
    assert {kernel.__code__.co_filename for kernel in spans._ROW_KERNELS[3]} == {name}
    with pytest.raises(ValueError) as info:
        spans._reduce([[1, 0]], [0], 3, [1, 2, 3])  # a row shorter than v
    assert traceback.extract_tb(info.value.__traceback__)[-1].filename == name


def test_diff_sequence_frozen_values(z2n2, aflex):
    # expected dimension ladders recomputed by the brute-force word oracle
    letters = [z2n2.basis_element(2), z2n2.basis_element(3)]
    assert oracles.full_span_dims(z2n2, letters, 3) == [1, 3, 4, 4]
    seq = diff_sequence(z2n2, letters)
    assert seq.d == (1, 2, 1)
    assert seq.length_of_set == 2 and seq.generating

    pair = [aflex.basis_element(1), aflex.basis_element(2)]
    assert oracles.full_span_dims(aflex, pair, 4) == [0, 2, 4, 5, 5]
    seq = diff_sequence(aflex, pair)
    assert seq.d == (0, 2, 2, 1)
    assert seq.length_of_set == 3 and seq.generating
    assert seq.stabilized_by == "closure-criterion"


def test_diff_sequence_is_a_record_equal_by_fields(aflex):
    pair = [aflex.basis_element(1), aflex.basis_element(2)]
    seq = diff_sequence(aflex, pair)
    fields = dict(d=(0, 2, 2, 1), length_of_set=3, stabilized_by="closure-criterion",
                  generating=True, total_rank=5, dim=5)
    assert seq == DiffSequence(d=(0, 2, 2, 1), dim=5) == diff_sequence(aflex, pair)
    assert seq != DiffSequence(d=(0, 2, 2, 1), dim=6)
    assert repr(seq) == "DiffSequence(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    with pytest.raises(TypeError):
        hash(seq)


def test_empty_set(aflex, z2n2):
    seq = diff_sequence(aflex, [])
    assert seq.d == (0,) and seq.length_of_set == 0 and not seq.generating
    seq = diff_sequence(z2n2, [])
    assert seq.d == (1,) and seq.length_of_set == 0 and not seq.generating


def test_unity_only_set(z2n2):
    seq = diff_sequence(z2n2, [z2n2.unity])
    assert seq.length_of_set == 0 and seq.d == (1,)


def test_chain3_lengths():
    c3 = examples.make_chain3()
    seq = diff_sequence(c3, [c3.basis_element(1)])
    assert seq.length_of_set == 3
    assert seq.d == (0, 1, 1, 1) and seq.generating


def test_whole_basis_has_length_one(aalt):
    gens = [aalt.basis_element(i) for i in range(1, 6)]
    assert diff_sequence(aalt, gens).length_of_set == 1


def test_mixing_mode_matches_general(z2n2, aflex, aalt):
    # these three are mixing, so the one-letter-at-a-time words alone must
    # give the ladder's differences level by level, then stay flat
    cases = [
        (z2n2, [z2n2.basis_element(2), z2n2.basis_element(3)]),
        (aflex, [aflex.basis_element(1), aflex.basis_element(2)]),
        (aalt, [aalt.basis_element(1), aalt.basis_element(2)]),
    ]
    for algebra, gens in cases:
        seq = diff_sequence(algebra, gens)
        dims = [len(rows) for rows in oracles.restricted_word_span(algebra, gens, len(seq.d))]
        diffs = tuple([dims[0]] + [b - a for a, b in zip(dims, dims[1:])])
        assert diffs == seq.d + (0,)
        assert seq.stabilized_by == "closure-criterion"


def test_ladder_matches_oracle(small_registry):
    # rank-polynomial products must span exactly what raw words span
    for name, algebra in small_registry.items():
        n = algebra.dim
        sets = [[algebra.basis_element(i)] for i in range(1, n + 1)]
        sets += [[algebra.basis_element(i), algebra.basis_element(j)]
                 for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for gens in sets[: 2 * n + 4]:
            oracle = oracles.full_word_span(algebra, gens, 4)
            for m in range(5):
                assert lin_span(algebra, gens, m).row_tuples() == oracle[m], (name, m)


def test_wrong_length_generator_is_refused(aflex, aflex_gf2):
    # the ladder zips rows, so the length check must come before it
    for algebra in (aflex, aflex_gf2):
        for bad in ([(1, 0)], [algebra.basis_element(1), (1, 0, 0, 0, 0, 0)]):
            with pytest.raises(DimensionMismatch):
                diff_sequence(algebra, bad)
            with pytest.raises(DimensionMismatch):
                lin_span(algebra, bad, 1)


def test_first_difference_matches_rank(aflex):
    gens = [aflex.basis_element(1),
            oracles.scale(aflex, aflex.field.from_int(3), aflex.basis_element(1)),
            aflex.basis_element(2)]
    seq = diff_sequence(aflex, gens)
    assert seq.d[1] == 2  # rank of S, duplicates collapse


def test_subspace_counts():
    f2 = PrimeField(2)
    assert gaussian_binomial(4, 2, 2) == 35
    assert sum(1 for _ in enumerate_subspaces(f2, 2)) == 5
    assert sum(1 for _ in enumerate_subspaces(f2, 3)) == 16
    assert count_subspaces(3, 2) == 16
    f3 = PrimeField(3)
    assert sum(1 for _ in enumerate_subspaces(f3, 2)) == 1 + 4 + 1


def test_subspace_must_contain():
    f2 = PrimeField(2)
    found = list(enumerate_subspaces(f2, 2, must_contain=(1, 1)))
    # only the line through (1,1) and the whole plane contain it
    assert len(found) == 2
    assert sorted(b.rank for b in found) == [1, 2]


def _must_contain_vectors(p, n):
    # the first nonzero coordinate at every position, with value p - 1
    yield (0,) * n
    for c in range(n):
        yield (0,) * c + (p - 1,) + (1,) * (n - c - 1)
    if (p, n) == (3, 4):
        yield (0, 2, 1, 0)


@pytest.mark.parametrize("p, max_n", [(2, 5), (3, 4)])
def test_lifted_subspaces_equal_filtered_enumeration(p, max_n):
    field = PrimeField(p)
    for n in range(1, max_n + 1):
        everything = [b.row_tuples() for b in enumerate_subspaces(field, n)]
        for v in _must_contain_vectors(p, n):
            lifted = [b.row_tuples() for b in enumerate_subspaces(field, n, must_contain=v)]
            assert len(set(lifted)) == len(lifted), (n, v)
            expected = set()
            for rows in everything:
                basis = SpanBasis(field, n)
                for row in rows:
                    basis.add(list(row))
                if basis.contains(v):
                    expected.add(rows)
            assert set(lifted) == expected, (n, v)
            if any(v):
                assert len(lifted) == count_subspaces(n - 1, p)


def test_subspace_budget():
    with pytest.raises(ResourceLimit):
        list(enumerate_subspaces(PrimeField(5), 8, budget=1000))
    # the budget counts the lifted enumeration: 16 subspaces of GF(2)^3
    # contain a given vector of GF(2)^4, out of 67 in all
    f2 = PrimeField(2)
    assert count_subspaces(3, 2) == 16 and count_subspaces(4, 2) == 67
    assert len(list(enumerate_subspaces(f2, 4, must_contain=(0, 1, 1, 0), budget=20))) == 16
    with pytest.raises(ResourceLimit):
        list(enumerate_subspaces(f2, 4, must_contain=(0, 1, 1, 0), budget=15))
    with pytest.raises(ResourceLimit):
        list(enumerate_subspaces(f2, 4, budget=20))


def test_exact_length_budget_counts_unital_subspaces(z2n2):
    assert exact_algebra_length(z2n2, budget=20)[0] == 2
    with pytest.raises(ResourceLimit):
        exact_algebra_length(z2n2, budget=15)


def test_subspaces_are_rref_and_unique():
    f3 = PrimeField(3)
    seen = set()
    for basis in enumerate_subspaces(f3, 3):
        key = basis.row_tuples()
        assert key not in seen
        seen.add(key)
        for row, p in zip(basis.rows, basis.pivots):
            assert row[p] == 1
    assert len(seen) == count_subspaces(3, 3)


def test_exact_length_small(z2n2, aflex_gf2, aalt_gf2):
    assert exact_algebra_length(z2n2)[0] == 2
    assert exact_algebra_length(aflex_gf2)[0] == 3
    assert exact_algebra_length(aalt_gf2)[0] == 3
    one = examples.make_group_algebra_z2n(1)
    assert exact_algebra_length(one)[0] == 1


def test_exact_length_requires_prime_field(aflex):
    with pytest.raises(NotFiniteField):
        exact_algebra_length(aflex)


def _sweep_reading(level_reps, n):
    """(last nonempty level, the span is A): what the sweep reads off a ladder."""
    return (max((k for k, reps in enumerate(level_reps) if reps), default=0),
            sum(map(len, level_reps)) == n)


def test_sweep_ladder_agrees_with_diff_sequence():
    # the ladder of the exact-length sweep against the spans of all words,
    # on every subspace the sweep lists, before its pre-test: dim Lin_k(S) at
    # each level, and no growth at the level after the last unless the span
    # is already A
    for field in (PrimeField(2), PrimeField(3)):
        for make in (examples.make_a_flex, examples.make_a_alt):
            for algebra in (make(field), examples.make_unital_hull(make(field))):
                p, n = field.p, algebra.dim
                mul = algebra.product_kernel
                unity = list(algebra.unity) if algebra.unity is not None else None
                for rows in oracles.subspace_rows(p, n, algebra.unity, None):
                    level_reps = list(spans._ladder(mul, n, p, unity, None, rows))
                    dims = list(accumulate(map(len, level_reps)))
                    top = len(dims) - 1 if dims[-1] == n else len(dims)
                    gens = [algebra.element(r) for r in rows]
                    words = oracles.full_span_dims(algebra, gens, top)
                    assert words == (dims + dims[-1:])[:top + 1], (field, n, rows)


def _generic_exact_length(algebra):
    # the sweep spelled out without its pre-test: diff_sequence on every
    # enumerated subspace, keeping the first generating one of maximal length
    best = None
    for basis in enumerate_subspaces(algebra.field, algebra.dim,
                                     must_contain=algebra.unity, budget=None):
        gens = [algebra.element(r) for r in basis.row_tuples()]
        seq = diff_sequence(algebra, gens)
        if seq.generating and (best is None or seq.length_of_set > best[0]):
            best = (seq.length_of_set, tuple(gens))
    return best


def test_kernel_agrees_with_generic(aflex_gf2):
    fast = exact_algebra_length(aflex_gf2)
    slow = _generic_exact_length(aflex_gf2)
    assert fast[0] == slow[0] == 3
    assert fast[1] == slow[1]


def test_kernel_gf3_agrees_with_generic():
    f3 = PrimeField(3)
    alg = examples.make_a_flex(f3)
    fast = exact_algebra_length(alg)
    slow = _generic_exact_length(alg)
    assert fast[0] == slow[0]
    assert fast[1] == slow[1]


def test_exact_length_thread_determinism(aalt_gf2):
    first = exact_algebra_length(aalt_gf2)
    again = exact_algebra_length(aalt_gf2)
    assert first[0] == again[0]
    assert first[1] == again[1]


def test_witness_generates(z2n2):
    length, witness = exact_algebra_length(z2n2)
    seq = diff_sequence(z2n2, witness)
    assert seq.generating and seq.length_of_set == length


# -- the generation pre-test of the exact-length sweep --------------------------


def _sheared(algebra, order, shear):
    """The same algebra in the basis b'_j = c_j + sum_(i<j) shear[i][j] c_i,
    where c_j = b_(order[j] + 1)."""
    p, n = algebra.field.p, algebra.dim
    new_basis = [[int(i == order[j]) for i in range(n)] for j in range(n)]
    for j in range(n):
        for i in range(j):
            new_basis[j] = [(x + shear[i][j] * y) % p
                            for x, y in zip(new_basis[j], new_basis[i])]

    def coordinates(x):
        # back substitution: the change of basis is unitriangular up to order
        y = [0] * n
        for j in reversed(range(n)):
            y[j] = (x[order[j]] - sum(new_basis[i][order[j]] * y[i]
                                      for i in range(j + 1, n))) % p
        return y

    products = {}
    for i, u in enumerate(new_basis, 1):
        for j, v in enumerate(new_basis, 1):
            y = coordinates(oracles.field_multiply(algebra, u, v))
            products[(i, j)] = [(k, c) for k, c in enumerate(y, 1) if c]
    unity = coordinates(algebra.unity) if algebra.unity is not None else None
    return make_algebra(algebra.field, n, products, unity=unity)


KINDS = [(kind, triangular) for kind in ("non-unital", "hull", "unital")
         for triangular in (True, False)]


@st.composite
def prime_field_algebras(draw, field, max_dim, kind, triangular):
    """Algebras over GF(p) of dimension at most max_dim, in a random basis.

    ``kind`` is non-unital, a unital hull, or unital with products of
    non-unity basis vectors that may have a component along the unity,
    which can leave A without a character.  Strictly triangular products
    (b_i b_j a combination of b_k with k > i, j) make A, resp. the
    non-unity part, nilpotent; dense ones mostly do not.
    """
    p = field.p
    dim = draw(st.integers(2 if kind == "hull" else 1, max_dim))
    unit = draw(st.integers(1, dim)) if kind == "unital" else None
    size = dim - 1 if kind == "hull" else dim
    products = {}
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            if unit in (i, j):
                products[(i, j)] = [(j if i == unit else i, 1)]
                continue
            low = max(i, j) + 1 if triangular else 1
            targets = [k for k in range(low, size + 1) if k != unit or not triangular]
            if targets:
                products[(i, j)] = draw(st.lists(
                    st.tuples(st.sampled_from(targets), st.integers(1, p - 1)),
                    max_size=2, unique_by=lambda t: t[0]))
    unity = None if unit is None else [int(k == unit) for k in range(1, dim + 1)]
    algebra = make_algebra(field, size, products, unity=unity)
    if kind == "hull":
        algebra = examples.make_unital_hull(algebra)
    order = draw(st.permutations(range(dim)))
    shear = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=dim, max_size=dim),
                          min_size=dim, max_size=dim))
    return _sheared(algebra, order, shear)


def _is_nilpotent(algebra, rows):
    """Whether all long enough words in elements of the span of rows vanish.

    P_k, the span of the words of length exactly k, is P_i P_j summed over
    i + j = k.  Once P_k = 0 for N < k <= 2N, every longer word has a zero
    factor.  With d the rank of the span, N = 2^(d-1) is always enough when
    the products are triangular in some basis; a nilpotent span that needs
    more is reported as not nilpotent, which only skips the check it guards.
    """
    f = algebra.field
    by_length = [None, oracles.rref_rows(f, rows, algebra.dim)]
    for k in range(2, 2 ** len(by_length[1]) + 1):
        by_length.append(oracles.rref_rows(
            f, [oracles.field_multiply(algebra, u, v) for i in range(1, k)
                for u in by_length[i] for v in by_length[k - i]],
            algebra.dim))
        if k % 2 == 0 and not any(by_length[k // 2 + 1:]):
            return True
    return not by_length[1]


def _is_character(algebra, chi):
    p = algebra.field.p

    def value(x):
        return sum(a * b for a, b in zip(chi, x)) % p

    basis = [algebra.basis_element(i) for i in range(1, algebra.dim + 1)]
    return value(algebra.unity) == 1 and all(
        value(oracles.field_multiply(algebra, u, v)) == value(u) * value(v) % p
        for u in basis for v in basis)


@pytest.mark.parametrize("kind, triangular", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_generation_pretest_matches_unpruned_sweep(kind, triangular, data):
    field = data.draw(st.sampled_from([PrimeField(2), PrimeField(3)]))
    algebra = data.draw(prime_field_algebras(field, 4, kind, triangular))
    p, n = algebra.field.p, algebra.dim
    unity = list(algebra.unity) if algebra.unity is not None else None
    mul = algebra.product_kernel
    m_rows = spans._augmentation_ideal(algebra)
    if algebra.unity is not None:
        # the search finds a character exactly when one exists
        characters = [chi for chi in product(range(p), repeat=n) if _is_character(algebra, chi)]
        chi = spans._character(algebra)
        assert (chi is None) == (not characters)
        if chi is not None:
            # the first in the search order: values off c lexicographic
            c = next(i for i, x in enumerate(algebra.unity) if x)
            assert tuple(chi) == min(characters, key=lambda x: x[:c] + x[c + 1:])
            kernel = oracles.rref_rows(algebra.field, m_rows, n)
            assert len(kernel) == n - 1
            assert all(sum(a * b for a, b in zip(chi, r)) % p == 0 for r in kernel)
    test = spans._generation_test(algebra)
    can_generate = oracles.generation_predicate(algebra, test[0]) if test else None
    exact_here = bool(test) and test[2]
    exact = m_rows is not None and _is_nilpotent(algebra, m_rows)
    best = None
    for rows in oracles.subspace_rows(p, n, algebra.unity, None):
        length, generating = _sweep_reading(list(spans._ladder(mul, n, p, unity, None, rows)), n)
        if generating and (best is None or length > best[0]):
            best = (length, rows)
        passes = can_generate is None or can_generate(rows)
        if not passes:
            assert not diff_sequence(algebra, [algebra.element(r) for r in rows]).generating
        if exact or exact_here:
            assert passes == generating, rows
    length, witness = exact_algebra_length(algebra)
    expected = spans._rref_basis(algebra.field, n, best[1], algebra.unity)
    assert length == best[0]
    assert witness == tuple(algebra.element(r) for r in expected.row_tuples())


@pytest.mark.parametrize("kind, triangular", KINDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sweep_ladder_without_closure_checks(kind, triangular, data):
    # where the pre-test is exact every subspace the sweep lists generates,
    # so its ladders end at full rank, and a subspace that does not generate
    # is a fault of the test: the sweep names it instead of running its
    # ladder.  Here the pre-test of the non-nilpotent plane is made to claim
    # exactness, so that its first listed subspace <b1> does not generate
    plane = _plane()
    inexact = spans._generation_test(plane)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spans, "_generation_test", lambda *args: inexact[:2] + (True,))
        with pytest.raises(AssertionError, match=re.escape("((1, 0),)")):
            exact_algebra_length(plane)
    field = data.draw(st.sampled_from([PrimeField(2), PrimeField(3)]))
    algebra = data.draw(prime_field_algebras(field, 4, kind, triangular))
    test = spans._generation_test(algebra)
    if test is None or not test[2]:
        return
    project, codim, _ = test
    can_generate = oracles.generation_predicate(algebra, project)
    p, n = field.p, algebra.dim
    unity = list(algebra.unity) if algebra.unity is not None else None
    mul = algebra.product_kernel
    for rows in takewhile(lambda rows: len(rows) <= codim,
                          oracles.subspace_rows(p, n, algebra.unity, None)):
        checked = list(spans._ladder(mul, n, p, unity, None, rows))
        if can_generate(rows):
            assert len(rows) == codim and _sweep_reading(checked, n)[1]
        else:
            assert not _sweep_reading(checked, n)[1]


@pytest.mark.parametrize("spec, letters, products", [
    ("aalt", (1, 2), 6), ("z2n:3", (2, 3), 9), ("cd:4:-1,-1,-1,-1", (2, 3), 9)])
def test_ladder_multiplies_each_pair_once(spec, letters, products):
    # the closure check reuses no pair that the next level multiplies: with
    # d = (0, 2, 2, 1), aalt's ladder makes level 2's 4 products and 2 of
    # level 3's, where it reaches full rank; the group algebra and the
    # octonions make the 4 + 4 of levels 2 and 3, which adds nothing, and
    # the one product of level 2 by itself that shows their span is closed
    algebra = build_example(spec)
    kernel, made = algebra.product_kernel, []
    vars(algebra)["product_kernel"] = lambda u, v: made.append(1) or kernel(u, v)
    diff_sequence(algebra, [algebra.basis_element(i) for i in letters])
    assert len(made) == products


def test_sweep_builds_each_prefix_state_once_and_only_where_used(monkeypatch):
    # the echelon insertions and product-kernel calls of exact_algebra_length
    # on the six algebras of the exact-gf benchmark, 17,655 and 8,719 in all:
    # the walk builds Lin_2 of a basis prefix once, and only once a basis
    # below it is yielded, since a prefix can pass the pre-test's pruning
    # and still have no basis that completes it
    inserted, insert = [], spans._insert
    monkeypatch.setattr(spans, "_insert", lambda *args: inserted.append(1) or insert(*args))

    def work(spec, field):
        algebra = build_example(spec, field)
        kernel, made = algebra.product_kernel, []
        vars(algebra)["product_kernel"] = lambda u, v: made.append(1) or kernel(u, v)
        inserted.clear()
        assert exact_algebra_length(algebra)[0] == 3
        return len(inserted), len(made)

    assert [work(spec, field) for spec, field in [
        ("aalt", "gf:3"), ("aflex", "gf:3"), ("hull:aalt", "gf:3"), ("hull:aflex", "gf:3"),
        ("aalt", "gf:2"), ("hull:aflex", "gf:2")]] == [
        (4107, 2005), (4107, 2005), (4122, 2028), (4122, 2028), (591, 315), (606, 338)]


@pytest.mark.parametrize("kind, triangular", KINDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_closure_is_checked_only_after_a_level_that_added_nothing(kind, triangular, data):
    # a closed span makes the next level add nothing, so the ladder asks
    # whether its span is closed only right after growing an empty level:
    # in diff_sequence on every subspace, whose levels match the word spans,
    # and in the exact-length sweep
    field = data.draw(st.sampled_from([PrimeField(2), PrimeField(3)]))
    algebra = data.draw(prime_field_algebras(field, 4, kind, triangular))
    p, n = field.p, algebra.dim
    grown, checked = [], []
    grow, closed = spans._grow, spans._closed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spans, "_grow", lambda *args: grown.append(grow(*args)) or grown[-1])
        patch.setattr(spans, "_closed", lambda *args: checked.append(grown[-1]) or closed(*args))
        for rows in oracles.subspace_rows(p, n, algebra.unity, None):
            gens = [algebra.element(r) for r in rows]
            d = diff_sequence(algebra, gens).d
            dims = list(accumulate(d))
            assert oracles.full_span_dims(algebra, gens, len(d)) == dims + dims[-1:]
        exact_algebra_length(algebra)
    assert checked == [[]] * len(checked)


def test_generation_pretest_on_examples(monkeypatch):
    f2, f3 = PrimeField(2), PrimeField(3)
    # 1,900 of the 2,664 subspaces pass and exactly these generate.  A is
    # nilpotent, so the test is exact, and the sweep's walk, _sweep, yields
    # only the 729 passing subspaces with codim = dim A/A^2 = 2 rows, the
    # minimal generating ones
    aflex3 = examples.make_a_flex(f3)
    project, codim, exact = spans._generation_test(aflex3)
    assert (codim, exact) == (2, True)
    can_generate = oracles.generation_predicate(aflex3, project)
    mul = aflex3.product_kernel
    for rows in oracles.subspace_rows(3, aflex3.dim, None, None):
        reps = list(spans._ladder(mul, aflex3.dim, 3, None, None, rows))
        assert can_generate(rows) == _sweep_reading(reps, aflex3.dim)[1]
    assert sum(map(can_generate, oracles.subspace_rows(3, 5, None, None))) == 1900
    minimal = [rows for rows in oracles.subspace_rows(3, 5, None, None)
               if len(rows) == codim and can_generate(rows)]
    assert len(minimal) == 729
    ladders = []
    monkeypatch.setattr(spans, "_sweep", _recording_sweep(ladders))
    assert exact_algebra_length(aflex3)[0] == 3 and ladders == minimal
    monkeypatch.undo()
    # GF(3) x GF(3) in the basis b1 = -f1, b2 = f2 of its idempotents, so
    # e = 2 b1 + b2: the first character in the search order is f1's, and
    # M is its kernel, spanned by f2
    split = make_algebra(f3, 2, {(1, 1): [(1, 2)], (2, 2): [(2, 1)]}, unity=(2, 1))
    assert spans._character(split) == [2, 0]
    assert oracles.rref_rows(f3, spans._augmentation_ideal(split), 2) == ((0, 1),)
    # a budget below the 3^1 functionals of the search skips it; one that
    # covers them does not
    assert spans._augmentation_ideal(split, budget=2) is None
    assert spans._generation_test(split, budget=2) is None
    assert spans._augmentation_ideal(split, budget=3) == spans._augmentation_ideal(split)
    # z2n:2 has the augmentation character; matrix:2 and spin:3 have none
    assert spans._character(examples.make_group_algebra_z2n(2)) == [1, 1, 1, 1]
    # a declared unity that is none: the pre-test's argument does not apply
    wrong = make_algebra(f3, 2, {(1, 1): [(1, 2)], (2, 2): [(2, 1)]}, unity=(1, 0))
    assert spans._augmentation_ideal(wrong) is None
    for algebra in (examples.make_matrix_algebra(2, f2), examples.make_spin_factor(3, f2)):
        assert spans._character(algebra) is None
        assert spans._augmentation_ideal(algebra) is None
        assert spans._generation_test(algebra) is None


@pytest.mark.parametrize("kind, triangular", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_nilpotency_verdict_matches_oracle(kind, triangular, data):
    # the pre-test counts as exact, and the sweep is cut short, only on the
    # library's verdict that M is nilpotent: it must agree with the oracle
    # wherever the oracle finds M nilpotent, and the pre-test carries it
    field = data.draw(st.sampled_from([PrimeField(2), PrimeField(3)]))
    algebra = data.draw(prime_field_algebras(field, 4, kind, triangular))
    m_rows = spans._augmentation_ideal(algebra)
    if m_rows is None:
        return
    verdict = spans._nilpotent(algebra.product_kernel, field.p, m_rows)
    if _is_nilpotent(algebra, m_rows):
        assert verdict
    test = spans._generation_test(algebra)
    if test is not None:
        assert test[2] == verdict


def test_exact_length_of_non_nilpotent_plane():
    # b2 b1 = b1 + b2 over GF(2), no unity: A^2 = <b1 + b2> is idempotent,
    # so A is not nilpotent and the pre-test is not exact.  <b1> and <b2>
    # pass it (V + A^2 = A) but square to 0, so only A itself generates; a
    # sweep cut at codim = 1 row would find no generating subspace at all
    plane = make_algebra(PrimeField(2), 2, {(2, 1): [(1, 1), (2, 1)]})
    project, codim, exact = spans._generation_test(plane)
    assert (codim, exact) == (1, False)
    can_generate = oracles.generation_predicate(plane, project)
    assert can_generate(((1, 0),)) and can_generate(((0, 1),))
    length, witness = exact_algebra_length(plane)
    assert length == 1
    assert witness == (plane.basis_element(1), plane.basis_element(2))


def test_length_counts_words_not_dimensions():
    # over GF(2), b1 b1 = b3 and b2 b2 = b1 in dim 4: level 3 of {b2, b4}
    # adds nothing and level 4 adds b3, so l(A) = 4 exceeds
    # n - codim + 1 = 3, and no bound that takes every level to add a
    # dimension holds
    algebra = make_algebra(PrimeField(2), 4, {(1, 1): [(3, 1)], (2, 2): [(1, 1)]})
    length, witness = exact_algebra_length(algebra)
    assert length == 4
    assert [algebra.format_element(w) for w in witness] == ["b2", "b3 + b4"]
    b2, b4 = algebra.basis_element(2), algebra.basis_element(4)
    assert diff_sequence(algebra, [b2, b4]).d == (0, 2, 1, 0, 1)
    _, codim, exact = spans._generation_test(algebra)
    assert (codim, exact) == (2, True) and length > algebra.dim - codim + 1


# squaring chains with gaps, b_i b_i = c b_k for i: (k, c) and every other
# product 0, over GF(p) in dim n: tables like the one above, whose ladders
# can add nothing at a level before a later level adds a dimension; the
# last has a basis (b1, b2) whose b2 lies in Lin_2(b1)
GAP_CHAINS = [
    (2, 3, {1: (3, 1), 2: (1, 1)}),
    (2, 4, {1: (3, 1), 2: (1, 1)}),
    (2, 5, {1: (4, 1), 2: (1, 1), 3: (2, 1)}),
    (2, 5, {1: (3, 1), 2: (5, 1), 4: (1, 1)}),
    (3, 3, {1: (3, 2), 2: (1, 1)}),
    (3, 4, {1: (3, 1), 2: (1, 2), 4: (2, 1)}),
    (2, 2, {1: (2, 1), 2: (2, 1)}),
]


def _gap_chain_algebras():
    for p, n, squares in GAP_CHAINS:
        chain = make_algebra(PrimeField(p), n, {(i, i): [t] for i, t in squares.items()})
        yield chain
        yield examples.make_unital_hull(chain)


def _ladder_outcome(ladder, *args, **kwargs):
    """The sizes of the levels a ladder gives, or the message it raises."""
    try:
        return [len(reps) for reps in ladder(*args, **kwargs)]
    except ResourceLimit as exc:
        return str(exc)


def _adds_nothing(algebra, rows):
    """Whether a row of the basis lies in Lin_2 of the rows before it."""
    f, n = algebra.field, algebra.dim
    for d in range(1, len(rows)):
        lin2 = oracles.full_word_span(algebra, [algebra.element(r) for r in rows[:d]], 2)[2]
        if len(oracles.rref_rows(f, list(lin2) + [rows[d]], n)) == len(lin2):
            return True
    return False


def test_sweep_step_matches_the_ladder_on_every_subspace():
    # _sweep with no projection yields every lifted subspace in order, each
    # with its ladder, against the ladder from scratch: the same level sizes
    # under caps None and 0 to 3, up to the first subspace whose ladder
    # passes the cap, where the walk raises the same error
    interior_zero = adds_nothing = False
    for algebra in _gap_chain_algebras():
        p, n = algebra.field.p, algebra.dim
        unity = list(algebra.unity) if algebra.unity is not None else None
        c = None if unity is None else next(i for i, x in enumerate(unity) if x % p)
        mul = algebra.product_kernel
        for max_level in (None, 0, 1, 2, 3):
            walk = spans._sweep(algebra, max_level, c, [], n if c is None else n - 1)
            for rows in oracles.subspace_rows(p, n, algebra.unity, None):
                expected = _ladder_outcome(spans._ladder, mul, n, p, unity, max_level, rows)
                try:
                    swept, level_reps = next(walk)
                    got = swept, [len(reps) for reps in level_reps]
                except ResourceLimit as exc:
                    got = rows, str(exc)
                assert got == (rows, expected), (algebra.dim, max_level, rows)
                if isinstance(expected, str):
                    break
                if max_level is None:
                    interior_zero |= sum(expected) == n and 0 in expected[1:-1]
                    adds_nothing |= _adds_nothing(algebra, rows)
            else:
                assert next(walk, None) is None
    assert interior_zero and adds_nothing


def _reference_sweep(algebra, max_level=None):
    """exact_algebra_length with the ladder from scratch on each basis the
    sweep lists: the length and witness, or the level-cap message."""
    test = spans._generation_test(algebra)
    exact = test is not None and test[2]
    p, n = algebra.field.p, algebra.dim
    unity = list(algebra.unity) if algebra.unity is not None else None
    best = None
    for rows in oracles.sweep_candidates(algebra):
        try:
            level_reps = list(spans._ladder(algebra.product_kernel, n, p, unity, max_level, rows))
        except ResourceLimit as exc:
            return str(exc)
        length, generating = _sweep_reading(level_reps, n)
        if generating and (best is None or length > best[0]):
            best = (length, rows)
    basis = spans._rref_basis(algebra.field, n, best[1], algebra.unity)
    return best[0], tuple(algebra.element(r) for r in basis.row_tuples())


def _sweep_outcome(algebra, max_level=None):
    try:
        return exact_algebra_length(algebra, max_level=max_level)
    except ResourceLimit as exc:
        return str(exc)


def test_sweep_matches_the_reference_on_gap_chains():
    # lengths, witnesses and level-cap errors, where levels add nothing
    # between levels that add a dimension
    for algebra in _gap_chain_algebras():
        for max_level in (None, 0, 1, 2, 3):
            assert _sweep_outcome(algebra, max_level) == _reference_sweep(algebra, max_level)


@pytest.mark.parametrize("kind, triangular", KINDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_sweep_matches_the_reference_under_level_caps(kind, triangular, data):
    field = data.draw(st.sampled_from([PrimeField(2), PrimeField(3)]))
    algebra = data.draw(prime_field_algebras(field, 4, kind, triangular))
    max_level = data.draw(st.sampled_from([None, 0, 1, 2, 3]))
    assert _sweep_outcome(algebra, max_level) == _reference_sweep(algebra, max_level)


def _recording_sweep(swept):
    """spans._sweep, appending the rows of each basis it yields to swept."""
    sweep = spans._sweep

    def recording(*args):
        for rows, level_reps in sweep(*args):
            swept.append(rows)
            yield rows, level_reps

    return recording


def _swept_rows(algebra):
    """The row tuples exact_algebra_length takes the ladder of, in order, and its result."""
    swept = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spans, "_sweep", _recording_sweep(swept))
        result = exact_algebra_length(algebra)
    return swept, result


@pytest.mark.parametrize("kind, triangular", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sweep_candidates_match_the_reference(kind, triangular, data):
    # the enumeration that builds each basis row by row and drops partial
    # bases lists exactly the subspaces that the full enumeration, cut at
    # codim rows where the pre-test is exact and filtered by its predicate,
    # passes on to the ladders, in the same order; with no pre-test, all
    field = data.draw(st.sampled_from([PrimeField(2), PrimeField(3)]))
    algebra = data.draw(prime_field_algebras(field, 4, kind, triangular))
    assert _swept_rows(algebra)[0] == oracles.sweep_candidates(algebra)


def _plane():
    # the non-nilpotent plane of test_exact_length_of_non_nilpotent_plane
    return make_algebra(PrimeField(2), 2, {(2, 1): [(1, 1), (2, 1)]})


SWEPT_EXAMPLES = [
    pytest.param(lambda: examples.make_a_flex(PrimeField(3)), "exact", id="aflex-gf3"),
    pytest.param(lambda: examples.make_unital_hull(examples.make_a_alt(PrimeField(2))),
                 "exact", id="hull-aalt-gf2"),
    pytest.param(lambda: examples.make_group_algebra_z2n(2), "exact", id="z2n2"),
    pytest.param(lambda: make_algebra(PrimeField(3), 3, {}), "exact", id="zero-gf3"),
    pytest.param(_plane, "inexact", id="plane"),
    pytest.param(lambda: examples.make_unital_hull(_plane()), "inexact", id="hull-plane"),
    pytest.param(lambda: examples.make_matrix_algebra(2, PrimeField(2)), "none", id="matrix2-gf2"),
    pytest.param(lambda: examples.make_spin_factor(3, PrimeField(2)), "none", id="spin3-gf2"),
]


@pytest.mark.parametrize("build, kind", SWEPT_EXAMPLES)
def test_sweep_candidates_on_examples(build, kind):
    # the same on fixed algebras with an exact pre-test, an inexact one and
    # none (matrix:2 and spin:3 have no character); with none, every lifted
    # subspace is swept, and length and witness agree with the sweep spelled
    # out
    algebra = build()
    test = spans._generation_test(algebra)
    assert kind == ("none" if test is None else "exact" if test[2] else "inexact")
    swept, result = _swept_rows(algebra)
    assert swept == oracles.sweep_candidates(algebra)
    if test is None:
        assert swept == list(oracles.subspace_rows(algebra.field.p, algebra.dim,
                                                   algebra.unity, None))
    assert result == _generic_exact_length(algebra)


def test_enumeration_without_a_projection_lists_every_subspace():
    for p, n in ((2, 4), (3, 3)):
        zero = make_algebra(PrimeField(p), n, {})
        assert ([rows for rows, _ in spans._sweep(zero, None, None, [], n)]
                == list(oracles.all_subspace_rows(p, n)))
        for c in range(n):
            lifted = [tuple(r[:c] + (0,) + r[c:] for r in rows)
                      for rows in oracles.all_subspace_rows(p, n - 1)]
            assert [rows for rows, _ in spans._sweep(zero, None, c, [], n - 1)] == lifted


def test_exact_length_checks_the_budget_before_any_work(monkeypatch, z2n2):
    # the budget refusal comes before the pre-test, whose character search
    # and products could take long on a large algebra
    def pretest(*args, **kwargs):
        raise AssertionError("the pre-test ran before the budget check")

    monkeypatch.setattr(spans, "_generation_test", pretest)
    with pytest.raises(ResourceLimit, match=r"over 2\^64 subspaces exceed budget 2000000"):
        exact_algebra_length(make_algebra(PrimeField(2), 21, {}))
    with pytest.raises(ResourceLimit, match="16 subspaces exceed budget 15"):
        exact_algebra_length(z2n2, budget=15)

def _generates(algebra, gens):
    """Whether gens (with the unity) generate A: the span closed under products."""
    f = algebra.field
    start = list(gens) + ([algebra.unity] if algebra.unity is not None else [])
    rows = oracles.rref_rows(f, start, algebra.dim)
    while True:
        grown = oracles.rref_rows(
            f, list(rows) + [oracles.field_multiply(algebra, u, v) for u in rows for v in rows],
            algebra.dim)
        if grown == rows:
            return len(rows) == algebra.dim
        rows = grown


@pytest.mark.parametrize("kind, triangular", KINDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_exact_length_matches_word_brute_force(kind, triangular, data):
    # l(A) as the maximum over every generating set of at most dim nonzero
    # vectors of the first level whose words span A; no span ladder involved
    field, max_dim = data.draw(st.sampled_from([(PrimeField(2), 3), (PrimeField(3), 2)]))
    algebra = data.draw(prime_field_algebras(field, max_dim, kind, triangular))
    p, n = algebra.field.p, algebra.dim
    vectors = [v for v in product(range(p), repeat=n) if any(v)]
    best = 0
    for size in range(1, n + 1):
        for gens in combinations(vectors, size):
            if not _generates(algebra, gens):
                continue
            level = 0
            while len(oracles.full_word_span(algebra, gens, level)[level]) < n:
                level += 1
            best = max(best, level)
    assert exact_algebra_length(algebra)[0] == best


@pytest.mark.parametrize("kind, triangular", KINDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_word_rows_match_the_exact_oracle(kind, triangular, data):
    # over GF(p) a word's integer row is its value; over Q, on the same table
    # with every constant divided by 5 (D = 5 unless the table is empty) and
    # with fractional letters, it is the value times D^(m-1) and the
    # denominator each letter's row dropped, once per occurrence
    field = data.draw(st.sampled_from([PrimeField(2), PrimeField(3)]))
    algebra = data.draw(prime_field_algebras(field, 4, kind, triangular))
    n = algebra.dim
    rational = make_algebra(Q, n, {ij: [(k, Fraction(c, 5)) for k, c in terms]
                                   for ij, terms in algebra.sc.items()})
    size = data.draw(st.integers(1, 3))
    w = data.draw(st.recursive(st.integers(1, size), lambda sub: st.tuples(sub, sub),
                               max_leaves=6))
    m = len(oracles.word_letters(w))
    for table, scalars in ((algebra, st.integers(0, field.p - 1)),
                           (rational, st.fractions(-3, 3, max_denominator=4))):
        gens = [tuple(data.draw(st.lists(scalars, min_size=n, max_size=n)))
                for _ in range(size)]
        rows, dens = zip(*map(integer_row, gens))
        factor = table.product_table[1] ** (m - 1)
        for i in oracles.word_letters(w):
            factor *= dens[i - 1]
        value = oracles.evaluate(table, gens, w)
        assert list(word_row(table, rows, w)) == [factor * x for x in value]
