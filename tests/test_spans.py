from fractions import Fraction

import pytest

import oracles
from alglen import examples, spans
from alglen.errors import NotFiniteField, ResourceLimit
from alglen.field import PrimeField, Rationals
from alglen.spans import (SpanBasis, count_subspaces, diff_sequence,
                          enumerate_subspaces, exact_algebra_length,
                          gaussian_binomial, length_of_set, span_ladder_up_to)

Q = Rationals()


def test_rref_insert_examples():
    b = SpanBasis(Q, 3)
    added, _ = b.insert([Fraction(1), Fraction(0), Fraction(0)])
    assert added and b.rank == 1
    added, _ = b.insert([Fraction(2), Fraction(0), Fraction(0)])
    assert not added and b.rank == 1
    b = SpanBasis(Q, 3)
    b.insert([Fraction(1), Fraction(1), Fraction(0)])
    b.insert([Fraction(0), Fraction(1), Fraction(0)])
    assert b.row_tuples() == ((Fraction(1), Fraction(0), Fraction(0)),
                              (Fraction(0), Fraction(1), Fraction(0)))


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
    assert length_of_set(c3, [c3.basis_element(1)]) == 3
    seq = diff_sequence(c3, [c3.basis_element(1)])
    assert seq.d == (0, 1, 1, 1) and seq.generating


def test_whole_basis_has_length_one(aalt):
    gens = [aalt.basis_element(i) for i in range(1, 6)]
    assert length_of_set(aalt, gens) == 1


def test_mixing_mode_matches_general(z2n2, aflex, aalt):
    # these three are mixing, so the cheap recursion must agree level by level
    cases = [
        (z2n2, [z2n2.basis_element(2), z2n2.basis_element(3)]),
        (aflex, [aflex.basis_element(1), aflex.basis_element(2)]),
        (aalt, [aalt.basis_element(1), aalt.basis_element(2)]),
    ]
    for algebra, gens in cases:
        a = diff_sequence(algebra, gens, mode="general")
        b = diff_sequence(algebra, gens, mode="mixing")
        assert a.d == b.d and a.length_of_set == b.length_of_set
        assert b.stabilized_by == "mixing-criterion"


def test_ladder_matches_oracle(small_registry):
    # rank-polynomial products must span exactly what raw words span
    for name, algebra in small_registry.items():
        n = algebra.dim
        sets = [[algebra.basis_element(i)] for i in range(1, n + 1)]
        sets += [[algebra.basis_element(i), algebra.basis_element(j)]
                 for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for gens in sets[: 2 * n + 4]:
            oracle = oracles.full_word_span(algebra, gens, 4)
            ladder = span_ladder_up_to(algebra, gens, 0)
            for m in range(1, 5):
                ladder = span_ladder_up_to(algebra, gens, m)
                assert ladder.lin_basis().row_tuples() == oracle[min(m, len(oracle) - 1)], \
                    (name, m)


def test_first_difference_matches_rank(aflex):
    gens = [aflex.basis_element(1),
            aflex.scale(aflex.field.from_int(3), aflex.basis_element(1)),
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
                    basis.insert(list(row))
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


def test_sweep_ladder_agrees_with_diff_sequence():
    # the residue-list ladder of the exact-length sweep against SpanLadder,
    # on every subspace the sweep visits, in both termination modes
    for field in (PrimeField(2), PrimeField(3)):
        for make in (examples.make_a_flex, examples.make_a_alt):
            for algebra in (make(field), examples.make_unital_hull(make(field))):
                p, n = field.p, algebra.dim
                table = algebra.product_table[0]
                unity = list(algebra.unity) if algebra.unity is not None else None
                for rows in spans._subspace_rows(p, n, algebra.unity, None):
                    gens = [algebra.element(r) for r in rows]
                    for mode in ("general", "mixing"):
                        seq = diff_sequence(algebra, gens, mode=mode)
                        fast = spans._residue_ladder(table, p, unity, mode == "mixing", None,
                                                      rows)
                        assert fast == (seq.length_of_set, seq.generating), \
                            (field, algebra.dim, mode, rows)


def _generic_exact_length(algebra, mode="general"):
    # the sweep spelled out with the generic SpanLadder: diff_sequence on every
    # enumerated subspace, keeping the first generating one of maximal length
    best = None
    for basis in enumerate_subspaces(algebra.field, algebra.dim,
                                     must_contain=algebra.unity, budget=None):
        gens = [algebra.element(r) for r in basis.row_tuples()]
        seq = diff_sequence(algebra, gens, mode=mode)
        if seq.generating and (best is None or seq.length_of_set > best[0]):
            best = (seq.length_of_set, tuple(gens))
    return best


def test_kernel_agrees_with_generic(aflex_gf2):
    fast = exact_algebra_length(aflex_gf2)
    slow = _generic_exact_length(aflex_gf2)
    assert fast[0] == slow[0] == 3
    assert tuple(fast[1].elements) == slow[1]


def test_kernel_gf3_agrees_with_generic():
    f3 = PrimeField(3)
    alg = examples.make_a_flex(f3)
    for mode in ("general", "mixing"):
        fast = exact_algebra_length(alg, mode=mode)
        slow = _generic_exact_length(alg, mode=mode)
        assert fast[0] == slow[0], mode
        assert tuple(fast[1].elements) == slow[1], mode


def test_exact_length_thread_determinism(aalt_gf2):
    single = exact_algebra_length(aalt_gf2, threads=1)
    multi = exact_algebra_length(aalt_gf2, threads=8)
    assert single[0] == multi[0]
    assert single[1].elements == multi[1].elements


def test_witness_generates(z2n2):
    length, witness = exact_algebra_length(z2n2)
    seq = diff_sequence(z2n2, witness)
    assert seq.generating and seq.length_of_set == length
