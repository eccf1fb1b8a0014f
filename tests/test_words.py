import gc
import weakref

import pytest

from alglen import examples
from alglen.canonical import canonical_alt_form
from alglen.errors import IndexOutOfRange, ParseError, ResourceLimit
from alglen.field import PrimeField
from alglen.io_cli import resolve_set
from alglen.words import (enumerate_restricted, MAX_WORD_DEPTH, evaluate, format_word,
                          is_restricted, parse_word, word_length)
from oracles import catalan, count_full, enumerate_full, word_letters


def test_catalan():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_full_counts():
    assert len(list(enumerate_full(2, 2))) == 4
    assert len(list(enumerate_full(1, 4))) == 5  # Catalan(3) shapes, one letter
    assert len(list(enumerate_full(2, 3))) == 16  # Catalan(2) * 2^3
    assert count_full(3, 5) == catalan(4) * 3**5


def test_restricted_counts_and_dedup():
    # one-letter chains of length 3: only the two bracketings exist as trees
    assert list(enumerate_restricted(1, 3)) == [(1, (1, 1)), ((1, 1), 1)]
    assert len(list(enumerate_restricted(2, 1))) == 2
    # at length 2 both enumerations coincide
    assert set(enumerate_restricted(2, 2)) == set(enumerate_full(2, 2))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_restricted_subset_of_full(m):
    full = set(enumerate_full(2, m))
    restricted = set(enumerate_restricted(2, m))
    assert restricted <= full
    if m <= 3:
        assert restricted == full
    for w in restricted:
        assert word_length(w) == m
        assert is_restricted(w)


def test_restriction_predicate():
    assert is_restricted(((1, 2), 3))
    assert not is_restricted(((1, 2), (3, 4)))


def test_resource_limits():
    with pytest.raises(ResourceLimit):
        list(enumerate_full(10, 12, cap=1000))
    with pytest.raises(ResourceLimit):
        list(enumerate_restricted(10, 12, cap=1000))


def test_evaluate(aflex, z2n2):
    gens = (aflex.basis_element(1), aflex.basis_element(2))
    # e1 (e1 e2) = e1 e3 = e4
    assert evaluate(aflex, gens, (1, (1, 2))) == aflex.basis_element(4)
    assert evaluate(aflex, gens, 1) == aflex.basis_element(1)
    letters = [z2n2.basis_element(2), z2n2.basis_element(3)]
    # (e_f1 e_f2) e_f1 = e_f2
    assert evaluate(z2n2, letters, ((1, 2), 1)) == z2n2.basis_element(3)
    with pytest.raises(IndexOutOfRange):
        evaluate(z2n2, letters, (1, 3))


def test_evaluate_leaves_no_reference_cycle():
    # with the collector off, the algebra must go with its last reference:
    # nothing that evaluate builds may keep it (or gens) in a cycle
    algebra = examples.make_a_flex(PrimeField(3))
    gens = (algebra.basis_element(1), algebra.basis_element(2))
    algebra.multiply(*gens)
    alive = weakref.ref(algebra)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert evaluate(algebra, gens, ((1, 2), 1)) == algebra.multiply(
            algebra.multiply(*gens), gens[0])
        del algebra
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def test_parse_word_and_canonical_alt_form_leave_no_reference_cycle():
    # with the collector off, nothing either builds may be left for it: a
    # self-recursive closure would leave a reference cycle on every call
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for _ in range(100):
            parse_word("((1 2) (3 (1 2)))")
        assert gc.collect() == 0
        for _ in range(100):
            canonical_alt_form(((1, (2, 1)), 3))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_parse_format_roundtrip():
    for text in ["1", "(1 2)", "((1 2) 3)", "(2 ((1 2) 3))"]:
        assert format_word(parse_word(text)) == text
    with pytest.raises(ParseError):
        parse_word("((1 2)")
    with pytest.raises(ParseError):
        parse_word("(0 1)")
    with pytest.raises(ParseError):
        parse_word("(1 2) 3")


def _nested(depth, inner="1"):
    for _ in range(depth):
        inner = f"(1 {inner})"
    return inner


def test_parse_word_refuses_non_ascii_digits_and_deep_nesting():
    # '²' is a digit to str.isdigit but not to int()
    for text in ("(1 \u00b2)", "\u00b2", "(\u00b9 2)"):
        with pytest.raises(ParseError, match="bad token"):
            parse_word(text)
    assert word_length(parse_word(_nested(MAX_WORD_DEPTH))) == MAX_WORD_DEPTH + 1
    # valid or not, a deeper word is refused before any recursion
    for text in (_nested(MAX_WORD_DEPTH + 1), _nested(1_000), _nested(1_000, "x"), "(" * 5_000):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_word(text)


def test_word_letters():
    assert word_letters(((1, 2), (3, 1))) == [1, 2, 3, 1]


def test_duplicate_flag(aflex, capsys):
    # a generator set is a tuple of elements; resolve_set warns on a repeat
    g = resolve_set(aflex, "1,1", None)
    assert g == (aflex.basis_element(1),) * 2 and len(set(g)) < len(g)
    assert "duplicate" in capsys.readouterr().err
    g = resolve_set(aflex, "1,2", None)
    assert len(set(g)) == len(g)
    assert capsys.readouterr().err == ""
