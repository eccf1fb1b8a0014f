import json
from itertools import permutations
from pathlib import Path

import pytest

import oracles
from alglen.canonical import (CanonicalWord, canonical_alt_form, canonical_flex_form,
                              verify_equivalence)
from alglen.errors import NotRestrictedForm, WordTooShort
from alglen.spans import lin_span
from alglen.words import enumerate_restricted, evaluate, format_word
from oracles import word_letters


def test_alt_worked_examples():
    c = canonical_alt_form(((1, 2), 3))
    assert (c.sign, c.blocks) == (1, {"x": (1, 2), "y": (3,)})
    c = canonical_alt_form((((1, 2), 3), 4))
    assert (c.sign, c.blocks) == (-1, {"x": (1, 2, 4), "y": (3,)})
    assert c.tree() == (((1, 2), 4), 3)
    c = canonical_alt_form((4, ((1, 2), 3)))
    assert (c.sign, c.blocks) == (-1, {"x": (1, 2), "y": (3, 4)})
    assert c.tree() == ((1, 2), (4, 3))


def test_alt_partition_structure():
    for m in range(2, 7):
        for w in enumerate_restricted(2, m):
            c = canonical_alt_form(w)
            k = len(c.blocks["x"])
            assert sorted(map(len, c.partition)) == sorted([k, m - k])
            assert sorted(word_letters(c.tree())) == sorted(word_letters(w))


def test_flex_worked_examples():
    c = canonical_flex_form(((1, 2), 3))
    assert c.shape == "O11" and c.sign == 1
    assert c.partition == ((1, 3), (2,))
    c = canonical_flex_form((((1, 2), 3), 4))
    assert c.shape == "EOO" and c.sign == 1 and c.tree() == (((1, 2), 3), 4)


GOLDEN_FORMS = Path(__file__).parent / "golden" / "canonical_forms.json"


def test_forms_match_the_golden_forms():
    # both forms of each of the 336 restricted words over 2 letters of
    # length 3 to 5, recorded before the three-block form's two pull rules
    # became one
    golden = json.loads(GOLDEN_FORMS.read_text(encoding="utf-8"))
    words = [w for m in range(3, 6) for w in enumerate_restricted(2, m)]
    assert [entry["word"] for entry in golden] == [format_word(w) for w in words]
    assert len(words) == 336
    for w, entry in zip(words, golden):
        assert canonical_alt_form(w).as_dict() == entry["alt"], entry["word"]
        assert canonical_flex_form(w).as_dict() == entry["flex"], entry["word"]


def test_rejects_bad_words():
    with pytest.raises(NotRestrictedForm):
        canonical_alt_form(((1, 2), (3, 4)))
    with pytest.raises(NotRestrictedForm):
        canonical_flex_form((((1, 2), (3, 4)), 5))
    with pytest.raises(WordTooShort):
        canonical_alt_form(1)
    with pytest.raises(WordTooShort):
        canonical_flex_form((1, 2))


def test_flex_shapes_and_class_sizes():
    for s_size in (1, 2, 3):
        for m in range(3, 8):
            for w in enumerate_restricted(s_size, m, cap=None):
                c = canonical_flex_form(w)
                assert c.shape in ("EOO", "OEE", "O11", "OO", "OE")
                assert sorted(word_letters(c.tree())) == sorted(word_letters(w))
                assert max(map(len, c.partition)) >= m // 3 + 1
                assert sum(len(cl) for cl in c.partition) == m
                assert 1 <= len(c.partition) <= 3


def _distinct_letter_restricted(m):
    seen = set()
    for perm in permutations(range(1, m + 1)):
        for bits in range(2 ** (m - 1)):
            w = perm[-1]
            for i in range(m - 2, -1, -1):
                w = (perm[i], w) if (bits >> i) & 1 else (w, perm[i])
            seen.add(w)
    return seen


@pytest.mark.parametrize("variant,canon,lo", [
    ("alt", canonical_alt_form, 2),
    ("flex", canonical_flex_form, 3),
])
def test_formal_sign_oracle(variant, canon, lo):
    # in the free multilinear setting, a word and its canonical form must be
    # joined by single-exchange rewrites with the exact sign recorded
    for m in range(lo, 7):
        uf = oracles.multilinear_word_relations(m, variant)
        checked = 0
        for w in _distinct_letter_restricted(m):
            c = canon(w)
            rel = uf.relation(w, c.tree())
            assert rel is not None, (variant, w)
            if rel != "zero":
                assert rel == c.sign, (variant, w, c.as_dict())
                checked += 1
        assert checked > 0


def test_alt_numeric_soundness(aalt):
    gens = [aalt.basis_element(1), aalt.basis_element(2)]
    for m in range(2, 6):
        for w in enumerate_restricted(2, m):
            c = canonical_alt_form(w)
            assert verify_equivalence(aalt, gens, w, c)


def test_flex_numeric_soundness(aflex):
    gens = [aflex.basis_element(1), aflex.basis_element(2)]
    for m in range(3, 6):
        for w in enumerate_restricted(2, m):
            c = canonical_flex_form(w)
            assert verify_equivalence(aflex, gens, w, c)


def test_sign_flip_detected(aalt):
    # negative control: an artificially flipped sign must fail verification
    gens = [aalt.basis_element(1), aalt.basis_element(2)]
    w = (1, (2, 1))  # f1 (f2 f1) = f4, outside the span of shorter words
    c = canonical_alt_form(w)
    flipped = CanonicalWord(variant=c.variant, sign=-c.sign, shape=c.shape,
                            form=c.form, blocks=c.blocks, partition=c.partition)
    assert verify_equivalence(aalt, gens, w, c)
    assert not verify_equivalence(aalt, gens, w, flipped)


def test_repeated_letter_collapse(aalt, aflex, z2n3):
    # two equal letters in one exchangeable class force the word into the
    # span of shorter words; same for any class larger than the alphabet
    cases = [
        (aalt, canonical_alt_form, [aalt.basis_element(1), aalt.basis_element(2)], range(2, 6)),
        (aflex, canonical_flex_form, [aflex.basis_element(1), aflex.basis_element(2)], range(3, 6)),
        (z2n3, canonical_alt_form,
         [z2n3.basis_element(2), z2n3.basis_element(3), z2n3.basis_element(5)], range(2, 4)),
    ]
    for algebra, canon, gens, lengths in cases:
        for m in lengths:
            lower = lin_span(algebra, gens, m - 1)
            for w in enumerate_restricted(len(gens), m):
                c = canon(w)
                collapse = any(len(cl) != len(set(cl)) for cl in c.partition)
                overflow = any(len(cl) > len(gens) for cl in c.partition)
                if collapse or overflow:
                    assert lower.contains(evaluate(algebra, gens, w)), (m, w)


def test_alt_subword_family_counts():
    count, stream = oracles.alt_subword_family(1, 2)
    assert count == 1 and list(stream) == [((1,), (1,))]
    count, stream = oracles.alt_subword_family(2, 5)
    pairs = list(stream)
    assert count == 21 and len(pairs) == 21
    assert len(set(pairs)) == 21
    count, _ = oracles.alt_subword_family(3, 6)
    assert count == 49
    with pytest.raises(ValueError):
        oracles.alt_subword_family(0, 2)


def test_flex_block_structure_matches_shape():
    for w in enumerate_restricted(3, 6, cap=None):
        c = canonical_flex_form(w)
        if c.shape == "EOO":
            x, y, z = (len(c.blocks[r]) for r in ("x", "y", "z"))
            assert x % 2 == 0 and y % 2 == 1 and z % 2 == 1
        elif c.shape == "OEE":
            x, y, z = (len(c.blocks[r]) for r in ("x", "y", "z"))
            assert x % 2 == 1 and y % 2 == 0 and z % 2 == 0
        elif c.shape == "O11":
            assert len(c.blocks["y"]) == len(c.blocks["z"]) == 1
        elif c.shape == "OO":
            u, v = len(c.blocks["u"]), len(c.blocks["v"])
            assert u % 2 == 1 and v % 2 == 1
        else:
            u, v = len(c.blocks["u"]), len(c.blocks["v"])
            assert u % 2 == 0 and u >= 4 and v % 2 == 1
