import gc
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from alglen import examples, identities
from alglen.algebra import make_algebra
from alglen.field import PrimeField, Rationals
from alglen.identities import EQUATIONS, IDENTITIES, Witness, classify, replay_witness
from alglen.io_cli import build_example, main, parse_algebra


def _witness_labels(algebra, verdict):
    return {name: algebra.format_element(c) for name, c in verdict.witness.elements}


def test_flexible_alternative_on_associative():
    report = classify(examples.make_matrix_algebra(3))
    assert report.verdict("flexible").kind == "holds-exhaustive"
    assert report.verdict("alternative").kind == "holds-exhaustive"


def test_spin_factor_class(aflex):
    report = classify(examples.make_spin_factor(3))
    assert report.verdict("flexible").kind == "holds-exhaustive"
    assert report.verdict("descendingly_flexible").holds
    assert report.verdict("descendingly_alternative").holds
    assert report.verdict("sufficient_condition_flex").holds
    assert report.verdict("sufficient_condition_alt").holds


def test_classification_matrix_aflex(aflex):
    report = classify(aflex)
    assert report.verdict("descendingly_flexible").holds
    da = report.verdict("descendingly_alternative")
    assert da.kind == "fails"
    assert _witness_labels(aflex, da) == {"a": "e1", "b": "e2"}
    assert da.witness.equation == "a(ab) in Lin_1(a,b,aa,ab,ba)"
    assert report.verdict("mixing").holds
    assert not report.warnings


def test_classification_matrix_aalt(aalt):
    report = classify(aalt)
    assert report.verdict("descendingly_alternative").holds
    df = report.verdict("descendingly_flexible")
    assert df.kind == "fails"
    assert _witness_labels(aalt, df) == {"a": "f1", "b": "f2"}
    assert df.witness.equation == "a(ba) in Lin_1(a,b,aa,ab,ba)"
    assert report.verdict("mixing").holds
    assert not report.warnings


def test_group_algebra_class(z2n2):
    report = classify(z2n2)
    assert report.verdict("descendingly_alternative").holds
    assert report.verdict("descendingly_flexible").holds
    assert report.verdict("sufficient_condition_alt").holds
    # characteristic 2 inflates the sample budget
    assert report.verdict("descendingly_flexible").samples \
        == identities.DEFAULT_SAMPLES * identities.CHAR2_SAMPLE_FACTOR


def test_chain3_sliding():
    c3 = examples.make_chain3()
    report = classify(c3)
    left = report.verdict("left_sliding")
    assert left.kind == "fails"
    assert _witness_labels(c3, left) == {"x": "a", "y": "a", "z": "a"}
    # the combined monomial pool contains (xz)y = (aa)a, so mixing and
    # right sliding genuinely hold on this algebra
    assert report.verdict("right_sliding").holds
    assert report.verdict("mixing").holds


def test_nonmixing_negative_control():
    report = classify(examples.make_nonmixing7())
    assert report.verdict("mixing").kind == "fails"
    assert report.verdict("left_sliding").kind == "fails"
    assert report.verdict("right_sliding").kind == "fails"


def test_matrix4_descending_failures():
    m4 = examples.make_matrix_algebra(4)
    report = classify(m4, samples=4)
    df = report.verdict("descendingly_flexible")
    da = report.verdict("descendingly_alternative")
    assert df.kind == "fails" and da.kind == "fails"
    assert _witness_labels(m4, df) == {"a": "E12", "b": "E23", "c": "E31"}
    # the triple of consecutive one-step matrix units is also a violation
    a, b, c = m4.basis_element(2), m4.basis_element(7), m4.basis_element(12)
    lhs = m4.add(m4.multiply(m4.multiply(a, b), c), m4.multiply(m4.multiply(c, b), a))
    # the span the equation table builds for Lin_2'(a,b,c) at this triple
    values = {"a": a, "b": b, "c": c}
    identities.EQUATIONS["(ab)c + (cb)a in Lin_2'(a,b,c)"](m4, values)
    span = values["Lin_2'(a,b,c)"]
    assert not span.contains(lhs)


def test_witness_replay(aflex, aalt):
    for algebra in (aflex, aalt):
        report = classify(algebra, samples=8)
        for verdict in report.verdicts.values():
            if verdict.kind == "fails":
                elements = {k: v for k, v in verdict.witness.elements}
                assert replay_witness(algebra, verdict.witness), verdict.witness


def test_determinism(aalt):
    a = classify(aalt, seed=3, samples=16)
    b = classify(aalt, seed=3, samples=16)
    assert a.as_dict(aalt) == b.as_dict(aalt)


def test_implication_audit_consistency(small_registry):
    for name, algebra in small_registry.items():
        report = classify(algebra, samples=8)
        assert not report.warnings, (name, report.warnings)


def test_unital_hull_inherits_class(aflex, aalt):
    hull = examples.make_unital_hull(aflex)
    assert classify(hull, samples=16).verdict("descendingly_flexible").holds
    hull = examples.make_unital_hull(aalt)
    assert classify(hull, samples=16).verdict("descendingly_alternative").holds


def test_nilpotent_index3():
    report = classify(examples.make_nilpotent3(), samples=16)
    assert report.verdict("descendingly_flexible").holds
    assert report.verdict("descendingly_alternative").holds


def test_sufficient_condition_edge_cases(aflex):
    one_dim = examples.make_cayley_dickson(0, [])
    # dimension 1: the remaining monomials always span everything
    assert classify(one_dim).verdict("sufficient_condition_flex").kind == "inconclusive"
    bad = classify(aflex).verdict("sufficient_condition_alt")
    assert bad.kind == "fails"


def test_descending_checks_over_gf2(aflex_gf2, aalt_gf2):
    # over characteristic 2 the pair memberships are checked independently
    report = classify(aflex_gf2)
    assert report.verdict("descendingly_flexible").holds
    assert report.verdict("descendingly_alternative").kind == "fails"
    report = classify(aalt_gf2)
    assert report.verdict("descendingly_alternative").holds
    assert report.verdict("descendingly_flexible").kind == "fails"


def test_sample_counts_below_one_are_refused(aflex):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        classify(aflex, samples=0)
    with pytest.raises(ValueError, match="samples must be at least 1"):
        classify(aflex, samples=-3)


# Verdicts at seed 0 and samples 8, recorded before the identities became a
# table: (kind, witness equation, witness elements) per class.
HOLDS = ("holds-randomized", None, None)
EXHAUSTIVE = ("holds-exhaustive", None, None)
PAIR = "Lin_1(a,b,aa,ab,ba)"
CHAIN3 = {
    "flexible": ("fails", "(ab)a = a(ba)", {"a": "a", "b": "a"}),
    "alternative": ("fails", "a(ab) = (aa)b", {"a": "a", "b": "a"}),
    "left_sliding": ("fails", "(xy)z in Lin_1(Q_l)", {"x": "a", "y": "a", "z": "a"}),
    "right_sliding": HOLDS,
    "mixing": HOLDS,
    "descendingly_flexible": ("fails", f"(ab)a in {PAIR}", {"a": "a", "b": "a"}),
    "descendingly_alternative": ("fails", f"(ba)a in {PAIR}", {"a": "a", "b": "a"}),
    "sufficient_condition_flex": ("fails", f"(ab)a outside {PAIR}", {"a": "a", "b": "a"}),
    "sufficient_condition_alt": ("fails", f"(ba)a outside {PAIR}", {"a": "a", "b": "a"}),
}


def _aflex(suff_alt):
    return {
        "flexible": EXHAUSTIVE,
        "alternative": ("fails", "a(ab) = (aa)b", {"a": "e1", "b": "e2"}),
        "left_sliding": HOLDS,
        "right_sliding": ("fails", "z(xy) in Lin_1(Q_r)", {"x": "e1", "y": "e1", "z": "e2"}),
        "mixing": HOLDS,
        "descendingly_flexible": HOLDS,
        "descendingly_alternative": ("fails", f"a(ab) in {PAIR}", {"a": "e1", "b": "e2"}),
        "sufficient_condition_flex": HOLDS,
        "sufficient_condition_alt": suff_alt,
    }


def _aalt(suff_flex):
    return {
        "flexible": ("fails", "(ab)a = a(ba)", {"a": "f1", "b": "f2"}),
        "alternative": ("fails", "(ba)a = b(aa)", {"a": "f1", "b": "f2"}),
        "left_sliding": HOLDS,
        "right_sliding": ("fails", "z(xy) in Lin_1(Q_r)", {"x": "f1", "y": "f1", "z": "f2"}),
        "mixing": HOLDS,
        "descendingly_flexible": ("fails", f"a(ba) in {PAIR}", {"a": "f1", "b": "f2"}),
        "descendingly_alternative": HOLDS,
        "sufficient_condition_flex": suff_flex,
        "sufficient_condition_alt": HOLDS,
    }


def _nonmix7(flexible, alternative, suff_flex, suff_alt):
    uvz = {"a": "u", "b": "v", "c": "z"}
    return {
        "flexible": ("fails", "(ab)a = a(ba)", flexible),
        "alternative": ("fails", "a(ab) = (aa)b", alternative),
        "left_sliding": ("fails", "(xy)z in Lin_1(Q_l)", {"x": "u", "y": "v", "z": "z"}),
        "right_sliding": ("fails", "z(xy) in Lin_1(Q_r)", {"x": "v", "y": "u", "z": "z"}),
        "mixing": ("fails", "(xy)z in Lin_1(P)", {"x": "u", "y": "v", "z": "z"}),
        "descendingly_flexible": ("fails", "(ab)c + (cb)a in Lin_2'(a,b,c)", uvz),
        "descendingly_alternative": ("fails", "(ab)c + (ac)b in Lin_2'(a,b,c)", uvz),
        "sufficient_condition_flex": suff_flex,
        "sufficient_condition_alt": suff_alt,
    }


GOLDEN = {
    ("aflex", "rational"): _aflex(
        ("fails", "aa-coefficient forced by a(ab) inconsistent at fixed b",
         {"a1": "2*e1 + 2*e2 - e4 + 2*e5", "a2": "2*e1 + 2*e2 - e4 + 2*e5", "b": "e1"})),
    ("aflex", "gf:2"): _aflex(("fails", f"a(ab) outside {PAIR}", {"a": "e1", "b": "e2"})),
    ("aalt", "rational"): _aalt(
        ("fails", "aa-coefficient forced by a(ba) inconsistent at fixed b",
         {"a1": "2*f1 + 2*f2 - f4 + 2*f5", "a2": "2*f1 + 2*f2 - f4 + 2*f5", "b": "f1"})),
    ("aalt", "gf:2"): _aalt(("fails", f"a(ba) outside {PAIR}", {"a": "f1", "b": "f2"})),
    ("nonmix7", "rational"): _nonmix7(
        {"a": "u + v - 2*z + 2*m2 + w1 + w2", "b": "-u + 2*v - 2*z - 2*m2 + w1 + w2"},
        {"a": "-u + 2*v - 2*z - 2*m2 + w1 + w2", "b": "-2*u - 2*v - 2*z - m2"},
        ("fails", f"a(ba) outside {PAIR}", {"a": "2*u - 2*z + 2*m1 - 2*w1", "b": "v"}),
        ("fails", f"(ba)a outside {PAIR}",
         {"a": "2*u - v + z + 2*m1 + m2 - w1 - w2", "b": "u"})),
    ("nonmix7", "gf:2"): _nonmix7(
        {"a": "u + v + z + m2 + w2", "b": "u + v"},
        {"a": "u + v + m1", "b": "v + z + w2"},
        ("fails", f"(ab)a outside {PAIR}", {"a": "u + z + m2 + w1", "b": "v"}),
        ("fails", f"(ba)a outside {PAIR}", {"a": "v + z + w1 + w2", "b": "u"})),
    ("chain3", "rational"): CHAIN3,
    ("chain3", "gf:2"): CHAIN3,
    # recorded before the checks moved to integer rows: structure constants
    # with common denominator 2 over Q, and two examples over GF(3)
    ("cd:2:1/2,3", "rational"): {
        cls: EXHAUSTIVE if cls in ("flexible", "alternative") else HOLDS
        for cls in identities.CLASS_NAMES},
    ("aflex", "gf:3"): _aflex(
        ("fails", "aa-coefficient forced by a(ab) inconsistent at fixed b",
         {"a1": "2*e1 + e2 + 2*e4 + 2*e5", "a2": "2*e1 + e2 + 2*e4 + 2*e5", "b": "e1"})),
    ("nonmix7", "gf:3"): _nonmix7(
        {"a": "2*u + z + m1 + 2*m2", "b": "u + 2*v + z + m1 + 2*m2 + 2*w1"},
        {"a": "2*u + v + 2*z + m1 + 2*m2 + 2*w1 + 2*w2", "b": "2*u + z + m1"},
        ("fails", f"a(ba) outside {PAIR}",
         {"a": "2*u + 2*v + 2*z + m1 + 2*w1 + 2*w2", "b": "v"}),
        ("fails", f"a(ab) outside {PAIR}",
         {"a": "2*u + 2*v + 2*z + m1 + 2*w1 + 2*w2", "b": "u"})),
}


def test_classify_golden():
    for (name, field), expected in GOLDEN.items():
        algebra = build_example(name, field)
        report = classify(algebra, seed=0, samples=8)
        got = {}
        for cls in identities.CLASS_NAMES:
            v = report.verdict(cls)
            if v.witness is None:
                got[cls] = (v.kind, None, None)
            else:
                got[cls] = (v.kind, v.witness.equation,
                            {k: algebra.format_element(c) for k, c in v.witness.elements})
        assert got == expected, (name, field)


def test_replay_covers_the_table():
    # every text a check can emit: the table's, and the sufficient
    # conditions' four "outside" and four "aa-coefficient forced" texts
    table_texts = {t for texts in IDENTITIES.values() for t in texts}
    extra = set(EQUATIONS) - table_texts
    assert len(table_texts) == 18 and len(extra) == 8
    assert sum(" outside " in t for t in extra) == 4
    assert sum(t.startswith("aa-coefficient forced by ") for t in extra) == 4
    n7 = examples.make_nonmixing7()
    zero = (n7.field.zero(),) * n7.dim
    names = ("a", "b", "c", "x", "y", "z", "a1", "a2")
    for text in EQUATIONS:
        assert not replay_witness(n7, Witness(text, tuple((n, zero) for n in names))), text
    with pytest.raises(ValueError, match="no replay rule"):
        replay_witness(n7, Witness("(ab)a = a(ab)", (("a", zero), ("b", zero))))
    # texts no classify run above reaches, on basis tuples of nonmix7
    u, v, z = (n7.basis_element(i) for i in (1, 2, 3))
    assert replay_witness(n7, Witness("(ba)c + (bc)a = b(ac) + b(ca)",
                                      (("a", u), ("b", z), ("c", v))))
    assert replay_witness(n7, Witness("z(xy) in Lin_1(P)", (("x", v), ("y", u), ("z", z))))


def test_equation_table_refuses_a_non_homogeneous_text():
    # the checks drop denominators, which is exact only when every compared
    # word holds the same letters the same number of times
    for text in ("(ab)a = a", "(ab)a + b in Lin_1(a,b,aa,ab,ba)", "(ab)c = (ab)a"):
        with pytest.raises(ValueError, match="not homogeneous"):
            identities._Equation(text)


def _scalars(field):
    if field.characteristic:
        return st.integers(0, field.characteristic - 1)
    return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def small_algebras(draw):
    """An algebra of dim <= 4 over Q, GF(2) or GF(3), possibly unital.

    Over Q the structure constants are fractions, so the common denominator
    D of the constants is often above 1.
    """
    field = draw(st.sampled_from((Rationals(), PrimeField(2), PrimeField(3))))
    dim = draw(st.integers(1, 4))
    scalar = _scalars(field)
    index = st.integers(1, dim)
    products = {(i, j): draw(st.lists(st.tuples(index, scalar), max_size=2,
                                      unique_by=lambda t: t[0]))
                for i in range(1, dim + 1) for j in range(1, dim + 1)}
    algebra = make_algebra(field, dim, products)
    if dim < 4 and draw(st.booleans()):
        algebra = examples.make_unital_hull(algebra)
    return algebra


@st.composite
def identity_cases(draw):
    """An algebra from small_algebras and a value for every letter.

    Over Q the letters are fractions.  Half the letters' coordinates are 0,
    and a letter is often drawn from a pool of at most three vectors, so
    that letters coincide and memberships fail now and then.
    """
    algebra = draw(small_algebras())
    field = algebra.field
    scalar = _scalars(field)
    letter = st.tuples(*[st.one_of(st.just(field.zero()), scalar)] * algebra.dim)
    pool = st.sampled_from(draw(st.lists(letter, min_size=1, max_size=3)))
    return algebra, {name: draw(st.one_of(pool, letter))
                     for name in ("a", "b", "c", "x", "y", "z", "a1", "a2")}


@settings(max_examples=120, deadline=None)
@given(identity_cases())
def test_equations_match_the_exact_oracle(case):
    algebra, values = case
    for text, equation in EQUATIONS.items():
        if text.startswith("aa-coefficient forced by "):
            texts = next(t for t in identities._SANDWICHES.values()
                         if text == identities._clash(t[0]) or text == identities._clash(t[1]))
            expected = oracles.coefficient_clash(algebra, texts, values)
        else:
            expected = oracles.identity_violated(algebra, text, values)
        assert equation(algebra, dict(values)) == expected, text
    # the texts of a class share one memo per tuple, and so its lazy spans
    for texts in IDENTITIES.values():
        memo = dict(values)
        for text in texts:
            assert EQUATIONS[text](algebra, memo) \
                == oracles.identity_violated(algebra, text, values), text
    for texts in identities._SANDWICHES.values():
        for a in (values["a"], values["a1"]):
            assert identities._forced_coefficients(algebra, a, values["b"], texts) \
                == oracles.forced_coefficients(algebra, a, values["b"], texts)


def test_forced_coefficients_match_the_exact_oracle():
    # algebras where aa is often forced, with fractional letters over Q;
    # aalt with its structure constants halved has D = 2
    aalt = build_example("aalt")
    halved = make_algebra(aalt.field, aalt.dim, {ij: [(k, Fraction(c) / 2) for k, c in terms]
                                                 for ij, terms in aalt.sc.items()})
    assert halved.product_table[1] == 2
    for algebra in (build_example("aflex"), aalt, build_example("aflex", "gf:3"),
                    build_example("hull:aalt"), halved):
        f = algebra.field
        scale = f.parse("2/3") if not f.characteristic else 2
        pinned = 0
        for t in range(8):
            a, b = (identities.random_element(algebra, 5, 2 * t + i) for i in range(2))
            values = {"a": algebra.scale(scale, a), "b": b, "a1": a, "a2": a}
            values["b"] = algebra.scale(scale, b) if t % 2 else b
            for texts in identities._SANDWICHES.values():
                got = identities._forced_coefficients(algebra, values["a"], values["b"], texts)
                assert got == oracles.forced_coefficients(algebra, values["a"], values["b"], texts)
                pinned += sum(g is not None for _, g in got[1])
                clash = identities._clash(texts[0])
                assert EQUATIONS[clash](algebra, dict(values)) \
                    == oracles.coefficient_clash(algebra, texts, values), clash
        assert pinned


def test_random_element_draws_once_per_algebra(monkeypatch):
    # the same elements as a fresh generator seeded from (seed, index)
    for algebra in (build_example("aflex"), build_example("aflex", "gf:3"),
                    build_example("cd:2:-1,-1", "gf:5")):
        p = algebra.field.characteristic
        for seed, index in ((0, 0), (3, 17), (5, 8_001)):
            rng = random.Random(seed * 1_000_003 + index)
            expected = tuple(rng.randrange(p) if p else rng.randint(-2, 2)
                             for _ in range(algebra.dim))
            assert identities.random_element(algebra, seed, index) == expected
    # one classify seeds one generator per distinct (seed, index), although
    # the checks' salts overlap; a freshly built algebra draws again
    seeds = []

    class Counting(random.Random):
        def __init__(self, x=None):
            seeds.append(x)
            super().__init__(x)

    monkeypatch.setattr(random, "Random", Counting)
    cd3 = build_example("cd:3:-1,-1,-1")
    classify(cd3, seed=2)
    drawn = len(seeds)
    assert drawn == len(set(seeds)) == len(cd3.sample_draws) > 0
    classify(cd3, seed=2)
    assert len(seeds) == drawn
    classify(build_example("cd:3:-1,-1,-1"), seed=2)
    assert len(seeds) == 2 * drawn and sorted(seeds[drawn:]) == sorted(seeds[:drawn])


def test_no_span_outlives_its_tuple(monkeypatch):
    # a span's pending rows hold the tuple's memo, which holds the span; the
    # sweep must break that cycle itself, without waiting for a GC pass
    spans = []

    class Tracked(identities._LazySpan):
        def __init__(self, *args):
            super().__init__(*args)
            spans.append(weakref.ref(self))

    monkeypatch.setattr(identities, "_LazySpan", Tracked)
    cd3 = build_example("cd:3:-1,-1,-1")
    triples = list(identities._random_tuples(cd3, 3, 64, 0, 12))
    gc.disable()
    try:
        assert identities._first_failure(cd3, "mixing", triples) is None
        alive = sum(ref() is not None for ref in spans)
    finally:
        gc.enable()
    assert len(spans) == 64 and alive == 0


def _tracking_spans(monkeypatch) -> list:
    """Every _LazySpan built from now on, in order."""
    spans = []

    class Tracked(identities._LazySpan):
        def __init__(self, *args):
            super().__init__(*args)
            spans.append(self)

    monkeypatch.setattr(identities, "_LazySpan", Tracked)
    return spans


@pytest.mark.parametrize("field", ["rational", "gf:2", "gf:3"])
def test_zero_left_side_builds_no_span(monkeypatch, field):
    # 0 lies in every span, so a membership whose left side is zero holds
    # without its span; over GF(p) that includes rows that are 0 mod p only
    spans = _tracking_spans(monkeypatch)
    m3 = build_example("matrix:3", field)
    p = m3.field.characteristic
    mul = identities._row_product(m3)
    memberships = [EQUATIONS[t] for t in identities._TABLE_TEXTS if EQUATIONS[t].span]
    zero = multiple_of_p = 0
    for elements in chain(identities._basis_tuples(m3, 2), identities._basis_tuples(m3, 3)):
        for equation in memberships:
            if len(equation.letters) != len(elements):
                continue
            values = dict(zip(equation.letters, elements))
            if oracles._total(m3, values, " + ".join(equation.lhs)) != (m3.field.zero(),) * m3.dim:
                continue
            memo = {x: identities._row(v)[0] for x, v in values.items()}
            multiple_of_p += any(equation.evaluate(mul, dict(memo)))
            built = len(spans)
            assert not equation.violated(m3, mul, memo)
            assert len(spans) == built and equation.span not in memo
            zero += 1
    assert zero > 0 and spans == []
    # over GF(2), (ab)c + (cb)a is 2(ab)a at c = a
    assert (multiple_of_p > 0) == (p == 2)


def test_classify_builds_spans_only_where_read(monkeypatch):
    # 1,864 spans before zero left sides were held without one
    spans = _tracking_spans(monkeypatch)
    classify(examples.make_matrix_algebra(3))
    assert len(spans) == 421


def test_one_product_per_row_pair(monkeypatch):
    # one check multiplies each distinct pair of integer rows once
    calls = []
    table_product = identities.table_product

    def counting(table, u, v):
        calls.append((tuple(u), tuple(v)))
        return table_product(table, u, v)

    monkeypatch.setattr(identities, "table_product", counting)
    m3 = examples.make_matrix_algebra(3)
    tuples = chain(identities._basis_tuples(m3, 2), identities._basis_tuples(m3, 3))
    assert identities._first_failure(m3, "alternative", tuples) is None
    assert len(calls) == len(set(calls)) == 99


def test_identity_classes_documented():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Identity classes", 1)[1].split("\n## ", 1)[0]
    for name, words in identities.SPANS.items():
        assert f"| `{name}` | {' '.join(words)}" in section, name
    for cls in identities.CLASS_NAMES:
        assert f"`{cls}`" in section, cls
    for text in EQUATIONS:
        assert f"`{text}`" in section, text


@settings(max_examples=40, deadline=None)
@given(small_algebras(), st.integers(0, 3), st.integers(1, 4))
# nonmix7's equalities hold on basis pairs but fail on a basis triple and,
# earlier in their streams, on a random pair
@example(build_example("nonmix7"), 0, 2)
@example(build_example("nonmix7", "gf:2"), 1, 1)
def test_walk_equals_the_per_class_streams(algebra, seed, samples):
    # classify walks the shared tuples once for all classes; each class must
    # still get the verdict and witness of its own stream walked alone, as
    # the oracle walks it
    report = classify(algebra, seed=seed, samples=samples)
    for name in identities.CLASS_NAMES:
        verdict = report.verdict(name)
        witness = verdict.witness and (verdict.witness.equation, dict(verdict.witness.elements))
        kind, text, values = oracles.reference_verdict(algebra, name, seed, samples)
        assert (verdict.kind, witness) == (kind, text and (text, values)), name


def _is_basis_row(row) -> bool:
    return sum(map(bool, row)) <= 1


def test_classify_walks_the_basis_tuples_once(monkeypatch):
    # on the octonions every product of basis rows is a signed basis row, and
    # both sliding texts hold at every basis triple
    products = Counter()
    table_product = identities.table_product

    def counting(table, u, v):
        if _is_basis_row(u) and _is_basis_row(v):
            products[tuple(u), tuple(v)] += 1
        return table_product(table, u, v)

    built = Counter()
    span_rows = identities._span_rows

    def recording(algebra, mul, memo, name):
        letters = sorted(set(filter(str.isalpha, "".join(identities.SPANS[name]))))
        rows = tuple(memo[letter] for letter in letters)
        built[name, rows, all(map(_is_basis_row, rows))] += 1
        return span_rows(algebra, mul, memo, name)

    monkeypatch.setattr(identities, "table_product", counting)
    monkeypatch.setattr(identities, "_span_rows", recording)
    cd3 = build_example("cd:3:-1,-1,-1")
    report = classify(cd3)
    assert all(v.holds for v in report.verdicts.values())
    # each distinct pair of basis-walk rows is multiplied once for all classes
    assert products and max(products.values()) == 1
    # each span is built at most once per basis tuple, shared by the classes
    # that name it, and Lin_1(P) never at a basis triple
    at_basis = {key: count for key, count in built.items() if key[2]}
    assert at_basis and max(at_basis.values()) == 1
    assert not any(name == "Lin_1(P)" for name, _, _ in at_basis)
    assert {name for name, _, _ in at_basis} \
        == {"Lin_1(Q_l)", "Lin_1(Q_r)", "Lin_1(a,b,aa,ab,ba)", "Lin_2'(a,b,c)"}
    # mixing's own random triples still build Lin_1(P)
    assert sum(count for (name, _, basis), count in built.items()
               if name == "Lin_1(P)" and not basis) == 64


def test_sufficient_conditions_fail_on_the_descending_witness_line(tmp_path, capsys):
    # at 5 samples the (b, a) grid misses nonmix7's failing pairs over GF(2);
    # the lines of the descending classes' witnesses hold them
    path = tmp_path / "n7.alg"
    assert main(["gen", "nonmix7", "--field", "gf:2", "-o", str(path)]) == 0
    assert main(["classify", str(path), "--samples", "5", "--seed", "2"]) == 0
    assert "WARNING" not in capsys.readouterr().out
    algebra = parse_algebra(path.read_text(encoding="utf-8"))
    report = classify(algebra, seed=2, samples=5)
    assert not report.warnings
    for name, equation, shown in (
            ("sufficient_condition_flex", f"(ab)a outside {PAIR}", {"a": "u + z", "b": "v"}),
            ("sufficient_condition_alt", f"(ba)a outside {PAIR}", {"a": "v + z", "b": "u"})):
        verdict = report.verdict(name)
        assert (verdict.kind, verdict.witness.equation) == ("fails", equation)
        assert _witness_labels(algebra, verdict) == shown
        assert replay_witness(algebra, verdict.witness)


@settings(max_examples=60, deadline=None)
@given(small_algebras(), st.integers(0, 3), st.integers(1, 5))
# each warned before the witness lines were walked: at a triple witness of a
# descending class, and at a random pair witness that the grid does not visit
@example(build_example("nonmix7"), 0, 2)
@example(build_example("hull:nonmix7", "gf:3"), 0, 1)
@example(make_algebra(PrimeField(3), 3, {(2, 1): [(2, 1), (3, 2)], (3, 2): [(2, 1)]}), 2, 3)
def test_no_sufficient_condition_warning_at_few_samples(algebra, seed, samples):
    report = classify(algebra, seed=seed, samples=samples)
    assert not [w for w in report.warnings if w.startswith("sufficient_condition_")]
    for name in ("sufficient_condition_flex", "sufficient_condition_alt"):
        verdict = report.verdict(name)
        if verdict.kind == "fails":
            assert replay_witness(algebra, verdict.witness), verdict.witness
