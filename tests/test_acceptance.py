"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 5's negative control about the chain algebra is marked
as a strict expected failure: with the monomial pools as defined, that
algebra genuinely satisfies the mixing membership (see the project notes),
so an honest checker cannot report it as non-mixing; a replacement
negative control that actually fails all three memberships is asserted
alongside.
"""

import json
from contextlib import contextmanager

import pytest

import oracles
from alglen import bounds, examples, identities
from alglen.canonical import canonical_alt_form, canonical_flex_form, verify_equivalence
from alglen.field import PrimeField
from alglen.io_cli import main
from alglen.spans import diff_sequence, exact_algebra_length, lin_span
from alglen.words import enumerate_restricted


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{description}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{description}]: PASS")


def _basis_letters_z2n(algebra, n):
    # e_x for x running over the standard basis bits of the exponent group
    return [algebra.basis_element((1 << b) + 1) for b in range(n)]


def test_criterion_1_group_algebra_lengths(tmp_path, capsys):
    with criterion(1, "group-algebra lengths"):
        for n in (2, 3, 4):
            algebra = examples.make_group_algebra_z2n(n)
            seq = diff_sequence(algebra, _basis_letters_z2n(algebra, n))
            assert seq.length_of_set == n, (n, seq)
            assert seq.generating
            # same result through the CLI surface
            path = str(tmp_path / f"z2n{n}.alg")
            assert main(["gen", f"z2n:{n}", "-o", path]) == 0
            capsys.readouterr()
            letters = ",".join(str((1 << b) + 1) for b in range(n))
            assert main(["length", path, "--set", letters, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["length_of_set"] == n
        for n in (2, 3):
            algebra = examples.make_group_algebra_z2n(n)
            assert identities.classify(algebra, seed=0).verdict("mixing").holds
            length, witness = exact_algebra_length(algebra)
            assert length == n, n
            assert diff_sequence(algebra, witness).length_of_set == n
            path = str(tmp_path / f"z2n{n}.alg")
            assert main(["exact-length", path, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["length"] == n and "mode" not in payload


def test_criterion_2_classification_matrix():
    with criterion(2, "classification matrix"):
        aflex = examples.make_a_flex()
        report = identities.classify(aflex, seed=0)
        assert report.verdict("descendingly_flexible").holds
        da = report.verdict("descendingly_alternative")
        assert da.kind == "fails"
        assert [aflex.format_element(c) for _, c in da.witness.elements] == ["e1", "e2"]
        assert da.witness.equation == "a(ab) in Lin_1(a,b,aa,ab,ba)"

        aalt = examples.make_a_alt()
        report = identities.classify(aalt, seed=0)
        assert report.verdict("descendingly_alternative").holds
        df = report.verdict("descendingly_flexible")
        assert df.kind == "fails"
        assert [aalt.format_element(c) for _, c in df.witness.elements] == ["f1", "f2"]
        assert df.witness.equation == "a(ba) in Lin_1(a,b,aa,ab,ba)"

        m4 = examples.make_matrix_algebra(4)
        report = identities.classify(m4, seed=0, samples=64)
        assert report.verdict("descendingly_flexible").kind == "fails"
        assert report.verdict("descendingly_alternative").kind == "fails"
        for name in ("mixing", "left_sliding", "right_sliding"):
            v = report.verdict(name)
            assert v.kind == "holds-randomized" and v.samples == 64, name
        # the documented violating triple of matrix units, checked directly
        a, b, c = m4.basis_element(2), m4.basis_element(7), m4.basis_element(12)
        # the span the equation table builds for Lin_2'(a,b,c) at this triple
        values = {"a": a, "b": b, "c": c}
        identities.EQUATIONS["(ab)c + (cb)a in Lin_2'(a,b,c)"](m4, values)
        span = values["Lin_2'(a,b,c)"]
        flex_sum = m4.add(m4.multiply(m4.multiply(a, b), c),
                          m4.multiply(m4.multiply(c, b), a))
        alt_sum = m4.add(m4.multiply(m4.multiply(a, b), c),
                         m4.multiply(m4.multiply(a, c), b))
        assert not span.contains(flex_sum)
        assert not span.contains(alt_sum)


def test_criterion_3_exact_lengths_with_equality(tmp_path, capsys):
    with criterion(3, "exact lengths meet the dimension bounds with equality"):
        for make, spec, kind in ((examples.make_a_flex, "aflex", "flex"),
                                 (examples.make_a_alt, "aalt", "alt")):
            algebra = make(PrimeField(2))
            length, _ = exact_algebra_length(algebra)
            assert length == 3
            report = identities.classify(algebra, seed=0)
            gens = [algebra.basis_element(1), algebra.basis_element(2)]
            seq = diff_sequence(algebra, gens)
            audit = bounds.audit(algebra, report, seq, algebra_length=length)
            assert audit.all_passed
            name = f"{kind}-min-dim"
            entry = next(e for e in audit.entries if e.name == name)
            assert entry.observed == {"dim-d0": 5, "required": 5}
            # end to end: the bounds subcommand audits the same equality
            path = str(tmp_path / f"{spec}.alg")
            assert main(["gen", spec, "--field", "gf:2", "-o", path]) == 0
            capsys.readouterr()
            assert main(["bounds", path, "--set", "1,2", "--exact", "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["exact_length"] == 3
            cli_entry = next(e for e in payload["audit"]["entries"]
                             if e["name"] == name)
            assert cli_entry["observed"] == {"dim-d0": 5, "required": 5}
            assert payload["audit"]["all_passed"]
        assert bounds.flex_min_dim(3) == bounds.alt_min_dim(3) == 5


def _sweep_sets(algebra):
    n = algebra.dim
    sets = [[algebra.basis_element(i)] for i in range(1, n + 1)]
    sets += [[algebra.basis_element(i), algebra.basis_element(j)]
             for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return sets


def test_criterion_4_oracle_equivalence(small_registry):
    with criterion(4, "span engine matches the brute-force oracles"):
        for name, algebra in small_registry.items():
            mixing = identities.classify(algebra, seed=0).verdict("mixing").holds
            for gens in _sweep_sets(algebra):
                oracle = oracles.full_word_span(algebra, gens, 5)
                for m in range(1, 6):
                    engine = lin_span(algebra, gens, m)
                    assert engine.row_tuples() == oracle[m], (name, m)
                if mixing:
                    restricted = oracles.restricted_word_span(algebra, gens, 5)
                    for m in range(1, 6):
                        assert restricted[m] == oracle[m], (name, m)


def test_criterion_5_stabilization(small_registry):
    with criterion(5, "stabilization after the first zero difference"):
        for name, algebra in small_registry.items():
            if not identities.classify(algebra, seed=0).verdict("mixing").holds:
                continue
            for gens in _sweep_sets(algebra):
                seq = diff_sequence(algebra, gens)
                assert 0 not in seq.d[1:], (name, seq.d)
                first_zero = len(seq.d)  # trimmed: the next level was zero
                dims = oracles.full_span_dims(algebra, gens, first_zero + 2)
                assert dims[first_zero - 1] == dims[first_zero] \
                    == dims[first_zero + 1] == dims[first_zero + 2], (name, seq.d)
        # negative-control part that is attainable: the chain algebra run
        # terminates only through the closure criterion, and a genuine
        # non-mixing algebra is reported as such and also needs closure
        c3 = examples.make_chain3()
        seq = diff_sequence(c3, [c3.basis_element(1)])
        assert seq.stabilized_by == "closure-criterion"
        assert all(d > 0 for d in seq.d[1:])
        n7 = examples.make_nonmixing7()
        assert identities.classify(n7, seed=0).verdict("mixing").kind == "fails"
        seq = diff_sequence(n7, [n7.basis_element(i) for i in (1, 2, 3)])
        assert seq.stabilized_by == "closure-criterion"


@pytest.mark.xfail(
    strict=True,
    reason="the chain algebra satisfies the mixing membership: with x=y=z=a "
           "the combined monomial pool contains (xz)y = (aa)a, so every "
           "product lies in the span; the stated non-mixing verdict is not "
           "attainable by a checker faithful to the definitions (see "
           "decisions ledger)")
def test_criterion_5_negative_control_as_stated():
    c3 = examples.make_chain3()
    verdict = identities.classify(c3, seed=0).verdict("mixing")
    print("ACCEPTANCE 5-negative-control [chain3 reported non-mixing]: FAIL "
          f"(verdict is {verdict.kind})")
    assert verdict.kind == "fails"


def test_criterion_6_canonical_soundness():
    with criterion(6, "canonical forms verify numerically, classes large enough"):
        aalt = examples.make_a_alt()
        gens = [aalt.basis_element(1), aalt.basis_element(2)]
        for m in range(2, 6):
            lower = lin_span(aalt, gens, m - 1)
            for w in enumerate_restricted(2, m):
                cw = canonical_alt_form(w)
                assert verify_equivalence(aalt, gens, w, cw, lower), (m, w)
        aflex = examples.make_a_flex()
        gens = [aflex.basis_element(1), aflex.basis_element(2)]
        for m in (3, 4, 5):
            lower = lin_span(aflex, gens, m - 1)
            for w in enumerate_restricted(2, m):
                cw = canonical_flex_form(w)
                assert verify_equivalence(aflex, gens, w, cw, lower), (m, w)
                assert max(map(len, cw.partition)) >= m // 3 + 1, (m, w)


def test_criterion_7_quick_set_bounds(small_registry):
    with criterion(7, "per-set caps from the first difference"):
        checked = 0
        for name, algebra in small_registry.items():
            report = identities.classify(algebra, seed=0, samples=16)
            is_alt = report.verdict("descendingly_alternative").holds
            is_flex = report.verdict("descendingly_flexible").holds
            if not (is_alt or is_flex):
                continue
            for gens in _sweep_sets(algebra):
                seq = diff_sequence(algebra, gens)
                d1 = seq.d[1] if len(seq.d) > 1 else 0
                if is_alt:
                    assert seq.length_of_set <= bounds.quick_set_bounds(d1, "alt"), name
                    checked += 1
                if is_flex:
                    assert seq.length_of_set <= bounds.quick_set_bounds(d1, "flex"), name
                    checked += 1
        assert checked > 50


def test_criterion_8_bound_formula_tables():
    with criterion(8, "bound formula tables"):
        assert [bounds.alt_min_dim(n) for n in range(2, 11)] \
            == [2, 5, 10, 19, 36, 69, 134, 263, 520]
        # n = 7 evaluates to 3*2^3 + 4 = 28 by the piecewise formula; the
        # criterion table's 29 is a transcription slip (see decisions ledger)
        assert [bounds.flex_min_dim(n) for n in range(1, 9)] \
            == [1, 2, 5, 7, 9, 15, 28, 53]
        assert [bounds.alt_max_length(d) for d in (3, 4, 8, 9, 16)] \
            == [2, 2, 3, 4, 4]
        assert [bounds.flex_max_length(d) for d in (3, 10)] == [2, 5]
        # the exact integer-search branch at 11: least n with 3*2^(n-3) >= 11
        assert bounds.flex_max_length(11) == 5
        assert 3 * 2 ** (5 - 3) >= 11 > 3 * 2 ** (4 - 3)


def test_criterion_9_spin_factor_identity():
    with criterion(9, "spin factor sandwich representation"):
        spin = examples.make_spin_factor(3)
        f = spin.field
        pairs = [(spin.basis_element(i), spin.basis_element(j))
                 for i in range(1, 5) for j in range(1, 5)]
        pairs += [(identities.random_element(spin, 0, 2 * t),
                   identities.random_element(spin, 0, 2 * t + 1))
                  for t in range(64)]
        for a, b in pairs:
            alpha, v = a[0], a[1:]
            beta, w = b[0], b[1:]
            inner = f.zero()
            for x, y in zip(v, w):
                inner = f.add(inner, f.mul(x, y))
            coeff_a = f.sub(inner, f.mul(alpha, beta))
            expected = spin.add(
                spin.scale(coeff_a, a),
                spin.add(spin.scale(beta, spin.multiply(a, a)),
                         spin.scale(alpha, spin.multiply(a, b))))
            ab, ba = spin.multiply(a, b), spin.multiply(b, a)
            for product in (spin.multiply(ab, a), spin.multiply(a, ba),
                            spin.multiply(ba, a), spin.multiply(a, ab)):
                assert product == expected
        report = identities.classify(spin, seed=0)
        for variant in ("flex", "alt"):
            assert report.verdict(f"sufficient_condition_{variant}").holds


def _suite_invocations(tmp_path):
    files = {}
    for name, spec, field in (("aflex", "aflex", "rational"),
                              ("aalt", "aalt", "gf:2"),
                              ("z2n2", "z2n:2", "gf:2")):
        path = str(tmp_path / f"{name}.alg")
        assert main(["gen", spec, "--field", field, "-o", path]) == 0
        files[name] = path
    return [
        ["classify", files["aflex"], "--json", "--seed", "0"],
        ["classify", files["aalt"], "--json", "--seed", "0"],
        ["diffseq", files["z2n2"], "--set", "2,3", "--json"],
        ["length", files["z2n2"], "--set", "basis", "--json"],
        ["exact-length", files["aalt"], "--json"],
        ["bounds", files["aalt"], "--set", "1,2", "--exact", "--json"],
        ["canonical", "--class", "flex", "--word", "(2 ((1 2) 1))",
         files["aflex"], "--set", "1,2", "--json"],
        ["search", files["aflex"], "--samples", "10", "--set-size", "2",
         "--seed", "0", "--json"],
    ]


def test_criterion_10_determinism(tmp_path, capsys):
    with criterion(10, "byte-identical JSON across two runs"):
        outputs = []
        for _ in range(2):
            chunks = []
            for argv in _suite_invocations(tmp_path):
                assert main(argv) == 0, argv
                chunks.append(capsys.readouterr().out)
                json.loads(chunks[-1])  # must be valid JSON
            outputs.append("".join(chunks))
        assert outputs[0] == outputs[1]
        assert outputs[0].encode() == outputs[1].encode()
