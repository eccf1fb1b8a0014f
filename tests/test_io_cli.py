import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import alglen.algebra
from alglen import examples, identities, io_cli
from alglen.algebra import Algebra, make_algebra
from alglen.errors import ParseError
from alglen.field import PrimeField, Rationals
from alglen.io_cli import build_example, main, parse_algebra, print_algebra, resolve_set
from alglen.spans import find_unity

MINIMAL = """\
field gf 2
dim 1
unital none
mul 1 1 1 1
"""


def test_parse_minimal():
    algebra = parse_algebra(MINIMAL)
    assert algebra.dim == 1 and algebra.field == PrimeField(2)
    a = algebra.basis_element(1)
    assert oracles.multiply(algebra, a, a) == a


@pytest.mark.parametrize("name", sorted(oracles.EXAMPLES))
def test_roundtrip_examples(name):
    algebra = build_example(oracles.EXAMPLES[name])
    again = parse_algebra(print_algebra(algebra))
    assert again.field == algebra.field
    assert again.dim == algebra.dim
    assert again.sc == algebra.sc
    assert again.unity == algebra.unity
    assert again.labels == algebra.labels
    assert print_algebra(again) == print_algebra(algebra)


def test_print_algebra_reads_the_unity_without_building_basis_vectors(monkeypatch):
    # one pass over the unity's coordinates, not one basis vector per index
    spin = build_example("spin:300")
    matrix = build_example("matrix:2")
    f = Rationals()
    scaled = make_algebra(f, 2, {}, unity=(0, 2))
    second = make_algebra(f, 2, {}, unity=(0, 1))
    built = []
    basis_element = Algebra.basis_element
    monkeypatch.setattr(Algebra, "basis_element",
                        lambda self, i: built.append(i) or basis_element(self, i))
    assert "\nunital 1\n" in print_algebra(spin)
    assert "\nunital vec 1 0 0 1\n" in print_algebra(matrix)
    assert "\nunital vec 0 2\n" in print_algebra(scaled)
    assert "\nunital 2\n" in print_algebra(second)
    assert built == []


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_algebra("field gf 4\ndim 1\nunital none\n")
    with pytest.raises(ParseError):
        parse_algebra("field rational\ndim 2\nunital none\nmul 1 3 1 1\n")
    with pytest.raises(ParseError):
        parse_algebra("field rational\ndim 1\nunital none\n"
                      "mul 1 1 1 1\nmul 1 1 1 2\n")
    with pytest.raises(ParseError):
        parse_algebra("field rational\ndim 1\nunital none\nfrobnicate 1\n")
    with pytest.raises(ParseError):
        parse_algebra("field rational\ndim 1\nmul 1 1 1 1\n")  # no unital line
    # a repeated label would print two basis elements alike
    with pytest.raises(ParseError, match="line 4: duplicate label 'x'"):
        parse_algebra("field rational\ndim 2\nunital none\nlabels x x\n")
    # declared unity must actually act as the identity
    bad = "field rational\ndim 2\nunital 1\nmul 1 1 1 1\n"
    with pytest.raises(ParseError):
        parse_algebra(bad)
    # a bad unity scalar or labels length names its line, as a bad mul scalar does
    for text, line in (("field rational\ndim 2\nunital vec 1/0 0\n", 3),
                       ("field gf 3\ndim 2\nunital vec 1/3 0\n", 3),
                       ("field rational\ndim 2\nunital vec 1 x\n", 3),
                       ("field rational\ndim 2\nunital none\nlabels x\n", 4)):
        with pytest.raises(ParseError, match=f"^line {line}: "):
            parse_algebra(text)


def test_unity_vector_form():
    m2 = examples.make_matrix_algebra(2)
    text = print_algebra(m2)
    assert "unital vec 1 0 0 1" in text
    assert parse_algebra(text).unity == m2.unity


def test_resolve_set(z2n2, tmp_path):
    gens = resolve_set(z2n2, "basis", None)
    assert len(gens) == 4
    gens = resolve_set(z2n2, "2,3", None)
    assert gens == (z2n2.basis_element(2), z2n2.basis_element(3))
    path = tmp_path / "set.txt"
    path.write_text("1 0 0 0\n0 1 1 0  # a sum\n")
    gens = resolve_set(z2n2, None, str(path))
    assert gens == ((1, 0, 0, 0), (0, 1, 1, 0))


def test_build_example_names():
    assert build_example("z2n:2").dim == 4
    assert build_example("spin:3").dim == 4
    assert build_example("matrix:2").dim == 4
    assert build_example("hull:aflex").dim == 6
    assert build_example("cd:1:-1").dim == 2
    assert build_example("aalt", "gf:3").field == PrimeField(3)
    with pytest.raises(ParseError):
        build_example("mystery")


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one main call, a usage error's exit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def test_cli_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    # one parser serves every main call of a process; a usage error between
    # two runs of a subcommand must leave it as a fresh parser would be, with
    # the second run's defaults (--seed 0) not taken from the first
    path = str(tmp_path / "aflex.alg")
    _run(capsys, "gen", "aflex", "--field", "gf:3", "-o", path)
    argvs = (["classify", path, "--seed", "1", "--samples", "2", "--json"],
             ["classify", path, "--samples", "two"],
             ["classify", path, "--samples", "3", "--json"])
    fresh = []
    for argv in argvs:
        io_cli._parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert [code for code, *_ in fresh] == [0, 2, 0]
    assert "invalid int value: 'two'" in fresh[1][2]

    built = []
    build_parser = io_cli.build_parser
    monkeypatch.setattr(io_cli, "build_parser", lambda: built.append(1) or build_parser())
    io_cli._parser.cache_clear()
    assert [_outcome(capsys, argv) for argv in argvs] == fresh
    assert len(built) == 1


def test_cli_gen_length_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "z2n3.alg")
    code, _ = _run(capsys, "gen", "z2n:3", "-o", path)
    assert code == 0
    code, out = _run(capsys, "length", path, "--set", "2,3,5")
    assert code == 0 and "l(S) = 3" in out


def test_cli_classify_json(tmp_path, capsys):
    path = str(tmp_path / "aflex.alg")
    _run(capsys, "gen", "aflex", "-o", path)
    code, out = _run(capsys, "classify", path, "--json", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    verdicts = payload["classification"]["verdicts"]
    assert verdicts["descendingly_flexible"]["kind"] == "holds-randomized"
    assert verdicts["descendingly_alternative"]["kind"] == "fails"


def test_cli_diffseq_mode_enforcement(tmp_path, capsys):
    path = str(tmp_path / "nonmix7.alg")
    _run(capsys, "gen", "nonmix7", "-o", path)
    code, out = _run(capsys, "diffseq", path, "--set", "1,2,3")
    assert code == 0 and "closure-criterion" in out
    # the closure criterion is the only stopping rule: no option selects another
    for argv in (["diffseq", path, "--set", "1,2,3", "--mode", "mixing"],
                 ["exact-length", path, "--mode", "auto"],
                 ["exact-length", path, "--threads", "2"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2, argv
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_cli_exact_length_and_bounds(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "aalt2.alg")
    _run(capsys, "gen", "aalt", "--field", "gf:2", "-o", path)
    # the sweep rests on the closure criterion alone, never on an identity check
    calls = []
    original = identities._walk

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(identities, "_walk", counted)
    code, out = _run(capsys, "exact-length", path)
    assert code == 0 and "l(A) = 3" in out
    assert calls == []
    code, out = _run(capsys, "bounds", path, "--set", "1,2", "--exact")
    assert code == 0
    assert "FAIL" not in out and "alt-min-dim" in out


def test_cli_exact_length_budget(tmp_path, capsys):
    # z2n:2 is unital of dim 4 over GF(2): the sweep enumerates the 16
    # subspaces of GF(2)^3, not the 67 of GF(2)^4
    path = str(tmp_path / "z2n2.alg")
    _run(capsys, "gen", "z2n:2", "-o", path)
    code, out = _run(capsys, "exact-length", path, "--budget", "20")
    assert code == 0 and "l(A) = 2" in out
    code = main(["exact-length", path, "--budget", "15"])
    captured = capsys.readouterr()
    assert code == 2
    assert "16 subspaces exceed budget 15" in captured.err


def test_product_kernel_is_built_only_where_a_product_is_made(tmp_path, capsys, monkeypatch):
    built = []
    compile_product = alglen.algebra._compile_product
    monkeypatch.setattr(alglen.algebra, "_compile_product",
                        lambda table: built.append(len(table)) or compile_product(table))
    # gen only prints the constants, even of a unital algebra
    assert _run(capsys, "gen", "spin:300", "-o", str(tmp_path / "spin.alg"))[0] == 0
    path = str(tmp_path / "aflex3.alg")
    assert _run(capsys, "gen", "aflex", "--field", "gf:3", "-o", path)[0] == 0
    assert built == []
    # a budget refusal comes before any product (this file declares no
    # unity, which parse_algebra would check by multiplying)
    code = main(["exact-length", path, "--budget", "15"])
    assert code == 2 and "exceed budget 15" in capsys.readouterr().err
    assert built == []
    # a job that multiplies compiles the kernel once
    code, out = _run(capsys, "exact-length", path)
    assert code == 0 and "l(A) = 3" in out
    assert built == [5]


def test_cli_exact_length_budget_refuses_a_large_dimension_at_once(tmp_path, capsys):
    # GF(2)^2000 has at least 2^1999 subspaces, far past the default budget:
    # refused from the dimension alone, without counting or printing them.
    # GF(2)^21 is still counted, but its count is too long to print
    for dim, message in ((2000, "at least 2^1999"), (21, "over 2^64")):
        path = tmp_path / f"big{dim}.alg"
        path.write_text(f"field gf 2\ndim {dim}\nunital none\n")
        start = time.perf_counter()
        code = main(["exact-length", str(path)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message} subspaces exceed budget 2000000\n"
        assert elapsed < 1.0


def test_a_dimension_above_the_limit_is_refused_at_its_line(tmp_path, capsys, monkeypatch):
    # a dim of a million would compile product kernels of some 7 GB: every
    # dim above the limit is refused at its line, before any algebra is built
    def make_algebra(*args, **kwargs):
        raise AssertionError("an algebra was built past the dim limit")

    monkeypatch.setattr(io_cli, "make_algebra", make_algebra)
    path = tmp_path / "huge.alg"
    for dim in (io_cli.MAX_DIM + 1, 10**6, 10**20):
        path.write_text(f"field gf 2\ndim {dim}\nunital none\n")
        for argv in (["length", str(path), "--set", "1"], ["classify", str(path)]):
            assert _outcome(capsys, argv) == (
                2, "", f"error: line 2: dim {dim} exceeds the limit 10000\n"), argv


def test_gen_refuses_a_spin_factor_above_the_dim_limit(tmp_path, capsys, monkeypatch):
    # spin:<n> has dim n + 1; above the limit gen exits 2 before it builds
    # anything, and at the limit it reaches the constructor
    def make_spin_factor(n, field):
        raise AssertionError(f"spin:{n} was built")

    monkeypatch.setattr(examples, "make_spin_factor", make_spin_factor)
    path = str(tmp_path / "spin.alg")
    for n in (io_cli.MAX_DIM, 200_000, 10**20):
        assert _outcome(capsys, ["gen", f"spin:{n}", "-o", path]) == (
            2, "", f"error: spin:{n} has dim {n + 1}, which exceeds the limit 10000\n"), n
    with pytest.raises(AssertionError, match="spin:9999 was built"):
        main(["gen", "spin:9999", "-o", path])
    assert not (tmp_path / "spin.alg").exists()


def test_cli_exact_length_skips_a_character_search_past_the_budget(tmp_path, capsys):
    # unital of dim 3 over GF(10007), b1 = e and b2 b3 = e: the sweep visits
    # only 10,010 subspaces, but a character search would try 10007^2
    # functionals, more than the budget, so the sweep runs without it
    path = tmp_path / "gf10007.alg"
    path.write_text("field gf 10007\ndim 3\nunital 1\n"
                    + "".join(f"mul {i} {j} {k} 1\n" for i, j, k in
                              ((1, 1, 1), (1, 2, 2), (2, 1, 2), (1, 3, 3), (3, 1, 3), (2, 3, 1))))
    start = time.perf_counter()
    code, out = _run(capsys, "exact-length", str(path))
    assert code == 0 and "l(A) = 1" in out
    assert time.perf_counter() - start < 10.0


def test_cli_max_level_caps_general_mode(tmp_path, capsys):
    # exact-length honours --max-level like length does: aalt over GF(2)
    # needs more than one level, so both exit 2 with the same message; the
    # sweep takes levels 0 to 2 from its basis prefixes, and caps 0 and 2
    # still raise as the ladder from scratch does
    path = str(tmp_path / "aalt2.alg")
    _run(capsys, "gen", "aalt", "--field", "gf:2", "-o", path)
    for argv, cap in ((["length", path, "--set", "1,2", "--max-level", "1"], 1),
                      (["exact-length", path, "--max-level", "1"], 1),
                      (["exact-length", path, "--max-level", "0"], 0),
                      (["exact-length", path, "--max-level", "2"], 2)):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert f"span ladder exceeded {cap} levels" in captured.err, argv
    code, out = _run(capsys, "exact-length", path, "--max-level", "3")
    assert code == 0 and "l(A) = 3" in out


def test_cli_bounds_exact_checks_mixing_once(tmp_path, capsys, monkeypatch):
    # the exact sweep adds no identity check to the ones classify runs
    path = str(tmp_path / "aalt2.alg")
    _run(capsys, "gen", "aalt", "--field", "gf:2", "-o", path)
    argv = ("bounds", path, "--set", "1,2", "--exact", "--json")
    code, plain = _run(capsys, *argv)
    assert code == 0
    # every check runs through the one walk, which decides every class at once
    calls = []
    original = identities._walk

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(identities, "_walk", counted)
    code, out = _run(capsys, *argv)
    assert code == 0 and len(calls) == 1
    assert out == plain
    payload = json.loads(out)
    assert payload["exact_length"] == 3 and payload["audit"]["all_passed"]
    assert payload["classification"]["verdicts"]["mixing"]["kind"] == "holds-randomized"


def test_cli_canonical_verify(tmp_path, capsys):
    path = str(tmp_path / "aalt.alg")
    _run(capsys, "gen", "aalt", "-o", path)
    code, out = _run(capsys, "canonical", "--class", "alt",
                     "--word", "(4 ((1 2) 3))")
    assert code == 0 and "-((1 2) (4 3))" in out
    code, out = _run(capsys, "canonical", "--class", "alt",
                     "--word", "(1 (2 1))", path, "--set", "1,2")
    assert code == 0 and "numeric equivalence" in out and "True" in out


# b_i b_i = b_(i+1) over Q in dim 8: the ladder of {b1} adds b_(j+1) at
# level 2^j and nothing at the levels between, so l({b1}) = 128
SQUARING_CHAIN = "field rational\ndim 8\nunital none\n" + "".join(
    f"mul {i} {i} {i + 1} 1\n" for i in range(1, 8))


def test_cli_canonical_verify_grows_only_the_levels_it_reads(tmp_path, capsys):
    # verifying a word of length 3 needs only Lin_2, not the 128 levels of
    # the whole ladder, which the default level cap of 64 would refuse
    path = tmp_path / "sq8.alg"
    path.write_text(SQUARING_CHAIN)
    code, out = _run(capsys, "canonical", "--class", "flex", "--word", "((1 1) 1)",
                     str(path), "--set", "1")
    assert code == 0 and f"numeric equivalence in {path}: True" in out


def test_cli_long_ladder_with_gaps(tmp_path, capsys, monkeypatch):
    # the closure check runs only at the levels that add nothing, over the
    # levels that added something, so 120 empty levels cost few products
    path = tmp_path / "sq8.alg"
    path.write_text(SQUARING_CHAIN)
    products = []
    compile_product = alglen.algebra._compile_product

    def counting(table):
        kernel = compile_product(table)
        return lambda u, v: products.append(1) or kernel(u, v)

    monkeypatch.setattr(alglen.algebra, "_compile_product", counting)
    code, out = _run(capsys, "diffseq", str(path), "--set", "1", "--max-level", "200", "--json")
    sequence = json.loads(out)["sequence"]
    assert code == 0 and sequence["length_of_set"] == 128 and sequence["generating"]
    assert [k for k, d in enumerate(sequence["d"]) if d] == [2 ** j for j in range(8)]
    assert set(sequence["d"]) == {0, 1}
    assert len(products) <= 197
    code, out, err = _outcome(capsys, ["diffseq", str(path), "--set", "1"])
    assert code == 2 and "span ladder exceeded 64 levels" in err


def test_cli_search(tmp_path, capsys):
    path = str(tmp_path / "aflex.alg")
    _run(capsys, "gen", "aflex", "-o", path)
    code, out = _run(capsys, "search", path, "--samples", "20", "--set-size", "2")
    assert code == 0
    assert "l(A) >=" in out or "no generating set" in out


def test_cli_usage_errors(tmp_path, capsys):
    code = main(["length", str(tmp_path / "missing.alg")])
    assert code == 2
    capsys.readouterr()
    # a composite modulus, and one of 31 digits, which is refused at once
    # since primality is decided exactly only below 2^64
    bad = tmp_path / "bad.alg"
    for modulus in ("4", "1000000000000000000000000000057"):
        bad.write_text(f"field gf {modulus}\ndim 1\nunital none\n")
        start = time.perf_counter()
        code = main(["length", str(bad)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
    # malformed integers in arguments: a message, not a traceback
    good = str(tmp_path / "aflex.alg")
    _run(capsys, "gen", "aflex", "-o", good)
    for argv in (["length", good, "--set", "1,x"],
                 ["gen", "aflex", "--field", "gf:x"],
                 ["gen", "z2n:x"],
                 # z2n:<n> is a group algebra over GF(2) only
                 ["gen", "z2n:2", "--field", "rational"],
                 ["gen", "z2n:2", "--field", "gf:3"],
                 ["gen", "cd:"],
                 # sample counts and set sizes below 1
                 ["classify", good, "--samples", "0"],
                 ["classify", good, "--samples", "-3"],
                 ["bounds", good, "--set", "1,2", "--samples", "0"],
                 ["search", good, "--set-size", "-2"],
                 ["search", good, "--samples", "0"],
                 # an exact length needs a prime field, aflex here is over Q
                 ["bounds", good, "--set", "1,2", "--exact"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.err.startswith("error: ") and captured.out == "", argv
    # negative caps are refused before any work, on every subcommand that
    # reads them (exact-length and search would fail later on this Q algebra)
    for flag, argv in (("--max-level", ["diffseq", good, "--set", "1,2"]),
                       ("--max-level", ["length", good, "--set", "1,2"]),
                       ("--max-level", ["exact-length", good]),
                       ("--max-level", ["bounds", good, "--set", "1,2"]),
                       ("--max-level", ["search", good]),
                       ("--budget", ["exact-length", good]),
                       ("--budget", ["bounds", good, "--set", "1,2", "--exact"])):
        code = main(argv + [flag, "-1"])
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.err == f"error: {flag} must be at least 0, got -1\n", argv
        assert captured.out == "", argv
    # a cap of 0 is valid: the unity alone has length 0
    z2n2 = str(tmp_path / "z2n2.alg")
    _run(capsys, "gen", "z2n:2", "-o", z2n2)
    assert _run(capsys, "length", z2n2, "--set", "1", "--max-level", "0") == (0, "l(S) = 0\n")
    # a sample count below 1 is refused before any work too, here before the
    # exact sweep that would run into its budget
    code = main(["bounds", z2n2, "--set", "1", "--exact", "--budget", "15", "--samples", "0"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: --samples must be at least 1, got 0\n"
    # --samples, --seed and --max-level only where they are read
    unread = [(["length", good, "--set", "1,2"], "--samples", "3"),
              (["infer-unity", good], "--samples", "0"),
              (["classify", good], "--max-level", "-7"),
              (["canonical", "--class", "flex", "--word", "(1 2)"], "--max-level", "1"),
              (["infer-unity", good], "--max-level", "1")]
    unread += [(argv, "--seed", "1")
               for argv in (["diffseq", good, "--set", "1,2"], ["length", good, "--set", "1,2"],
                            ["canonical", "--class", "flex", "--word", "(1 2)"],
                            ["infer-unity", good])]
    for argv, flag, value in unread:
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [flag, value])
        assert exit_info.value.code == 2, argv
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err, argv


# A valid file: a 2-dim algebra with unity b1 (b2 b2 = -b1), one line per key.
VALID_LINES = {"field": "field gf 3", "dim": "dim 2", "unital": "unital 1", "labels": "labels e i",
               "mul": "mul 1 1 1 1\nmul 1 2 2 1\nmul 2 1 2 1\nmul 2 2 1 -1"}
# tokens with no decimal digit: never an int, a modulus or a scalar
JUNK = st.text(alphabet="xyz\u00b2\u00bd./-", min_size=1, max_size=4)


@st.composite
def malformed_files(draw):
    """The valid file with one line malformed, dropped or repeated."""
    lines = dict(VALID_LINES)
    lines["field"] = draw(st.sampled_from(["field gf 3", "field rational"]))
    key = draw(st.sampled_from(["field", "dim", "unital", "labels", "mul", "drop", "extra"]))
    if key == "field":
        lines[key] = draw(st.sampled_from(
            ["field", "field gf", "field gf 4", "field gf 1", "field gf 0", "field gf -3",
             "field real", "field gf 3 5", "field rational 2", "field gf 3\nfield gf 3"])
            | JUNK.map("field gf {}".format))
    elif key == "dim":
        # dim 1 is well formed, but the mul lines index b2
        lines[key] = draw(st.sampled_from(["dim", "dim 0", "dim -1", "dim 1", "dim 2 2"])
                          | JUNK.map("dim {}".format))
    elif key == "unital":
        lines[key] = draw(st.sampled_from(
            ["unital", "unital 0", "unital 2", "unital 3", "unital vec 1",
             "unital vec 1 0 0", "unital vec 0 1", "unital vec 1/0 0"])
            | JUNK.map("unital {}".format) | JUNK.map("unital vec 1 {}".format))
    elif key == "labels":
        lines[key] = draw(st.sampled_from(["labels", "labels e", "labels e i j"]))
    elif key == "mul":
        terms = draw(st.permutations(["1", "2", "2", "1"]))
        at = draw(st.integers(0, 3))  # an index i, j or k, or the scalar
        bad = st.sampled_from(["0", "3", "-1"] if at < 3 else ["1/0", "0/0", "1/x"])
        terms[at] = draw(bad | JUNK)
        arity = draw(st.sampled_from([terms, terms[:3], terms + ["1"]]))
        lines[key] += "\nmul " + " ".join(arity)
    elif key == "drop":
        del lines[draw(st.sampled_from(["field", "dim", "unital"]))]
    else:
        lines[key] = draw(st.sampled_from(["frobnicate 1", "mul 1 1 1 1", "dim 2", "unital 1",
                                           "labels e i"]))
    return "\n".join(lines.values()) + "\n"


def assert_exits_2(argv):
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 2, argv
    assert err.getvalue().startswith("error: ") and out.getvalue() == "", argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    assert main(["gen", "aflex", "-o", str(path / "aflex.alg")]) == 0
    return path


@settings(max_examples=150, deadline=None)
@given(malformed_files(), st.sampled_from(["classify", "exact-length", "length"]))
def test_malformed_algebra_files_exit_2(fuzz_dir, text, command):
    path = fuzz_dir / "bad.alg"
    path.write_text(text, encoding="utf-8")
    assert_exits_2([command, str(path)])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 5).map(str), max_size=2), st.integers(0, 2),
       st.integers(-3, 0) | st.integers(6, 10**6) | JUNK,
       st.sampled_from(["length", "diffseq"]))
def test_malformed_set_specs_exit_2(fuzz_dir, good, at, bad, command):
    # aflex has dim 5: an index outside 1..5 or a junk token anywhere in the list
    indices = good[:at] + [str(bad)] + good[at:]
    assert_exits_2([command, str(fuzz_dir / "aflex.alg"), "--set=" + ",".join(indices)])


EMPTY_SET_FILES = {"empty.set": "", "comments.set": "# no element\n\n   # here either\n"}


@pytest.mark.parametrize("spec", ["", ",", " ", " , ,", *EMPTY_SET_FILES])
@pytest.mark.parametrize("command", ["length", "diffseq", "bounds"])
def test_empty_set_specs_exit_2(fuzz_dir, spec, command):
    # a spec that names no basis index, or a --set-file that names no
    # element, is refused, not read as the empty set
    if spec in EMPTY_SET_FILES:
        path = fuzz_dir / spec
        path.write_text(EMPTY_SET_FILES[spec], encoding="utf-8")
        option = f"--set-file={path}"
    else:
        option = "--set=" + spec
    assert_exits_2([command, str(fuzz_dir / "aflex.alg"), option])


@pytest.mark.parametrize("line", ["0 1/0 0 0 0", "0 x 0 0 0", "0 1 0 0"])
@pytest.mark.parametrize("command", ["length", "diffseq", "bounds"])
def test_bad_set_file_lines_name_the_file_and_line(fuzz_dir, capsys, command, line):
    # a bad scalar, a zero denominator or a wrong coordinate count in a set
    # file is reported as parse_algebra reports one in an algebra file
    path = fuzz_dir / "bad.set"
    path.write_text(f"1 0 0 0 0\n{line}\n", encoding="utf-8")
    code = main([command, str(fuzz_dir / "aflex.alg"), f"--set-file={path}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: line 2: ")
    assert f"in set file {str(path)!r}" in captured.err


@pytest.mark.parametrize("command, option", [
    ("classify", None), ("exact-length", None), ("length", None),
    ("length", "--set-file"), ("diffseq", "--set-file"), ("bounds", "--set-file")])
def test_files_that_are_not_utf8_exit_2(fuzz_dir, capsys, command, option):
    # a byte that is not UTF-8 on line 2 of an algebra or set file is a parse
    # error naming the file and the line, not a decoding traceback
    good = fuzz_dir / "aflex.alg"
    if option is None:
        path = fuzz_dir / "latin1.alg"
        path.write_bytes(good.read_bytes().replace(b"\n", b"\n# caf\xe9\n", 1))
        argv = [command, str(path)]
    else:
        path = fuzz_dir / "latin1.set"
        path.write_bytes(b"1 0 0 0 0\n0 1 0 0 0 # caf\xe9\n")
        argv = [command, str(good), f"{option}={path}"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: line 2: ")
    assert f"{str(path)!r} is not UTF-8 text" in captured.err


@pytest.mark.parametrize("command", ["diffseq", "length", "bounds", "canonical"])
def test_set_and_set_file_together_are_a_usage_error(fuzz_dir, capsys, command):
    # one generator set per run: naming both is refused, not one of them dropped
    path = fuzz_dir / "one.set"
    path.write_text("1 0 0 0 0\n", encoding="utf-8")
    argv = [command, str(fuzz_dir / "aflex.alg"), "--set", "1,2", "--set-file", str(path)]
    if command == "canonical":
        argv[1:1] = ["--class", "flex", "--word", "((1 2) 1)"]
    code, out, err = _outcome(capsys, argv)
    assert (code, out) == (2, "")
    assert "argument --set-file: not allowed with argument --set" in err


@pytest.mark.parametrize("argv, text, expected", [
    (["length"], "field rational\ndim 2\nunital vec 1\n",
     (2, "", "error: line 3: unity vector has wrong length\n")),
    (["length"], "field rational\ndim 1\nunital none\nmul 1 1 1 1/x\n",
     (2, "", "error: line 4: bad scalar '1/x'\n")),
    (["gen", "aflex", "--field", "gf3"], None,
     (2, "", "error: bad field spec 'gf3'; use rational or gf:<p>\n")),
    (["gen", "spin:0"], None, (2, "", "error: n must be >= 1\n")),
    (["gen", "cd:2:-1"], None, (2, "", "error: need exactly 2 gamma parameters\n")),
    (["canonical", "--class", "flex", "--word", "(1 2 3)"], None,
     (2, "", "error: expected ')' in word '(1 2 3)'\n")),
    (["infer-unity"], "field rational\ndim 3\nunital none\n"
     "mul 1 1 1 1\nmul 1 2 2 1\nmul 1 3 3 1\nmul 2 1 2 1\nmul 2 2 1 1\nmul 3 1 3 1\nmul 3 3 1 1\n",
     (0, "no unity declared\nidentity element exists: b1\n"
         "note: diagnostics only; declare it in the file to use it\n", "")),
], ids=["unity-length", "denominator", "field-spec", "spin-size", "cd-gammas", "word",
        "undeclared-unity"])
def test_messages_of_rarely_taken_paths(tmp_path, capsys, argv, text, expected):
    # a wrong unity length, a bad denominator, a bad field spec, bad example
    # parameters, a word with three factors, and an identity element that the
    # file (spin:2 with unital none) does not declare
    if text is not None:
        path = tmp_path / "case.alg"
        path.write_text(text, encoding="utf-8")
        argv = argv + [str(path)]
    assert _outcome(capsys, argv) == expected


@pytest.mark.parametrize("sep", ["\f", "\x85", "\u2028"])
def test_only_a_newline_ends_a_line_of_an_algebra_file(fuzz_dir, capsys, sep):
    # a form feed, U+0085 or U+2028 in a comment stays in the comment, as it
    # does in a set file; files are read in text mode, so "\r\n" and "\r"
    # end a line as "\n" does
    path = fuzz_dir / "breaks.alg"
    for end in ("\n", "\r\n", "\r"):
        text = f"field gf 3\ndim 2\n# note{sep}continued\nunital none\nmul 1 1 2 1\n"
        path.write_bytes(text.replace("\n", end).encode("utf-8"))
        assert main(["classify", str(path)]) == 0
        assert capsys.readouterr().err == ""
    text = f"field gf 3\ndim 2\nunital none\n# x{sep}y\nmul 1 1 1 1\nmul 1 1 1 2\n"
    path.write_text(text, encoding="utf-8")
    assert main(["exact-length", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: line 6: duplicate product entry (1,1,1); first at line 5\n"


def test_bounds_refuses_a_bad_set_before_classify(fuzz_dir, monkeypatch):
    def classify(*args, **kwargs):
        raise AssertionError("classify ran before --set was checked")

    monkeypatch.setattr(identities, "classify", classify)
    for spec in ("99", "1,x", ""):
        assert_exits_2(["bounds", str(fuzz_dir / "aflex.alg"), "--set", spec])


def _nested(depth, inner="1"):
    for _ in range(depth):
        inner = f"(2 {inner})"
    return inner


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="() 120\u00b2\u00b9x-", max_size=24)
       | st.integers(200, 1_200).map(_nested)
       | st.integers(200, 1_200).map(lambda d: _nested(d, "x"))
       | st.integers(200, 1_200).map("(".__mul__),
       st.sampled_from(["alt", "flex"]))
def test_canonical_words_never_traceback(word, variant):
    # any --word either gets a canonical form (exit 0) or exits 2 with error:
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(["canonical", "--class", variant, "--word=" + word, "--json"])
    if code == 0:
        assert json.loads(out.getvalue())["variant"] == variant
    else:
        assert code == 2 and err.getvalue().startswith("error: ") and out.getvalue() == ""


def test_canonical_refuses_non_ascii_digits_and_deep_words():
    for word in ("(1 \u00b2)", _nested(1_000), _nested(1_000, "x")):
        assert_exits_2(["canonical", "--class", "flex", "--word", word])


GOLDEN_JSON = Path(__file__).parent / "golden" / "cli_json.json"


def test_classify_json_matches_the_golden_outputs(tmp_path, monkeypatch):
    # --json of the seven classify-q jobs, classify(matrix:4) over Q and
    # classify(cd:4:-1,-1,-1,-1) over GF(3) at seed 0, as recorded before the
    # class checks shared one walk of the basis tuples
    monkeypatch.chdir(tmp_path)
    for job in json.loads(GOLDEN_JSON.read_text(encoding="utf-8")):
        path = job["argv"][1]
        if not Path(path).exists():
            assert main(["gen", job["example"], "--field", job["field"], "-o", path]) == 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(job["argv"])
        assert (code, out.getvalue()) == (job["exit"], job["stdout"]), job["argv"]


GOLDEN_EXACT_JSON = Path(__file__).parent / "golden" / "exact_length_json.json"


def test_exact_length_json_matches_the_golden_outputs(tmp_path, monkeypatch):
    # --json of exact-length on the six exact-gf jobs, z2n:2, z2n:3, nonmix7,
    # hull:nonmix7 and chain3 over GF(2), nilpotent3 over GF(3), where the
    # pre-test is exact, and on matrix:2 over GF(2) and spin:2 over GF(3),
    # where it is not; recorded before the sweep's ladders dropped their
    # closure checks and the echelon rows their back-substitution
    monkeypatch.chdir(tmp_path)
    jobs = json.loads(GOLDEN_EXACT_JSON.read_text(encoding="utf-8"))
    assert len(jobs) == 14
    for job in jobs:
        path = job["argv"][1]
        assert main(["gen", job["example"], "--field", job["field"], "-o", path]) == 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(job["argv"])
        assert (code, out.getvalue()) == (job["exit"], job["stdout"]), job["argv"]


GOLDEN_BOUNDS_JSON = Path(__file__).parent / "golden" / "bounds_json.json"


def test_bounds_matches_the_golden_outputs(tmp_path, monkeypatch):
    # text and --json of bounds: the surviving-word entries of aflex over Q,
    # GF(2) and GF(3) and of hull:aflex with two sets, the alternative aalt,
    # spin:2, cd:2 and --exact over GF(2) and GF(3); recorded before the
    # audit took one generator set
    monkeypatch.chdir(tmp_path)
    jobs = json.loads(GOLDEN_BOUNDS_JSON.read_text(encoding="utf-8"))
    assert len(jobs) == 13
    for job in jobs:
        path = job["argv"][1]
        if not Path(path).exists():
            assert main(["gen", job["example"], "--field", job["field"], "-o", path]) == 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(job["argv"])
        assert (code, out.getvalue()) == (job["exit"], job["stdout"]), job["argv"]


GOLDEN_LADDER_JSON = Path(__file__).parent / "golden" / "ladder_json.json"


def test_ladder_json_matches_the_golden_outputs(tmp_path, monkeypatch):
    # --json of the closure-checked ladder: diffseq and length with --set
    # 1,2, basis and a set file of fractional vectors on aflex, aalt,
    # cd:3:-1,-1,-1 and spin:3 over Q and aflex over GF(3), and the four
    # search-ladder jobs at seed 0; recorded before the echelon routine's
    # row operations were compiled per row length
    monkeypatch.chdir(tmp_path)
    jobs = json.loads(GOLDEN_LADDER_JSON.read_text(encoding="utf-8"))
    assert len(jobs) == 34
    for job in jobs:
        path = job["argv"][1]
        if not Path(path).exists():
            assert main(["gen", job["example"], "--field", job["field"], "-o", path]) == 0
        if "set_file" in job:
            Path(job["argv"][3]).write_text(job["set_file"], encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(job["argv"])
        assert (code, out.getvalue()) == (job["exit"], job["stdout"]), job["argv"]


def test_cli_json_deterministic(tmp_path, capsys):
    path = str(tmp_path / "aalt2.alg")
    _run(capsys, "gen", "aalt", "--field", "gf:2", "-o", path)
    outs = []
    for _ in range(2):
        code, out = _run(capsys, "exact-length", path, "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_infer_unity_diagnostic(tmp_path, capsys):
    path = str(tmp_path / "aflex.alg")
    _run(capsys, "gen", "aflex", "-o", path)
    code, out = _run(capsys, "infer-unity", path)
    assert code == 0 and "no identity element exists" in out
    path = str(tmp_path / "z2n2.alg")
    _run(capsys, "gen", "z2n:2", "-o", path)
    code, out = _run(capsys, "infer-unity", path)
    assert code == 0 and "identity element exists" in out
    # the diagnostic flags a declaration that disagrees with the solved one
    hull = str(tmp_path / "hull.alg")
    _run(capsys, "gen", "hull:aflex", "-o", hull)
    code, out = _run(capsys, "infer-unity", hull)
    assert code == 0 and "identity element exists: e" in out


def _identity_elements(algebra):
    """Every two-sided identity of an algebra over GF(p), by trying all p^n vectors."""
    basis = [algebra.basis_element(i) for i in range(1, algebra.dim + 1)]
    return [e for e in product(range(algebra.field.p), repeat=algebra.dim)
            if all(oracles.multiply(algebra, e, b) == b == oracles.multiply(algebra, b, e)
                   for b in basis)]


def test_find_unity_solver(z2n2, aflex):
    assert find_unity(z2n2) == z2n2.unity
    assert find_unity(aflex) is None
    m2 = examples.make_matrix_algebra(2)
    assert find_unity(m2) == m2.unity
    # every small example over GF(2) and GF(3): its printed file is reread
    # with the field line replaced, since z2n:<n> is built over GF(2) only
    for name in sorted(oracles.EXAMPLES):
        text = print_algebra(build_example(oracles.EXAMPLES[name]))
        for p in (2, 3):
            algebra = parse_algebra(f"field gf {p}\n" + text.split("\n", 1)[1])
            if algebra.dim > 5:
                continue
            found = _identity_elements(algebra)
            assert len(found) <= 1
            assert find_unity(algebra) == (found[0] if found else None), (name, p)
            if algebra.unity is not None:
                assert find_unity(algebra) == algebra.unity, (name, p)


def _rescaled(algebra, lambdas):
    # the same algebra on the basis lambda_i b_i
    f = algebra.field
    products = {(i, j): [(k, f.div(f.mul(f.mul(lambdas[i - 1], lambdas[j - 1]), c),
                                   lambdas[k - 1])) for k, c in terms]
                for (i, j), terms in algebra.sc.items()}
    unity = [f.div(u, lam) for u, lam in zip(algebra.unity, lambdas)]
    return make_algebra(f, algebra.dim, products, unity=unity, labels=algebra.labels)


INFER_RESCALED_HULL = """{
  "algebra": PATH,
  "declared": "1/2*e",
  "identity_element": "1/2*e",
  "matches_declaration": true
}
"""


def test_fractional_unity_golden(tmp_path, capsys):
    # hull:aflex on the basis (2e, e1, e2, 3e3, e4, e5/2): the unity is e/2
    # and two structure constants are not integral.  The expected values are
    # the ones the all-Fraction engine gave.
    half = Fraction(1, 2)
    algebra = _rescaled(examples.make_unital_hull(examples.make_a_flex()),
                        [2, 1, 1, 3, 1, half])
    assert algebra.sc[(2, 3)] == ((4, Fraction(1, 3)),)
    assert algebra.sc[(3, 6)] == ((5, -half),)
    assert find_unity(algebra) == (half, 0, 0, 0, 0, 0)
    text = print_algebra(algebra)
    assert "unital vec 1/2 0 0 0 0 0" in text and "mul 2 3 4 1/3" in text
    path = tmp_path / "rescaled.alg"
    path.write_text(text)
    code, out = _run(capsys, "infer-unity", str(path), "--json")
    assert code == 0
    assert out == INFER_RESCALED_HULL.replace("PATH", json.dumps(str(path)))


def test_unity_check_keeps_both_denominators(tmp_path, capsys):
    # the rescaled hull above has D = 6 and its unity has denominator 2;
    # b1, twice the unity, multiplies every basis vector by 2 and is refused
    # on the first one, so a check that dropped D or the unity's denominator
    # would refuse the true unity, and one up to a scalar would take b1
    algebra = _rescaled(examples.make_unital_hull(examples.make_a_flex()),
                        [2, 1, 1, 3, 1, Fraction(1, 2)])
    assert algebra.product_table[1] == 6
    assert algebra.verify_unity() == (True, None)
    doubled = make_algebra(algebra.field, algebra.dim, dict(algebra.sc),
                           unity=algebra.basis_element(1), labels=algebra.labels)
    assert doubled.verify_unity() == (False, 1)
    text = print_algebra(algebra)
    assert parse_algebra(text) == algebra
    path = tmp_path / "doubled.alg"
    path.write_text(text.replace("unital vec 1/2 0 0 0 0 0", "unital vec 1 0 0 0 0 0"))
    assert main(["infer-unity", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: line 3: declared unity fails on basis vector 1\n"
    assert captured.out == ""


def test_duplicate_set_warning(z2n2, tmp_path, capsys):
    path = str(tmp_path / "z2n2.alg")
    _run(capsys, "gen", "z2n:2", "-o", path)
    code = main(["length", path, "--set", "2,2"])
    captured = capsys.readouterr()
    assert code == 0
    assert "duplicate" in captured.err


# A fresh interpreter runs one command and lists the modules that importing
# alglen and running the command added to those it had loaded.
LOADED_CHILD = """\
import contextlib, io, json, sys
before = set(sys.modules)
from alglen import io_cli
with contextlib.redirect_stdout(io.StringIO()):
    code = io_cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""

ENGINES = {"identities", "bounds", "canonical", "examples"}

# command: (its argv, FILE standing for an algebra file; modules it must load; must not)
LOADS = {
    "exact-length": (["exact-length", "FILE"], {"spans"}, ENGINES),
    "diffseq": (["diffseq", "FILE", "--set", "1,2"], {"spans"}, ENGINES),
    "length": (["length", "FILE", "--set", "1,2"], {"spans"}, ENGINES),
    "infer-unity": (["infer-unity", "FILE"], {"spans"}, ENGINES),
    "classify": (["classify", "FILE"], {"identities"}, {"canonical", "examples"}),
    "bounds": (["bounds", "FILE", "--set", "1,2"], {"identities", "bounds"}, {"examples"}),
    "gen": (["gen", "aflex"], {"examples"}, {"identities", "bounds", "canonical"}),
    "canonical": (["canonical", "--class", "flex", "--word", "((1 2) 3)"], {"canonical"},
                  {"identities", "bounds", "examples"}),
    "search": (["search", "FILE", "--set-size", "2", "--samples", "2"], {"identities"},
               {"bounds", "canonical", "examples"}),
}


def _loaded_modules(tmp_path, capsys, argv, field="gf:2") -> tuple:
    """(exit code, modules added) of a fresh interpreter that runs argv on aflex over the field."""
    path = str(tmp_path / "aflex.alg")
    _run(capsys, "gen", "aflex", "--field", field, "-o", path)
    argv = [path if arg == "FILE" else arg for arg in argv]
    src = str(Path(io_cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", LOADED_CHILD, json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    code, modules = json.loads(proc.stdout)
    return code, set(modules)


@pytest.mark.parametrize("command", sorted(LOADS))
def test_each_command_loads_only_the_engines_it_runs(tmp_path, capsys, command):
    argv, loaded, unloaded = LOADS[command]
    code, modules = _loaded_modules(tmp_path, capsys, argv)
    names = {m.removeprefix("alglen.") for m in modules if m.startswith("alglen.")}
    assert code == 0
    assert loaded <= names
    assert not names & unloaded


# stdlib modules that a command must not load over GF(p): dataclasses loads
# inspect, and fractions loads decimal; classify and bounds may build a Fraction
NO_FRACTIONS = {"dataclasses", "inspect", "fractions", "decimal"}
STDLIB_UNLOADED = {
    "exact-length": NO_FRACTIONS,
    "diffseq": NO_FRACTIONS,
    "length": NO_FRACTIONS,
    "infer-unity": NO_FRACTIONS,
    "classify": {"dataclasses", "inspect"},
    "bounds": {"dataclasses", "inspect"},
}


@pytest.mark.parametrize("command", sorted(STDLIB_UNLOADED))
def test_commands_over_gf_p_skip_slow_stdlib_imports(tmp_path, capsys, command):
    code, modules = _loaded_modules(tmp_path, capsys, LOADS[command][0])
    assert code == 0
    assert not modules & STDLIB_UNLOADED[command], sorted(modules)


# the standard-library modules that classify and bounds add over Q: argparse
# with gettext and locale, and fractions with decimal and numbers; the
# generated tuple checks load none
STDLIB_OVER_Q = {"__future__", "_decimal", "_locale", "argparse", "decimal", "fractions",
                 "gettext", "locale", "numbers"}


@pytest.mark.parametrize("command", ["bounds", "classify"])
def test_identity_commands_over_q_load_no_further_stdlib_modules(tmp_path, capsys, command):
    code, modules = _loaded_modules(tmp_path, capsys, LOADS[command][0], "rational")
    assert code == 0
    assert {m for m in modules if not m.startswith("alglen")} <= STDLIB_OVER_Q, sorted(modules)
