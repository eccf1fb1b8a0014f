import json

import pytest

from alglen import examples
from alglen.errors import ParseError
from alglen.field import PrimeField
from alglen.io_cli import build_example, main, parse_algebra, print_algebra, resolve_set

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
    assert algebra.multiply(a, a) == a


@pytest.mark.parametrize("name", sorted(examples.registry(include_heavy=True)))
def test_roundtrip_examples(name):
    algebra = examples.registry(include_heavy=True)[name]
    again = parse_algebra(print_algebra(algebra))
    assert again.field == algebra.field
    assert again.dim == algebra.dim
    assert again.sc == algebra.sc
    assert again.unity == algebra.unity
    assert again.labels == algebra.labels
    assert print_algebra(again) == print_algebra(algebra)


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
    # declared unity must actually act as the identity
    bad = "field rational\ndim 2\nunital 1\nmul 1 1 1 1\n"
    with pytest.raises(ParseError):
        parse_algebra(bad)


def test_unity_vector_form():
    m2 = examples.make_matrix_algebra(2)
    text = print_algebra(m2)
    assert "unital vec 1 0 0 1" in text
    assert parse_algebra(text).unity == m2.unity


def test_resolve_set(z2n2, tmp_path):
    gens = resolve_set(z2n2, "basis", None)
    assert len(gens) == 4
    gens = resolve_set(z2n2, "2,3", None)
    assert gens.elements == (z2n2.basis_element(2), z2n2.basis_element(3))
    path = tmp_path / "set.txt"
    path.write_text("1 0 0 0\n0 1 1 0  # a sum\n")
    gens = resolve_set(z2n2, None, str(path))
    assert len(gens) == 2 and gens.elements[1] == (0, 1, 1, 0)


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
    # mixing mode refused: no mixing or sliding identity verifies here
    code = main(["diffseq", path, "--set", "1,2,3", "--mode", "mixing"])
    assert code == 2
    capsys.readouterr()


def test_cli_exact_length_and_bounds(tmp_path, capsys):
    path = str(tmp_path / "aalt2.alg")
    _run(capsys, "gen", "aalt", "--field", "gf:2", "-o", path)
    code, out = _run(capsys, "exact-length", path)
    assert code == 0 and "l(A) = 3" in out
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


def test_cli_canonical_verify(tmp_path, capsys):
    path = str(tmp_path / "aalt.alg")
    _run(capsys, "gen", "aalt", "-o", path)
    code, out = _run(capsys, "canonical", "--class", "alt",
                     "--word", "(4 ((1 2) 3))")
    assert code == 0 and "-((1 2) (4 3))" in out
    code, out = _run(capsys, "canonical", "--class", "alt",
                     "--word", "(1 (2 1))", path, "--set", "1,2")
    assert code == 0 and "numeric equivalence" in out and "True" in out


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
    bad = tmp_path / "bad.alg"
    bad.write_text("field gf 4\ndim 1\nunital none\n")
    code = main(["length", str(bad)])
    assert code == 2
    capsys.readouterr()


def test_cli_json_deterministic(tmp_path, capsys):
    path = str(tmp_path / "aalt2.alg")
    _run(capsys, "gen", "aalt", "--field", "gf:2", "-o", path)
    outs = []
    for threads in ("1", "8"):
        code, out = _run(capsys, "exact-length", path, "--json",
                         "--threads", threads)
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


def test_find_unity_solver(z2n2, aflex):
    from alglen.algebra import find_unity
    assert find_unity(z2n2) == z2n2.unity
    assert find_unity(aflex) is None
    m2 = examples.make_matrix_algebra(2)
    assert find_unity(m2) == m2.unity


def test_duplicate_set_warning(z2n2, tmp_path, capsys):
    path = str(tmp_path / "z2n2.alg")
    _run(capsys, "gen", "z2n:2", "-o", path)
    code = main(["length", path, "--set", "2,2"])
    captured = capsys.readouterr()
    assert code == 0
    assert "duplicate" in captured.err
