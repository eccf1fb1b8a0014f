import ast
import pickle
import random
import time
import traceback
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from alglen import algebra as algebra_module, examples
from alglen.algebra import Algebra, make_algebra
from alglen.errors import DimensionMismatch, IndexOutOfRange
from alglen.field import PrimeField, Rationals
from alglen.io_cli import build_example, parse_algebra, print_algebra


def test_group_algebra_products(z2n2):
    # e_(1,0) * e_(0,1) = e_(1,1): masks 1 and 2 give 3, i.e. indices 2,3 -> 4
    a, b = z2n2.basis_element(2), z2n2.basis_element(3)
    assert oracles.multiply(z2n2, a, b) == z2n2.basis_element(4)
    assert oracles.multiply(z2n2, a, a) == z2n2.basis_element(1)


def test_table_products(aflex, aalt):
    assert oracles.multiply(aflex, aflex.basis_element(1), aflex.basis_element(2)) \
        == aflex.basis_element(3)
    minus_e4 = oracles.scale(aflex, aflex.field.from_int(-1), aflex.basis_element(4))
    assert oracles.multiply(aflex, aflex.basis_element(2), aflex.basis_element(5)) == minus_e4
    assert oracles.multiply(aalt, aalt.basis_element(2), aalt.basis_element(1)) \
        == aalt.basis_element(3)
    for j in range(1, 6):
        assert not any(oracles.multiply(aflex, aflex.basis_element(3), aflex.basis_element(j)))


def test_bilinearity(aflex):
    rng = random.Random(7)
    f = aflex.field

    def rand():
        return tuple(f.from_int(rng.randint(-3, 3)) for _ in range(aflex.dim))

    for _ in range(25):
        a, b, c = rand(), rand(), rand()
        s = f.from_int(rng.randint(-3, 3))
        left = oracles.multiply(aflex, oracles.add(aflex, a, oracles.scale(aflex, s, b)), c)
        right = oracles.add(aflex, oracles.multiply(aflex, a, c),
                            oracles.scale(aflex, s, oracles.multiply(aflex, b, c)))
        assert left == right
        left = oracles.multiply(aflex, c, oracles.add(aflex, a, oracles.scale(aflex, s, b)))
        right = oracles.add(aflex, oracles.multiply(aflex, c, a),
                            oracles.scale(aflex, s, oracles.multiply(aflex, c, b)))
        assert left == right


def test_verify_unity(z2n2, aflex):
    assert z2n2.verify_unity() == (True, None)
    assert aflex.verify_unity() == (True, None)  # non-unital: vacuous
    # wrongly declaring e_1 as the unity of the flexible table fails already
    # on the first basis vector: e_1 e_1 = e_5, and also e_1 e_2 = e_3
    wrong = make_algebra(aflex.field, 5, dict(aflex.sc),
                         unity=aflex.basis_element(1))
    ok, witness = wrong.verify_unity()
    assert not ok and witness == 1
    e2 = wrong.basis_element(2)
    assert oracles.multiply(wrong, wrong.basis_element(1), e2) == wrong.basis_element(3)


def test_construction_errors():
    f = Rationals()
    with pytest.raises(IndexOutOfRange):
        make_algebra(f, 2, {(1, 3): [(1, 1)]})
    with pytest.raises(IndexOutOfRange):
        make_algebra(f, 2, {(1, 1): [(5, 1)]})
    alg = make_algebra(f, 2, {(1, 1): [(2, 1)]})
    with pytest.raises(DimensionMismatch):
        oracles.multiply(alg, (1,), (1, 0))
    # zero coefficients are silently dropped by the constructor
    assert make_algebra(f, 2, {(1, 1): [(2, 0)]}).sc == {}


def test_algebra_is_an_immutable_record_equal_by_fields(aflex):
    f = PrimeField(3)
    plain = make_algebra(f, 2, {(1, 1): [(2, 1)]})
    assert (plain.unity, plain.labels) == (None, None)
    full = make_algebra(f, 2, {(1, 1): [(2, 1)]}, unity=[1, 0], labels=["e", "x"])
    assert (full.unity, full.labels) == ((1, 0), ("e", "x"))
    assert full != plain and full == Algebra(field=f, dim=2, sc={(1, 1): ((2, 1),)},
                                             unity=(1, 0), labels=("e", "x"))
    assert repr(plain) == "Algebra(field=GF(3), dim=2, sc={(1, 1): ((2, 1),)}, " \
                          "unity=None, labels=None)"
    with pytest.raises(AttributeError):
        plain.dim = 3
    with pytest.raises(AttributeError):
        del plain.sc
    with pytest.raises(TypeError):
        hash(plain)
    # cached members are still computed once and kept
    assert plain.product_kernel is plain.product_kernel
    text = print_algebra(aflex)
    assert parse_algebra(text) == parse_algebra(text) == aflex


def test_repeated_labels_are_refused():
    # a library caller gets the error that parse_algebra gives a file
    f = Rationals()
    with pytest.raises(ValueError, match="repeated label 'x'"):
        make_algebra(f, 2, {}, labels=["x", "x"])
    assert make_algebra(f, 2, {}, labels=["x", "y"]).format_element((-2, 1)) == "-2*x + y"


def test_matrix_units():
    m2 = examples.make_matrix_algebra(2)
    e12, e21 = m2.basis_element(2), m2.basis_element(3)
    assert oracles.multiply(m2, e12, e21) == m2.basis_element(1)
    assert m2.verify_unity() == (True, None)


def test_labels_and_formatting(aflex):
    assert aflex.label(1) == "e1"
    x = oracles.add(aflex, aflex.basis_element(1),
                    oracles.scale(aflex, aflex.field.from_int(-2), aflex.basis_element(4)))
    assert aflex.format_element(x) == "e1 - 2*e4"
    assert aflex.format_element((0,) * aflex.dim) == "0"


def test_unital_hull(aflex):
    hull = examples.make_unital_hull(aflex)
    assert hull.dim == 6
    assert hull.verify_unity() == (True, None)
    assert oracles.multiply(hull, hull.unity, hull.basis_element(2)) == hull.basis_element(2)
    with pytest.raises(Exception):
        examples.make_unital_hull(hull)


# -- the compiled product kernel ------------------------------------------------


@st.composite
def kernel_cases(draw):
    """An algebra of dim <= 5 over Q, GF(2) or GF(3), and two integer rows.

    Over Q the structure constants are fractions, so the common denominator
    D is often above 1.  The rows mix zeros, small entries of either sign
    and entries past 2^64.
    """
    field = draw(st.sampled_from((Rationals(), PrimeField(2), PrimeField(3))))
    dim = draw(st.integers(1, 5))
    if field.characteristic:
        scalar = st.integers(1, field.characteristic - 1)
    else:
        scalar = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6))
    index = st.integers(1, dim)
    products = {(i, j): draw(st.lists(st.tuples(index, scalar), max_size=3,
                                      unique_by=lambda t: t[0]))
                for i in range(1, dim + 1) for j in range(1, dim + 1)}
    entry = st.one_of(st.just(0), st.integers(-9, 9),
                      st.integers(2**64, 2**70), st.integers(-2**70, -2**64))
    row = st.lists(entry, min_size=dim, max_size=dim)
    return make_algebra(field, dim, products), draw(row), draw(row)


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
@example((make_algebra(Rationals(), 2, {(1, 2): [(2, Fraction(3, 4))], (2, 1): [(1, -2)]}),
          [0, -2**65], [7, 0]))
def test_product_kernel_matches_the_interpreted_loop(case):
    algebra, u, v = case
    assert algebra.product_kernel(u, v) == oracles.table_product(algebra.product_table[0], u, v)
    # and the product of elements divides by D once over Q, reduces mod p over GF(p)
    f = algebra.field
    a = tuple(f.from_int(x) if f.characteristic else Fraction(x, 3) for x in u)
    b = tuple(f.from_int(x) for x in v)
    assert oracles.multiply(algebra, a, b) == oracles.field_multiply(algebra, a, b)


def test_product_kernel_fixed_cases():
    q = Rationals()
    # dim 1 unpacks one name (u0, = u); D = 2
    line = make_algebra(q, 1, {(1, 1): [(1, Fraction(-5, 2))]})
    assert line.product_table == ([[(0, ((0, -5),))]], 2)
    assert line.product_kernel([3], [7]) == [-105]
    assert oracles.multiply(line, (3,), (7,)) == (Fraction(-105, 2),)
    # no products: every sum stays 0
    assert make_algebra(q, 3, {}).product_kernel([1, -2, 2**70], [4, 5, 6]) == [0, 0, 0]
    # coefficients other than 1 and -1, several terms of a block on one coordinate:
    # b1 b1 = 3 b1 - 7 b2, b1 b2 = -b1, b2 b1 = 12 b2, b2 b2 = b1
    algebra = make_algebra(q, 2, {(1, 1): [(1, 3), (2, -7)], (1, 2): [(1, -1)],
                                  (2, 1): [(2, 12)], (2, 2): [(1, 1)]})
    u, v = [2, -5], [11, 2**65]
    expected = [66 - 7 * 2**65, -814]
    assert algebra.product_kernel(u, v) == expected
    assert oracles.table_product(algebra.product_table[0], u, v) == expected


@pytest.mark.parametrize("table", [
    [[(0, ((0, "1) + (1"),))]],
    [[(0, ((0, True),))]],
    [[(0, ((0, Fraction(1, 2)),))]],
    [[("0", ((0, 1),))]],
    [[(0, (("0", 1),))]],
])
def test_product_kernel_interpolates_only_ints(table):
    with pytest.raises(TypeError, match="is not three ints"):
        algebra_module._compile_product(table)


def test_product_kernel_is_named_in_tracebacks(aflex):
    # profiles and tracebacks name the kernel, not "<string>"
    name = "<alglen product kernel, dim 5>"
    assert aflex.product_kernel.__code__.co_filename == name
    with pytest.raises(ValueError) as info:
        aflex.product_kernel([1, 0], [0, 1, 0, 0, 0])
    assert traceback.extract_tb(info.value.__traceback__)[-1].filename == name


def test_product_kernel_builds_in_linear_time():
    # spin:4000 has 12,001 terms; one pass over them builds its kernel in
    # about 0.25 s on a 2-core Xeon VM, so the bound catches a build some
    # eight times slower
    spin = build_example("spin:4000")
    start = time.perf_counter()
    product = spin.product_kernel
    assert time.perf_counter() - start < 2.0
    v1 = [0, 1] + [0] * 3999
    assert product(v1, v1) == [1] + [0] * 4000


def test_generated_code_is_compiled_in_one_place():
    # the product kernel and the row kernels of spans both go through
    # algebra.compile_kernel, the package's only exec and compile
    src = Path(algebra_module.__file__).parent
    calls = sorted((path.name, node.func.id) for path in src.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id in ("compile", "eval", "exec"))
    assert calls == [("algebra.py", "compile"), ("algebra.py", "exec")]


def test_product_kernel_splits_long_sums():
    # b1 b_j = b1 for each of 3,000 indices j: u_1's block sums 3,000 terms
    # on b1, more than CPython compiles in one expression
    n = 3000
    algebra = make_algebra(PrimeField(2), n, {(1, j): [(1, 1)] for j in range(1, n + 1)})
    ones = [1] * n
    assert algebra.product_kernel(ones, ones) == [n] + [0] * (n - 1)


def test_algebra_pickles_after_a_product(aflex):
    # the compiled kernel stays behind; the copy compiles its own
    a, b = aflex.basis_element(1), aflex.basis_element(2)
    product = oracles.multiply(aflex, a, b)
    copy = pickle.loads(pickle.dumps(aflex))
    assert copy == aflex and "product_kernel" not in vars(copy)
    assert oracles.multiply(copy, a, b) == product
    assert copy.product_table == aflex.product_table
