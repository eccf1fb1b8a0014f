import random

import pytest

from alglen import examples
from alglen.algebra import make_algebra
from alglen.errors import DimensionMismatch, IndexOutOfRange
from alglen.field import Rationals


def test_group_algebra_products(z2n2):
    # e_(1,0) * e_(0,1) = e_(1,1): masks 1 and 2 give 3, i.e. indices 2,3 -> 4
    a, b = z2n2.basis_element(2), z2n2.basis_element(3)
    assert z2n2.multiply(a, b) == z2n2.basis_element(4)
    assert z2n2.multiply(a, a) == z2n2.basis_element(1)


def test_table_products(aflex, aalt):
    assert aflex.multiply(aflex.basis_element(1), aflex.basis_element(2)) \
        == aflex.basis_element(3)
    minus_e4 = aflex.scale(aflex.field.from_int(-1), aflex.basis_element(4))
    assert aflex.multiply(aflex.basis_element(2), aflex.basis_element(5)) == minus_e4
    assert aalt.multiply(aalt.basis_element(2), aalt.basis_element(1)) \
        == aalt.basis_element(3)
    for j in range(1, 6):
        assert not any(aflex.multiply(aflex.basis_element(3), aflex.basis_element(j)))


def test_bilinearity(aflex):
    rng = random.Random(7)
    f = aflex.field

    def rand():
        return tuple(f.from_int(rng.randint(-3, 3)) for _ in range(aflex.dim))

    for _ in range(25):
        a, b, c = rand(), rand(), rand()
        s = f.from_int(rng.randint(-3, 3))
        left = aflex.multiply(aflex.add(a, aflex.scale(s, b)), c)
        right = aflex.add(aflex.multiply(a, c),
                          aflex.scale(s, aflex.multiply(b, c)))
        assert left == right
        left = aflex.multiply(c, aflex.add(a, aflex.scale(s, b)))
        right = aflex.add(aflex.multiply(c, a),
                          aflex.scale(s, aflex.multiply(c, b)))
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
    assert wrong.multiply(wrong.basis_element(1), e2) == wrong.basis_element(3)


def test_construction_errors():
    f = Rationals()
    with pytest.raises(IndexOutOfRange):
        make_algebra(f, 2, {(1, 3): [(1, f.one())]})
    with pytest.raises(IndexOutOfRange):
        make_algebra(f, 2, {(1, 1): [(5, f.one())]})
    alg = make_algebra(f, 2, {(1, 1): [(2, f.one())]})
    with pytest.raises(DimensionMismatch):
        alg.multiply((f.one(),), (f.one(), f.zero()))
    # zero coefficients are silently dropped by the constructor
    assert make_algebra(f, 2, {(1, 1): [(2, f.zero())]}).sc == {}


def test_repeated_labels_are_refused():
    # a library caller gets the error that parse_algebra gives a file
    f = Rationals()
    with pytest.raises(ValueError, match="repeated label 'x'"):
        make_algebra(f, 2, {}, labels=["x", "x"])
    assert make_algebra(f, 2, {}, labels=["x", "y"]).format_element((-2, 1)) == "-2*x + y"


def test_matrix_units():
    m2 = examples.make_matrix_algebra(2)
    e12, e21 = m2.basis_element(2), m2.basis_element(3)
    assert m2.multiply(e12, e21) == m2.basis_element(1)
    assert m2.verify_unity() == (True, None)


def test_labels_and_formatting(aflex):
    assert aflex.label(1) == "e1"
    x = aflex.add(aflex.basis_element(1),
                  aflex.scale(aflex.field.from_int(-2), aflex.basis_element(4)))
    assert aflex.format_element(x) == "e1 - 2*e4"
    assert aflex.format_element((aflex.field.zero(),) * aflex.dim) == "0"


def test_unital_hull(aflex):
    hull = examples.make_unital_hull(aflex)
    assert hull.dim == 6
    assert hull.verify_unity() == (True, None)
    assert hull.multiply(hull.unity, hull.basis_element(2)) == hull.basis_element(2)
    with pytest.raises(Exception):
        examples.make_unital_hull(hull)
