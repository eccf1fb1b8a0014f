import pytest

import oracles
from alglen import examples, identities
from alglen.errors import AlreadyUnital, DomainError, ResourceLimit


def test_registry_unities():
    for name, algebra in oracles.example_algebras().items():
        ok, witness = algebra.verify_unity()
        assert ok, (name, witness)


def test_group_algebra_structure():
    one = examples.make_group_algebra_z2n(1)
    assert one.dim == 2
    assert oracles.multiply(one, one.basis_element(2), one.basis_element(2)) \
        == one.basis_element(1)
    with pytest.raises(ResourceLimit):
        examples.make_group_algebra_z2n(9)
    with pytest.raises(DomainError):
        examples.make_group_algebra_z2n(0)


def test_group_algebra_is_commutative_associative(z2n2):
    basis = [z2n2.basis_element(i) for i in range(1, 5)]
    for a in basis:
        for b in basis:
            assert oracles.multiply(z2n2, a, b) == oracles.multiply(z2n2, b, a)
            for c in basis:
                assert oracles.multiply(z2n2, oracles.multiply(z2n2, a, b), c) \
                    == oracles.multiply(z2n2, a, oracles.multiply(z2n2, b, c))


def test_spin_factor_products():
    spin = examples.make_spin_factor(2)
    v1, v2 = spin.basis_element(2), spin.basis_element(3)
    assert oracles.multiply(spin, v1, v1) == spin.basis_element(1)
    assert not any(oracles.multiply(spin, v1, v2))


def test_matrix_algebra_m4_units():
    m4 = examples.make_matrix_algebra(4)
    e12, e23 = m4.basis_element(2), m4.basis_element(7)
    assert oracles.multiply(m4, e12, e23) == m4.basis_element(3)  # E12 E23 = E13
    assert not any(oracles.multiply(m4, e23, e12))
    with pytest.raises(ResourceLimit):
        examples.make_matrix_algebra(7)


def test_chain3_products():
    c3 = examples.make_chain3()
    a = c3.basis_element(1)
    aa = oracles.multiply(c3, a, a)
    assert aa == c3.basis_element(2)
    assert oracles.multiply(c3, aa, a) == c3.basis_element(3)
    assert not any(oracles.multiply(c3, a, aa))


def test_unital_hull_structure(aflex):
    hull = examples.make_unital_hull(aflex)
    assert hull.dim == aflex.dim + 1
    # original products survive with shifted indices: e1 e2 = e3
    assert oracles.multiply(hull, hull.basis_element(2), hull.basis_element(3)) \
        == hull.basis_element(4)
    with pytest.raises(AlreadyUnital):
        examples.make_unital_hull(hull)


def test_cayley_dickson_levels():
    base = examples.make_cayley_dickson(0, [])
    assert base.dim == 1
    assert oracles.multiply(base, base.basis_element(1), base.basis_element(1)) \
        == base.basis_element(1)
    quat = examples.make_cayley_dickson(2, [-1, -1])
    assert quat.dim == 4
    assert quat.verify_unity() == (True, None)
    # the level-2 doubling with negative parameters is associative, hence
    # alternative and flexible
    report = identities.classify(quat, samples=16)
    assert report.verdict("alternative").holds
    assert report.verdict("flexible").holds
    i, j = quat.basis_element(2), quat.basis_element(3)
    assert oracles.multiply(quat, i, i) == oracles.scale(quat, quat.field.from_int(-1),
                                                         quat.basis_element(1))
    with pytest.raises(DomainError):
        examples.make_cayley_dickson(2, [-1, 0])
    with pytest.raises(DomainError):
        examples.make_cayley_dickson(5, [-1] * 5)


def test_twist_conjugation():
    quat = examples.make_cayley_dickson(2, [-1, -1])
    twisted = oracles.twist_conjugation(quat, "both")
    # conjugating both arguments keeps products of imaginary units and flips
    # signs on mixed products with the old unity
    i = twisted.basis_element(2)
    assert oracles.multiply(twisted, i, i) == oracles.multiply(quat, i, i)
    one = twisted.basis_element(1)
    assert oracles.multiply(twisted, one, i) == oracles.scale(
        quat, quat.field.from_int(-1), oracles.multiply(quat, one, i))
    assert twisted.unity is None
    with pytest.raises(DomainError):
        oracles.twist_conjugation(quat, "sideways")


def test_nonmixing7_products():
    n7 = examples.make_nonmixing7()
    u, v, z = (n7.basis_element(i) for i in (1, 2, 3))
    m1 = oracles.multiply(n7, u, v)
    assert m1 == n7.basis_element(4)
    assert oracles.multiply(n7, m1, z) == n7.basis_element(6)
    m2 = oracles.multiply(n7, v, u)
    assert m2 == n7.basis_element(5)
    assert oracles.multiply(n7, z, m2) == n7.basis_element(7)
