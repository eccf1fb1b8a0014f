"""Constructors for the named example algebras of ``alglen gen``.

All constructors return immutable Algebra objects with human-readable
labels.  ``io_cli.build_example`` owns the table of names.
"""

from __future__ import annotations

from itertools import product

from .algebra import Algebra, make_algebra
from .errors import AlreadyUnital, DomainError, ResourceLimit
from .field import Field, PrimeField, Rationals

GROUP_ALGEBRA_CAP = 6


def make_group_algebra_z2n(n: int) -> Algebra:
    """Group algebra of (Z/2)^n over GF(2): basis e_x, products e_x e_y = e_{x+y}.

    Commutative, associative, unital with unity e_0; dimension 2^n.
    Basis index of the bit vector x is x+1 when x is read as a binary mask.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > GROUP_ALGEBRA_CAP:
        raise ResourceLimit(f"group algebra dimension 2^{n} exceeds cap 2^{GROUP_ALGEBRA_CAP}")
    field = PrimeField(2)
    dim = 2**n
    products = {(x + 1, y + 1): [((x ^ y) + 1, 1)] for x in range(dim) for y in range(dim)}
    labels = ["e_(" + ",".join(str((x >> b) & 1) for b in range(n)) + ")" for x in range(dim)]
    unity = [1] + [0] * (dim - 1)
    return make_algebra(field, dim, products, unity=unity, labels=labels)


def make_a_flex(field: Field | None = None) -> Algebra:
    """Five-dimensional non-unital algebra: e1e1=e5, e1e2=e3, e1e3=e4, e2e5=-e4."""
    f = field or Rationals()
    one = f.one()
    products = {
        (1, 1): [(5, one)],
        (1, 2): [(3, one)],
        (1, 3): [(4, one)],
        (2, 5): [(4, f.neg(one))],
    }
    return make_algebra(f, 5, products, labels=[f"e{i}" for i in range(1, 6)])


def make_a_alt(field: Field | None = None) -> Algebra:
    """Five-dimensional non-unital algebra: f1f1=f5, f1f3=f4, f2f1=f3, f2f5=-f4."""
    f = field or Rationals()
    one = f.one()
    products = {
        (1, 1): [(5, one)],
        (1, 3): [(4, one)],
        (2, 1): [(3, one)],
        (2, 5): [(4, f.neg(one))],
    }
    return make_algebra(f, 5, products, labels=[f"f{i}" for i in range(1, 6)])


def make_spin_factor(n: int, field: Field | None = None) -> Algebra:
    """Spin factor F*1 + F^n: (a+v)(b+w) = (ab + <v,w>) + (aw + bv).

    Unital and commutative; basis index 1 is the unity, indices 2..n+1 the
    orthonormal vector part.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    f = field or Rationals()
    one = f.one()
    dim = n + 1
    products = {(1, 1): [(1, one)]}
    for i in range(2, dim + 1):
        products[(1, i)] = [(i, one)]
        products[(i, 1)] = [(i, one)]
        products[(i, i)] = [(1, one)]
    labels = ["1"] + [f"v{i}" for i in range(1, n + 1)]
    unity = [one] + [f.zero()] * n
    return make_algebra(f, dim, products, unity=unity, labels=labels)


def make_matrix_algebra(n: int, field: Field | None = None) -> Algebra:
    """Full matrix algebra on matrix units: E_ij E_kl = delta_jk E_il."""
    if not 1 <= n <= 6:
        raise ResourceLimit("matrix algebra supported for 1 <= n <= 6")
    f = field or Rationals()
    one = f.one()

    def idx(i, j):
        return (i - 1) * n + j

    products = {}
    for i, j, l in product(range(1, n + 1), repeat=3):
        products[(idx(i, j), idx(j, l))] = [(idx(i, l), one)]
    labels = [f"E{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    unity = [one if (k - 1) % (n + 1) == 0 else f.zero() for k in range(1, n * n + 1)]
    return make_algebra(f, n * n, products, unity=unity, labels=labels)


def make_chain3(field: Field | None = None) -> Algebra:
    """dim 3, a*a = b, b*a = c, all else zero; nilpotent of index 4.

    The smallest convenient negative control: it is not mixing, since
    (aa)a = c lies outside the span of {a, b, a(aa)} = {a, b, 0}.
    """
    f = field or Rationals()
    one = f.one()
    return make_algebra(f, 3, {(1, 1): [(2, one)], (2, 1): [(3, one)]},
                        labels=["a", "b", "c"])


def make_nilpotent3(field: Field | None = None) -> Algebra:
    """dim 3, a*a = b only, so every triple product vanishes."""
    f = field or Rationals()
    return make_algebra(f, 3, {(1, 1): [(2, f.one())]}, labels=["a", "b", "c"])


def make_nonmixing7(field: Field | None = None) -> Algebra:
    """dim 7 negative control that fails mixing and both sliding identities.

    Products u*v = m1, m1*z = w1, v*u = m2, z*m2 = w2, all else zero.  At
    the triple (u, v, z) every bounded monomial lands in span{u,v,z,m1,m2},
    but (uv)z = w1 and z(vu) = w2 escape it.
    """
    f = field or Rationals()
    one = f.one()
    products = {
        (1, 2): [(4, one)],
        (4, 3): [(6, one)],
        (2, 1): [(5, one)],
        (3, 5): [(7, one)],
    }
    return make_algebra(f, 7, products,
                        labels=["u", "v", "z", "m1", "m2", "w1", "w2"])


def make_unital_hull(algebra: Algebra) -> Algebra:
    """Adjoin an identity as new basis vector 1, shifting old indices up."""
    if algebra.unity is not None:
        raise AlreadyUnital("algebra already declares a unity")
    f = algebra.field
    one = f.one()
    dim = algebra.dim + 1
    products = {(1, 1): [(1, one)]}
    for i in range(2, dim + 1):
        products[(1, i)] = [(i, one)]
        products[(i, 1)] = [(i, one)]
    for (i, j), terms in algebra.sc.items():
        products[(i + 1, j + 1)] = [(k + 1, c) for k, c in terms]
    labels = ["e"] + [algebra.label(i) for i in range(1, algebra.dim + 1)]
    unity = [one] + [f.zero()] * (dim - 1)
    return make_algebra(f, dim, products, unity=unity, labels=labels)


# -- Cayley-Dickson doubling ---------------------------------------------------


def _cd_product(level: int, gammas, i: int, j: int, f: Field) -> tuple:
    """(c, k) with b_i b_j = c b_k in the doubling algebra of the given level.

    Below h = 2^(level-1), b_i is the pair (b_i, 0); from h on, b_i is
    (0, b_(i-h)).  Pairs multiply as (a, b)(c, d) = (ac + g conj(d) b,
    da + b conj(c)) with g = gammas[level - 1], and conj(b_k) = b_k for
    k = 0 and -b_k otherwise.
    """
    if level == 0:
        return f.one(), 0
    h = 2 ** (level - 1)
    if i < h and j < h:  # (a, 0)(c, 0) = (ac, 0)
        return _cd_product(level - 1, gammas, i, j, f)
    if i < h:  # (a, 0)(0, d) = (0, da)
        c, k = _cd_product(level - 1, gammas, j - h, i, f)
        return c, k + h
    if j < h:  # (0, b)(c, 0) = (0, b conj(c))
        c, k = _cd_product(level - 1, gammas, i - h, j, f)
        return (c if j == 0 else f.neg(c)), k + h
    # (0, b)(0, d) = (g conj(d) b, 0)
    c, k = _cd_product(level - 1, gammas, j - h, i - h, f)
    c = f.mul(gammas[level - 1], c)
    return (c if j == h else f.neg(c)), k


def make_cayley_dickson(level: int, gammas, field: Field | None = None) -> Algebra:
    """Doubling algebra of dimension 2^level with parameters gammas.

    Level 0 is the field itself; (-1, -1) at level 2 gives a quaternion
    type algebra.  ``gen cd:<level>:<gammas>`` builds it; the ``classify-q``
    benchmark runs cd:3, and the classify golden outputs hold cd:3 and cd:4.
    """
    if not 0 <= level <= 4:
        raise DomainError("level must be between 0 and 4")
    f = field or Rationals()
    gammas = [g if not isinstance(g, int) else f.from_int(g) for g in gammas]
    if len(gammas) != level:
        raise DomainError(f"need exactly {level} gamma parameters")
    if any(f.is_zero(g) for g in gammas):
        raise DomainError("gamma parameters must be nonzero")
    dim = 2**level
    # a product of basis vectors is a basis vector times a product of nonzero gammas
    products = {}
    for i in range(dim):
        for j in range(dim):
            c, k = _cd_product(level, gammas, i, j, f)
            products[(i + 1, j + 1)] = [(k + 1, c)]
    unity = [f.one()] + [f.zero()] * (dim - 1)
    labels = [f"u{i}" for i in range(dim)]
    return make_algebra(f, dim, products, unity=unity, labels=labels)
