"""Finite-dimensional algebras given by sparse structure constants.

An algebra of dimension n over a field F stores, for each basis pair
(i, j) with a nonzero product, the expansion b_i * b_j = sum_k c_ijk b_k.
Indices are 1-based in all public interfaces; elements are coordinate
tuples of length n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .errors import DimensionMismatch, IndexOutOfRange
from .field import Field, integer_row, rational_row

Element = tuple  # tuple of n scalars


@dataclass(frozen=True)
class Algebra:
    """Immutable structure-constant algebra.

    ``sc`` maps a 1-based basis pair (i, j) to a tuple of (k, scalar)
    terms; absent pairs multiply to zero.  ``unity`` is an optional
    coordinate tuple declared by the caller, never inferred.
    """

    field: Field
    dim: int
    sc: dict
    unity: Element | None = None
    labels: tuple | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch("dimension must be positive")
        for (i, j), terms in self.sc.items():
            if not (1 <= i <= self.dim and 1 <= j <= self.dim):
                raise IndexOutOfRange(f"structure constant index ({i},{j})")
            for k, c in terms:
                if not 1 <= k <= self.dim:
                    raise IndexOutOfRange(f"structure constant target {k}")
                if self.field.is_zero(c):
                    raise ValueError(f"zero structure constant stored at ({i},{j},{k})")
        if self.unity is not None and len(self.unity) != self.dim:
            raise DimensionMismatch("unity has wrong length")
        if self.labels is not None and len(self.labels) != self.dim:
            raise DimensionMismatch("labels list has wrong length")

    # -- elements ---------------------------------------------------------

    def zero(self) -> Element:
        return (self.field.zero(),) * self.dim

    def basis_element(self, i: int) -> Element:
        if not 1 <= i <= self.dim:
            raise IndexOutOfRange(f"basis index {i}")
        z = self.field.zero()
        one = self.field.one()
        return tuple(one if k == i - 1 else z for k in range(self.dim))

    def element(self, coords) -> Element:
        coords = tuple(coords)
        if len(coords) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} coordinates")
        return coords

    def add(self, a: Element, b: Element) -> Element:
        f = self.field
        return tuple(f.add(x, y) for x, y in zip(a, b))

    def sub(self, a: Element, b: Element) -> Element:
        f = self.field
        return tuple(f.sub(x, y) for x, y in zip(a, b))

    def scale(self, c, a: Element) -> Element:
        f = self.field
        return tuple(f.mul(c, x) for x in a)

    def is_zero_element(self, a: Element) -> bool:
        f = self.field
        return all(f.is_zero(x) for x in a)

    @cached_property
    def product_table(self) -> tuple:
        """(table, D): the structure constants compiled to integers, built once.

        ``table[i]`` lists ``(j, ((k, c), ...))`` for each nonzero product
        b_(i+1) b_(j+1), with 0-based indices.  Over Q each ``c`` is the
        numerator of the structure constant over the common denominator D;
        over GF(p) it is the residue and D = 1.
        """
        d = lcm(*(c.denominator for terms in self.sc.values() for _, c in terms))
        table = [[] for _ in range(self.dim)]
        for (i, j), terms in sorted(self.sc.items()):
            table[i - 1].append((j - 1, tuple((k - 1, int(c * d)) for k, c in terms)))
        return table, d

    def multiply(self, a: Element, b: Element) -> Element:
        """Bilinear product of two coordinate vectors.

        Exact integer arithmetic on :attr:`product_table`: over Q both
        operands become integer numerators over a common denominator, and
        the output is divided once by the three denominators; over GF(p)
        each output coordinate is reduced mod p once.
        """
        if len(a) != self.dim or len(b) != self.dim:
            raise DimensionMismatch("element length does not match algebra dimension")
        table, d = self.product_table
        p = self.field.characteristic
        if p:
            return tuple(x % p for x in table_product(table, a, b))
        a, da = integer_row(a)
        b, db = integer_row(b)
        return rational_row(table_product(table, a, b), da * db * d)

    # -- unity ------------------------------------------------------------

    @property
    def is_unital(self) -> bool:
        return self.unity is not None

    def verify_unity(self):
        """Check the declared unity against every basis vector.

        Returns ``(True, None)`` when the unity multiplies as the identity
        (or none is declared), else ``(False, i)`` with a failing 1-based
        basis index.
        """
        if self.unity is None:
            return True, None
        for i in range(1, self.dim + 1):
            b = self.basis_element(i)
            if self.multiply(self.unity, b) != b or self.multiply(b, self.unity) != b:
                return False, i
        return True, None

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i - 1]
        return f"b{i}"

    def format_element(self, a: Element) -> str:
        f = self.field
        parts = []
        for i, c in enumerate(a):
            if f.is_zero(c):
                continue
            text = f.format(c)
            if text == "1":
                parts.append(self.label(i + 1))
            elif text == "-1":
                parts.append("-" + self.label(i + 1))
            else:
                parts.append(f"{text}*{self.label(i + 1)}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def table_product(table: list, u, v) -> list:
    """Unreduced integer product of two integer vectors by a compiled table."""
    acc = [0] * len(table)
    for i, ui in enumerate(u):
        if ui:
            for j, terms in table[i]:
                vj = v[j]
                if vj:
                    c = ui * vj
                    for k, s in terms:
                        acc[k] += c * s
    return acc


def find_unity(algebra: Algebra) -> Element | None:
    """Solve for a two-sided identity element, or None if there is none.

    Diagnostic only: the result is never attached to the algebra, since a
    declared unity changes the zero-length word count and with it the
    meaning of every length statement.
    """
    from .spans import solve_coordinates  # local import to avoid a cycle

    f = algebra.field
    n = algebra.dim
    # unknowns x_j with sum_j x_j (b_j b_i) = b_i = sum_j x_j (b_i b_j):
    # stack both constraint families into one long linear system
    columns = []
    for j in range(1, n + 1):
        bj = algebra.basis_element(j)
        col = []
        for i in range(1, n + 1):
            col.extend(algebra.multiply(bj, algebra.basis_element(i)))
        for i in range(1, n + 1):
            col.extend(algebra.multiply(algebra.basis_element(i), bj))
        columns.append(col)
    target = []
    for _ in range(2):
        for i in range(1, n + 1):
            target.extend(algebra.basis_element(i))
    status, coeffs = solve_coordinates(f, columns, target)
    if status == "ok":
        return tuple(coeffs)
    # dependent columns mean a nonzero kernel; adding a kernel vector to any
    # solution would yield a second identity element, which cannot exist, so
    # both remaining statuses imply there is no identity
    return None


def make_algebra(field: Field, dim: int, products: dict, unity=None, labels=None) -> Algebra:
    """Build an algebra from {(i, j): [(k, scalar), ...]} dropping zeros."""
    sc = {}
    for (i, j), terms in products.items():
        kept = tuple((k, c) for k, c in terms if not field.is_zero(c))
        if kept:
            sc[(i, j)] = kept
    return Algebra(field=field, dim=dim, sc=sc,
                   unity=tuple(unity) if unity is not None else None,
                   labels=tuple(labels) if labels is not None else None)
