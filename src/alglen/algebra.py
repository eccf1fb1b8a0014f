"""Finite-dimensional algebras given by sparse structure constants.

An algebra of dimension n over a field F stores, for each basis pair
(i, j) with a nonzero product, the expansion b_i * b_j = sum_k c_ijk b_k.
Indices are 1-based in all public interfaces; elements are coordinate
tuples of length n.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

from .errors import DimensionMismatch, IndexOutOfRange
from .field import Field, integer_row

Element = tuple  # tuple of n scalars

# random tuples per identity class (``identities.classify`` and the CLI's
# ``--samples``); kept here, beside ``Algebra.sample_draws``, because every
# command loads this module and only some load ``identities``
DEFAULT_SAMPLES = 64


class Algebra:
    """Immutable structure-constant algebra.

    ``sc`` maps a 1-based basis pair (i, j) to a tuple of (k, scalar)
    terms; absent pairs multiply to zero.  ``unity`` is an optional
    coordinate tuple declared by the caller, never inferred.  Two algebras
    are equal when their five fields are; an algebra is not hashable, since
    ``sc`` is a dict.
    """

    _FIELDS = ("field", "dim", "sc", "unity", "labels")

    def __init__(self, field: Field, dim: int, sc: dict, unity: Element | None = None,
                 labels: tuple | None = None):
        if dim < 1:
            raise DimensionMismatch("dimension must be positive")
        for (i, j), terms in sc.items():
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise IndexOutOfRange(f"structure constant index ({i},{j})")
            for k, c in terms:
                if not 1 <= k <= dim:
                    raise IndexOutOfRange(f"structure constant target {k}")
                if field.is_zero(c):
                    raise ValueError(f"zero structure constant stored at ({i},{j},{k})")
        if unity is not None and len(unity) != dim:
            raise DimensionMismatch("unity has wrong length")
        if labels is not None:
            if len(labels) != dim:
                raise DimensionMismatch("labels list has wrong length")
            seen = set()
            for label in labels:
                if label in seen:
                    # two basis elements would print alike
                    raise ValueError(f"repeated label {label!r}")
                seen.add(label)
        # written past __setattr__, as cached_property writes its values
        self.__dict__.update(field=field, dim=dim, sc=sc, unity=unity, labels=labels)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an Algebra")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an Algebra")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._FIELDS)

    def __repr__(self):
        return "Algebra(" + ", ".join(f"{f}={getattr(self, f)!r}" for f in self._FIELDS) + ")"

    # -- elements ---------------------------------------------------------

    def basis_element(self, i: int) -> Element:
        if not 1 <= i <= self.dim:
            raise IndexOutOfRange(f"basis index {i}")
        return tuple(int(k == i - 1) for k in range(self.dim))

    def element(self, coords) -> Element:
        coords = tuple(coords)
        if len(coords) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} coordinates")
        return coords

    @cached_property
    def product_table(self) -> tuple:
        """(table, D): the structure constants compiled to integers, built once.

        ``table[i]`` lists ``(j, ((k, c), ...))`` for each nonzero product
        b_(i+1) b_(j+1), with 0-based indices.  Over Q each ``c`` is the
        numerator of the structure constant over the common denominator D;
        over GF(p) it is the residue and D = 1.  Every product is made by
        :attr:`product_kernel`, the table compiled to code; only the
        character search of the exact-length pre-test reads the table itself.
        """
        d = lcm(*(c.denominator for terms in self.sc.values() for _, c in terms))
        table = [[] for _ in range(self.dim)]
        for (i, j), terms in sorted(self.sc.items()):
            table[i - 1].append((j - 1, tuple((k - 1, int(c * d)) for k, c in terms)))
        return table, d

    @cached_property
    def sample_draws(self) -> dict:
        """``identities.random_element``'s draws by (seed, index), kept as long as the algebra."""
        return {}

    @cached_property
    def product_kernel(self):
        """The product of two integer rows by :attr:`product_table`, compiled at first use.

        ``product_kernel(u, v)`` takes two sequences of n ints and returns
        the list of the n unreduced integer sums, without the table's common
        denominator D (see :func:`_compile_product`).
        """
        return _compile_product(self.product_table[0])

    def __getstate__(self):
        # pickle cannot name the generated kernel; an unpickled copy compiles its own
        return {k: v for k, v in self.__dict__.items() if k != "product_kernel"}

    # -- unity ------------------------------------------------------------

    def verify_unity(self):
        """Check the declared unity against every basis vector.

        Returns ``(True, None)`` when the unity multiplies as the identity
        (or none is declared), else ``(False, i)`` with a failing 1-based
        basis index.  The products are integer rows: with E = d_e e the
        unity's integer row (``integer_row``), the product kernel of E and
        b_i is D d_e e b_i, so e b_i = b_i exactly when that product is
        D d_e b_i, mod p over GF(p) (where D = d_e = 1); the same holds on
        the other side.
        """
        if self.unity is None:
            return True, None
        product, p = self.product_kernel, self.field.characteristic
        e, d_e = integer_row(self.unity)
        scale = self.product_table[1] * d_e
        for i in range(1, self.dim + 1):
            b = self.basis_element(i)
            for row in (product(e, b), product(b, e)):
                row[i - 1] -= scale
                if any(x % p for x in row) if p else any(row):
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


# terms per statement of a compiled product: CPython's compiler recurses once
# per operator of a sum and fails on a few thousand
_TERMS_PER_STATEMENT = 256


def _compile_product(table: list):
    """The product of two integer rows by a compiled ``product_table``, as generated code.

    The function unpacks ``u`` and ``v`` into locals and has one ``if u_i:``
    block for each left index i with a nonzero product, holding one
    ``a_k += u_i * (s * v_j + ...)`` statement per output coordinate k; it
    returns the list of the n sums.  It is the same exact integer sum as
    multiplying out term by term, so its results are those of the
    interpreted loop over the table, in a fraction of the time.  The source
    is built in one pass over the table's terms, and only ``int`` indices
    and coefficients enter it, never text that a file supplied.
    """
    n = len(table)
    lines = [
        "def product(u, v):",
        f"    {', '.join(f'u{i}' for i in range(n))}, = u",
        f"    {', '.join(f'v{j}' for j in range(n))}, = v",
        f"    {' = '.join(f'a{k}' for k in range(n))} = 0",
    ]
    for i, row in enumerate(table):
        sums = {}  # output coordinate k -> the terms s * v_j of u_i's block
        for j, terms in row:
            for k, s in terms:
                if not (type(j) is type(k) is type(s) is int):
                    raise TypeError(f"product table entry {(j, k, s)!r} is not three ints")
                sums.setdefault(k, []).append(
                    f"v{j}" if s == 1 else f"-v{j}" if s == -1 else f"{s}*v{j}")
        if sums:
            lines.append(f"    if u{i}:")
            for k in sorted(sums):
                terms = sums[k]
                for start in range(0, len(terms), _TERMS_PER_STATEMENT):
                    expr = " + ".join(terms[start:start + _TERMS_PER_STATEMENT])
                    lines.append(f"        a{k} += u{i} * ({expr.replace('+ -', '- ')})")
    lines.append(f"    return [{', '.join(f'a{k}' for k in range(n))}]")
    return compile_kernel(f"product kernel, dim {n}", "product", lines)


def compile_kernel(label: str, name: str, lines: list):
    """The function ``name`` that the generated source ``lines`` defines.

    The source is compiled under the name ``<alglen {label}>``, so that
    profiles and tracebacks name the kernel and its size (say ``product
    kernel, dim 4`` or ``tuple check, arity 3``) rather than ``<string>``.
    Every generated kernel of the package is compiled here; the callers
    interpolate only ``int`` indices and coefficients, and the identity
    words of the package's own table.
    """
    namespace = {}
    exec(compile("\n".join(lines), f"<alglen {label}>", "exec"), namespace)
    return namespace[name]


class KernelCache(dict):
    """Key -> what ``build(key)`` compiles, built at the key's first lookup.

    Each key is built once per process.  A lookup is a plain subscript, as
    cheap as a dict's on every later use.
    """

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


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
