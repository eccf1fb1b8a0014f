"""Independent oracles the engine is checked against.

Everything here deliberately avoids the span engine's code paths: spans
are computed from full word enumeration with a local Gaussian elimination,
and canonical-form signs are validated in the free multilinear setting
with a parity union-find over single-exchange rewrites.
"""

from itertools import permutations

from alglen.words import enumerate_full, evaluate


# -- per-scalar Field-method references ---------------------------------------


def field_multiply(algebra, a, b):
    """Bilinear product summed term by term with the Field methods."""
    f = algebra.field
    acc = [f.zero()] * algebra.dim
    for (i, j), terms in algebra.sc.items():
        c = f.mul(a[i - 1], b[j - 1])
        for k, coeff in terms:
            acc[k - 1] = f.add(acc[k - 1], f.mul(c, coeff))
    return tuple(acc)


def field_residue(field, rref, vec):
    """Residue of vec modulo fully reduced RREF rows, with the Field methods."""
    v = list(vec)
    for row in rref:
        lead = next(i for i, x in enumerate(row) if not field.is_zero(x))
        c = v[lead]
        if not field.is_zero(c):
            v = [field.sub(x, field.mul(c, r)) for x, r in zip(v, row)]
    return v


# -- brute-force span of all words up to a length ------------------------------


def rref_rows(field, vectors, dim):
    """Local reduced-row-echelon form; independent of SpanBasis."""
    rows = []
    for vec in vectors:
        v = list(vec)
        for row in rows:
            lead = next(i for i, x in enumerate(row) if not field.is_zero(x))
            c = v[lead]
            if not field.is_zero(c):
                v = [field.sub(a, field.mul(c, b)) for a, b in zip(v, row)]
        lead = next((i for i, x in enumerate(v) if not field.is_zero(x)), None)
        if lead is None:
            continue
        inv = field.inv(v[lead])
        v = [field.mul(inv, x) for x in v]
        rows.append(v)
    # back-eliminate to make the echelon form fully reduced
    rows.sort(key=lambda r: next(i for i, x in enumerate(r) if not field.is_zero(x)))
    for i in range(len(rows) - 1, -1, -1):
        lead = next(j for j, x in enumerate(rows[i]) if not field.is_zero(x))
        for k in range(i):
            c = rows[k][lead]
            if not field.is_zero(c):
                rows[k] = [field.sub(a, field.mul(c, b))
                           for a, b in zip(rows[k], rows[i])]
    return tuple(tuple(r) for r in rows)


def full_word_span(algebra, elements, up_to):
    """RREF of Lin_k(S) for k = 0..up_to by evaluating every word."""
    vectors = []
    if algebra.unity is not None:
        vectors.append(tuple(algebra.unity))
    result = [rref_rows(algebra.field, vectors, algebra.dim)]
    for m in range(1, up_to + 1):
        for w in enumerate_full(len(elements), m, cap=None):
            vectors.append(evaluate(algebra, elements, w))
        result.append(rref_rows(algebra.field, vectors, algebra.dim))
    return result


def restricted_word_span(algebra, elements, up_to):
    """Same ladder but spanning only the one-letter-at-a-time words."""
    from alglen.words import enumerate_restricted

    vectors = []
    if algebra.unity is not None:
        vectors.append(tuple(algebra.unity))
    result = [rref_rows(algebra.field, vectors, algebra.dim)]
    for m in range(1, up_to + 1):
        for w in enumerate_restricted(len(elements), m, cap=None):
            vectors.append(evaluate(algebra, elements, w))
        result.append(rref_rows(algebra.field, vectors, algebra.dim))
    return result


def full_span_dims(algebra, elements, up_to):
    return [len(rows) for rows in full_word_span(algebra, elements, up_to)]


# -- free multilinear sign oracle ----------------------------------------------


def trees_with_leaves(leaves):
    if len(leaves) == 1:
        yield leaves[0]
        return
    for i in range(1, len(leaves)):
        for left in trees_with_leaves(leaves[:i]):
            for right in trees_with_leaves(leaves[i:]):
                yield (left, right)


def _rewrites(tree, variant):
    """Single-exchange neighbours of a tree; each stands for w -> -w'."""
    out = []

    def rec(t, rebuild):
        if isinstance(t, int):
            return
        left, right = t
        if not isinstance(left, int):
            a, b = left
            if variant == "alt":
                out.append(rebuild(((a, right), b)))
            else:
                out.append(rebuild(((right, b), a)))
        if not isinstance(right, int):
            b, c = right
            if variant == "alt":
                out.append(rebuild((b, (left, c))))
            else:
                out.append(rebuild((c, (b, left))))
        rec(left, lambda s: rebuild((s, right)))
        rec(right, lambda s: rebuild((left, s)))

    rec(tree, lambda s: s)
    return out


class SignedUnionFind:
    """Union-find where each edge carries a sign; odd cycles zero a class."""

    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.parity = {x: 0 for x in items}
        self.zero = {x: False for x in items}

    def _root_parity(self, x):
        root = x
        p = 0
        while self.parent[root] != root:
            p ^= self.parity[root]
            root = self.parent[root]
        return root, p

    def union(self, x, y, rel):
        rx, px = self._root_parity(x)
        ry, py = self._root_parity(y)
        if rx == ry:
            if px ^ py != rel:
                self.zero[rx] = True
            return
        self.parent[ry] = rx
        self.parity[ry] = px ^ py ^ rel
        self.zero[rx] = self.zero[rx] or self.zero[ry]

    def relation(self, x, y):
        """'zero', or the sign (+1/-1) relating x and y, or None if unrelated."""
        rx, px = self._root_parity(x)
        ry, py = self._root_parity(y)
        if rx != ry:
            return None
        if self.zero[rx]:
            return "zero"
        return 1 if px == py else -1


def multilinear_word_relations(m, variant):
    """Parity union-find over all trees on the leaves 1..m, each used once."""
    universe = []
    for perm in permutations(range(1, m + 1)):
        universe.extend(trees_with_leaves(list(perm)))
    uf = SignedUnionFind(universe)
    for tree in universe:
        for other in _rewrites(tree, variant):
            uf.union(tree, other, 1)
    return uf
