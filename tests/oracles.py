"""Independent oracles the engine is checked against.

Everything here deliberately avoids the span engine's code paths: spans
are computed from full word enumeration with a local Gaussian elimination,
and canonical-form signs are validated in the free multilinear setting
with a parity union-find over single-exchange rewrites.  The identity
oracles avoid the identity checks' paths: they evaluate every word on exact
scalars with ``Algebra.multiply`` and test a membership in a full
SpanBasis of every span word, not on integer rows in a lazily grown span.
The reference walk follows each class's tuple stream alone, with those
oracles; it shares only the sample draws (``random_element``) with the
checks.
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


# -- identity texts by exact evaluation of every word ---------------------------


def _word_tree(word, letters):
    """The words.Word of a table word such as ``(ab)c``, letters numbered by position."""
    factors = []
    pos = 0
    while pos < len(word):
        if word[pos] == "(":
            depth, end = 0, pos
            for end in range(pos, len(word)):
                depth += (word[end] == "(") - (word[end] == ")")
                if depth == 0:
                    break
            factors.append(_word_tree(word[pos + 1:end], letters))
            pos = end + 1
        else:
            factors.append(letters.index(word[pos]) + 1)
            pos += 1
    assert len(factors) <= 2, word
    return factors[0] if len(factors) == 1 else tuple(factors)


def _word_value(algebra, values, word):
    letters = sorted(values)
    return evaluate(algebra, [values[x] for x in letters], _word_tree(word, letters))


def _total(algebra, values, side):
    acc = algebra.zero()
    for word in side.split(" + "):
        acc = algebra.add(acc, _word_value(algebra, values, word))
    return acc


def _full_span(algebra, values, words):
    """SpanBasis of the unity and the listed words, every word evaluated."""
    from alglen.spans import SpanBasis

    basis = SpanBasis(algebra.field, algebra.dim)
    if algebra.unity is not None:
        basis.insert(algebra.unity)
    for word in words:
        basis.insert(_word_value(algebra, values, word))
    return basis


def identity_violated(algebra, text, values):
    """Whether the elements named in values break an ``=`` or ``in`` table text.

    Every word is evaluated with words.evaluate (Algebra.multiply on exact
    scalars), and a membership is tested in the span of every span word
    plus the unity.
    """
    from alglen.identities import SPANS

    lhs, _, rhs = text.partition(" = ")
    if rhs:
        return _total(algebra, values, lhs) != _total(algebra, values, rhs)
    lhs, _, span = lhs.replace(" outside ", " in ").partition(" in ")
    return not _full_span(algebra, values, SPANS[span]).contains(_total(algebra, values, lhs))


def forced_coefficients(algebra, a, b, texts):
    """Rank of the span of a, b, ab, ba and the unity, and per sandwich text
    whether its left side lies in that span plus aa, with the aa-coefficient
    it forces (None when aa lies in the span already)."""
    f = algebra.field
    values = {"a": a, "b": b}
    basis = _full_span(algebra, values, ("a", "b", "ab", "ba"))
    aa = basis.reduce(_word_value(algebra, values, "aa"))
    lead = next((i for i, x in enumerate(aa) if not f.is_zero(x)), None)
    out = []
    for text in texts:
        r = basis.reduce(_total(algebra, values, text.split(" in ")[0]))
        if lead is None:
            out.append((all(map(f.is_zero, r)), None))
        else:
            g = f.div(r[lead], aa[lead])
            out.append(([f.mul(g, x) for x in aa] == r, g))
    return basis.rank, out


def coefficient_clash(algebra, texts, values):
    """Whether a1 and a2 force different aa-coefficients at b (see forced_coefficients)."""
    forced = {g for a in (values["a1"], values["a2"])
              for _, g in forced_coefficients(algebra, a, values["b"], texts)[1]
              if g is not None}
    return len(forced) > 1


# -- each class's stream walked alone ------------------------------------------

# the order in which each sweep class visits its tuples: ("basis", arity)
# or ("random", arity, salt), the salt offsetting the sample indices
STREAMS = {
    "flexible": (("basis", 2), ("random", 2, 0), ("basis", 3)),
    "alternative": (("basis", 2), ("random", 2, 1), ("basis", 3)),
    "left_sliding": (("basis", 3), ("random", 3, 10)),
    "right_sliding": (("basis", 3), ("random", 3, 11)),
    "mixing": (("basis", 3), ("random", 3, 12)),
    "descendingly_flexible": (("basis", 2), ("basis", 3), ("random", 2, 20), ("random", 3, 21)),
    "descendingly_alternative": (("basis", 2), ("basis", 3), ("random", 2, 22), ("random", 3, 23)),
}


def _text_letters(text):
    return sorted(set(filter(str.isalpha, text.split(" in ")[0])))


def _stream_tuples(algebra, part, n, seed):
    from itertools import product

    from alglen.identities import random_element

    if part[0] == "basis":
        basis = [algebra.basis_element(i) for i in range(1, algebra.dim + 1)]
        return product(basis, repeat=part[1])
    _, arity, salt = part
    return (tuple(random_element(algebra, seed, arity * t + i + salt) for i in range(arity))
            for t in range(n))


def reference_verdict(algebra, name, seed, samples):
    """(kind, witness text, witness elements) of one class, its stream walked alone.

    A sweep class's texts of a tuple's arity are tested one by one with
    identity_violated; a sufficient condition walks its (b, a) grid with
    forced_coefficients.
    """
    from alglen.identities import IDENTITIES, sample_count

    n = sample_count(algebra, samples)
    if name.startswith("sufficient_condition_"):
        pair_class = {"flex": "descendingly_flexible", "alt": "descendingly_alternative"}
        texts = [t for t in IDENTITIES[pair_class[name.rsplit("_", 1)[1]]]
                 if len(_text_letters(t)) == 2]
        return _reference_sufficient(algebra, texts, seed, n)
    for part in STREAMS[name]:
        texts = [t for t in IDENTITIES[name] if len(_text_letters(t)) == part[1]]
        for elements in _stream_tuples(algebra, part, n, seed):
            values = dict(zip(_text_letters(texts[0]), elements))
            for text in texts:
                if identity_violated(algebra, text, values):
                    return "fails", text, values
    exhaustive = name in ("flexible", "alternative")
    return ("holds-exhaustive" if exhaustive else "holds-randomized"), None, None


def _reference_sufficient(algebra, texts, seed, n):
    from alglen.identities import random_element

    n_b = max(1, int(n**0.5))
    n_a = max(1, (n + n_b - 1) // n_b)
    basis = [algebra.basis_element(i) for i in range(1, algebra.dim + 1)]
    b_values = basis + [random_element(algebra, seed, 7_000 + t) for t in range(n_b)]
    a_values = basis + [random_element(algebra, seed, 8_000 + t) for t in range(n_a)]
    informative = pinned = 0
    for b in b_values:
        seen = None
        for a in a_values:
            rank, forced = forced_coefficients(algebra, a, b, texts)
            informative += 0 < rank < algebra.dim
            for text, (inside, g) in zip(texts, forced):
                lhs = text.split(" in ")[0]
                if not inside:
                    return "fails", text.replace(" in ", " outside "), {"a": a, "b": b}
                if g is None:
                    continue
                pinned += 1
                if seen is None:
                    seen = (a, g)
                elif g != seen[1]:
                    return ("fails", f"aa-coefficient forced by {lhs} inconsistent at fixed b",
                            {"a1": seen[0], "a2": a, "b": b})
    if not informative and not pinned:
        return "inconclusive", None, None
    return "holds-randomized", None, None
