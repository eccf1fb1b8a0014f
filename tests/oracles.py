"""Independent oracles the engine is checked against.

Everything here deliberately avoids the span engine's code paths: spans
are computed from full word enumeration with a local Gaussian elimination
on exact scalars (``rref_rows``, ``field_residue``), and canonical-form
signs are validated in the free multilinear setting with a parity
union-find over single-exchange rewrites.  The identity oracles avoid the
identity checks' paths and the engine's echelon routine: they evaluate
every word on exact scalars with ``multiply`` and test a membership by
the same local elimination over every span word, not on integer rows in a
lazily grown span.
The reference walk follows each class's tuple stream alone, with those
oracles; it shares only the sample draws (``random_element``) with the
checks.

The exact element arithmetic comes first: the sum, scalar multiple and
product of elements and the value of a word, on exact scalars, with the
sum and difference of two scalars.  The package makes its products and
sums of elements on integer rows (``Algebra.product_kernel``,
``words.word_row``), and these are its reference.

The last sections hold what the tests read and the package does not: the
example algebras the sweeps run on, by their ``alglen gen`` names, and
functions moved out of the package unchanged (the interpreted product loop
that ``Algebra.product_kernel`` replaced, the interpreted echelon routine
whose row operations the row kernels of ``spans`` replaced, the full word
enumeration,
the subspace enumeration over the engine's row tuples, the exact-length
sweep's candidates as the full enumeration filtered by the generation
pre-test's predicate, the conjugation twists of the Cayley-Dickson
doubling, the two-block subword family and two alternative-type bound
formulas).
"""

from functools import lru_cache
from itertools import combinations, permutations, product, takewhile
from math import gcd

from alglen.algebra import Algebra, Element, make_algebra
from alglen.bounds import alt_min_dim
from alglen.errors import (DimensionMismatch, DomainError, IndexOutOfRange, NotFiniteField,
                           ResourceLimit)
from alglen.field import Field, PrimeField, integer_row, rational_row
from alglen.io_cli import build_example
from alglen.spans import (DEFAULT_SUBSPACE_BUDGET, _check_budget, _generation_test,
                          _rref_basis)


# -- exact element arithmetic --------------------------------------------------


def field_add(field, a, b):
    """The exact sum of two scalars, reduced mod p over GF(p)."""
    p = field.characteristic
    return (a + b) % p if p else a + b


def field_sub(field, a, b):
    """The exact difference of two scalars, reduced mod p over GF(p)."""
    p = field.characteristic
    return (a - b) % p if p else a - b


def add(algebra, a, b):
    return tuple(field_add(algebra.field, x, y) for x, y in zip(a, b))


def scale(algebra, c, a):
    f = algebra.field
    return tuple(f.mul(c, x) for x in a)


def multiply(algebra, a, b):
    """Bilinear product of two coordinate vectors, as exact scalars.

    Exact integer arithmetic through ``algebra.product_kernel``: over Q
    both operands become integer numerators over a common denominator, and
    the output is divided once by the three denominators; over GF(p) each
    output coordinate is reduced mod p once.
    """
    if len(a) != algebra.dim or len(b) != algebra.dim:
        raise DimensionMismatch("element length does not match algebra dimension")
    product = algebra.product_kernel
    p = algebra.field.characteristic
    if p:
        return tuple(x % p for x in product(a, b))
    a, da = integer_row(a)
    b, db = integer_row(b)
    return rational_row(product(a, b), da * db * algebra.product_table[1])


def evaluate(algebra, gens, w):
    """Product of the generator elements respecting the bracketing of w, as exact scalars.

    ``gens`` is a sequence of elements; letter i names ``gens[i - 1]``.
    """
    if isinstance(w, int):
        if not 1 <= w <= len(gens):
            raise IndexOutOfRange(f"letter {w} with {len(gens)} generators")
        return gens[w - 1]
    return multiply(algebra, evaluate(algebra, gens, w[0]), evaluate(algebra, gens, w[1]))


# -- per-scalar Field-method references ---------------------------------------


def field_multiply(algebra, a, b):
    """Bilinear product summed term by term with the Field methods."""
    f = algebra.field
    acc = [0] * algebra.dim
    for (i, j), terms in algebra.sc.items():
        c = f.mul(a[i - 1], b[j - 1])
        for k, coeff in terms:
            acc[k - 1] = field_add(f, acc[k - 1], f.mul(c, coeff))
    return tuple(acc)


def field_residue(field, rref, vec):
    """Residue of vec modulo fully reduced RREF rows, with the Field methods."""
    v = list(vec)
    for row in rref:
        lead = next(i for i, x in enumerate(row) if not field.is_zero(x))
        c = v[lead]
        if not field.is_zero(c):
            v = [field_sub(field, x, field.mul(c, r)) for x, r in zip(v, row)]
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
                v = [field_sub(field, a, field.mul(c, b)) for a, b in zip(v, row)]
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
                rows[k] = [field_sub(field, a, field.mul(c, b))
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
        for w in enumerate_restricted(len(elements), m):
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
    acc = (0,) * algebra.dim
    for word in side.split(" + "):
        acc = add(algebra, acc, _word_value(algebra, values, word))
    return acc


def _full_span(algebra, values, words):
    """RREF rows (rref_rows) of the unity and the listed words, every word evaluated."""
    vectors = [algebra.unity] if algebra.unity is not None else []
    vectors += [_word_value(algebra, values, word) for word in words]
    return rref_rows(algebra.field, vectors, algebra.dim)


def identity_violated(algebra, text, values):
    """Whether the elements named in values break an ``=`` or ``in`` table text.

    Every word is evaluated with ``evaluate`` (``multiply`` on exact
    scalars), and a membership is tested in the span of every span word
    plus the unity.
    """
    from alglen.identities import SPANS

    lhs, _, rhs = text.partition(" = ")
    if rhs:
        return _total(algebra, values, lhs) != _total(algebra, values, rhs)
    lhs, _, span = lhs.replace(" outside ", " in ").partition(" in ")
    rows = _full_span(algebra, values, SPANS[span])
    f = algebra.field
    return not all(map(f.is_zero, field_residue(f, rows, _total(algebra, values, lhs))))


def forced_coefficients(algebra, a, b, texts):
    """Rank of the span of a, b, ab, ba and the unity, and per sandwich text
    whether its left side lies in that span plus aa, with the aa-coefficient
    it forces (None when aa lies in the span already)."""
    f = algebra.field
    values = {"a": a, "b": b}
    rows = _full_span(algebra, values, ("a", "b", "ab", "ba"))
    aa = field_residue(f, rows, _word_value(algebra, values, "aa"))
    lead = next((i for i, x in enumerate(aa) if not f.is_zero(x)), None)
    out = []
    for text in texts:
        r = field_residue(f, rows, _total(algebra, values, text.split(" in ")[0]))
        if lead is None:
            out.append((all(map(f.is_zero, r)), None))
        else:
            g = f.div(r[lead], aa[lead])
            out.append(([f.mul(g, x) for x in aa] == r, g))
    return len(rows), out


def coefficient_clash(algebra, texts, values):
    """Whether a1 and a2 force different aa-coefficients at b (see forced_coefficients)."""
    forced = {g for a in (values["a1"], values["a2"])
              for _, g in forced_coefficients(algebra, a, values["b"], texts)[1]
              if g is not None}
    return len(forced) > 1


# the text of a sufficient condition's failure where two pairs (a1, b), (a2, b)
# force different aa-coefficients, by the left side of a sandwich text
CLASH = "aa-coefficient forced by {} inconsistent at fixed b"


def pair_texts(name):
    """The two-letter texts of a class: a descending class's are its sandwich texts."""
    from alglen.identities import IDENTITIES

    return [t for t in IDENTITIES[name] if len(_text_letters(t)) == 2]


def witness_violated(algebra, witness):
    """Whether a failure witness's elements break its text.

    An ``=``, ``in`` or ``outside`` text goes to identity_violated, and a
    CLASH text to coefficient_clash over the sandwich texts of the
    descending class whose left side it names.
    """
    values = dict(witness.elements)
    for name in ("descendingly_flexible", "descendingly_alternative"):
        texts = pair_texts(name)
        if witness.equation in (CLASH.format(t.split(" in ")[0]) for t in texts):
            return coefficient_clash(algebra, texts, values)
    return identity_violated(algebra, witness.equation, values)


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
    forced_coefficients and, where it holds while the descending class it
    implies fails, the pairs on the line of that class's witness.
    """
    from alglen.identities import IDENTITIES, sample_count

    n = sample_count(algebra, samples)
    if name.startswith("sufficient_condition_"):
        pair_class = {"flex": "descendingly_flexible",
                      "alt": "descendingly_alternative"}[name.rsplit("_", 1)[1]]
        texts = pair_texts(pair_class)
        verdict = _reference_sufficient(algebra, texts, seed, n)
        if verdict[0].startswith("holds"):
            kind, text, values = reference_verdict(algebra, pair_class, seed, samples)
            if kind == "fails":
                return _reference_line(algebra, texts, text, values) or verdict
        return verdict
    for part in STREAMS[name]:
        texts = [t for t in IDENTITIES[name] if len(_text_letters(t)) == part[1]]
        for elements in _stream_tuples(algebra, part, n, seed):
            values = dict(zip(_text_letters(texts[0]), elements))
            for text in texts:
                if identity_violated(algebra, text, values):
                    return "fails", text, values
    exhaustive = name in ("flexible", "alternative")
    return ("holds-exhaustive" if exhaustive else "holds-randomized"), None, None


def _reference_row(algebra, texts, a_values, b):
    """(failure or None, informative pairs, forced coefficients) of the pairs (a, b)."""
    informative = pinned = 0
    seen = None
    for a in a_values:
        rank, forced = forced_coefficients(algebra, a, b, texts)
        informative += 0 < rank < algebra.dim
        for text, (inside, g) in zip(texts, forced):
            lhs = text.split(" in ")[0]
            if not inside:
                failure = "fails", text.replace(" in ", " outside "), {"a": a, "b": b}
                return failure, informative, pinned
            if g is None:
                continue
            pinned += 1
            if seen is None:
                seen = (a, g)
            elif g != seen[1]:
                failure = "fails", CLASH.format(lhs), {"a1": seen[0], "a2": a, "b": b}
                return failure, informative, pinned
    return None, informative, pinned


def _reference_sufficient(algebra, texts, seed, n):
    from alglen.identities import random_element

    n_b = max(1, int(n**0.5))
    n_a = max(1, (n + n_b - 1) // n_b)
    basis = [algebra.basis_element(i) for i in range(1, algebra.dim + 1)]
    b_values = basis + [random_element(algebra, seed, 7_000 + t) for t in range(n_b)]
    a_values = basis + [random_element(algebra, seed, 8_000 + t) for t in range(n_a)]
    informative = pinned = 0
    for b in b_values:
        failure, row_informative, row_pinned = _reference_row(algebra, texts, a_values, b)
        if failure:
            return failure
        informative += row_informative
        pinned += row_pinned
    if not informative and not pinned:
        return "inconclusive", None, None
    return "holds-randomized", None, None


# the letter each three-letter descending text holds fixed: the text is the
# linearization of a sandwich text at (a, b) = (x, f) in the other letters x, y
FIXED_LETTER = {"(ab)c + (cb)a": "b", "a(bc) + c(ba)": "b",
                "(ab)c + (ac)b": "a", "a(bc) + b(ac)": "c"}


def _reference_line(algebra, texts, text, values):
    """The failure at (x, f), (y, f) or (x + y, f) of a triple witness, or at a pair witness."""
    if len(values) == 2:
        a_values, b = [values["a"]], values["b"]
    else:
        f = FIXED_LETTER[text.split(" in ")[0]]
        x, y = (values[letter] for letter in "abc" if letter != f)
        a_values, b = [x, y, add(algebra, x, y)], values[f]
    return _reference_row(algebra, texts, a_values, b)[0]


# -- the example algebras the tests sweep --------------------------------------

# keyed as the test ids name them, each built as ``alglen gen <name>`` builds it
EXAMPLES = {
    "z2n1": "z2n:1",
    "z2n2": "z2n:2",
    "aflex": "aflex",
    "aalt": "aalt",
    "chain3": "chain3",
    "nilpotent3": "nilpotent3",
    "nonmix7": "nonmix7",
    "spin1": "spin:1",
    "spin2": "spin:2",
    "spin3": "spin:3",
    "matrix2": "matrix:2",
    "hull-aflex": "hull:aflex",
    "hull-aalt": "hull:aalt",
    "z2n3": "z2n:3",
    "matrix4": "matrix:4",
}


def example_algebras() -> dict:
    return {key: build_example(name) for key, name in EXAMPLES.items()}


# -- the interpreted product loop -----------------------------------------------


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


# -- the interpreted echelon routine --------------------------------------------


def echelon_reduce(rows, pivots, p: int, v) -> tuple:
    """``spans._reduce`` with its row operations as loops over the entries.

    (w, s) with w / s the residue of the int vector v modulo echelon rows:
    residues with pivot 1 over GF(p), w reduced mod p and s = 1; primitive
    rows with fraction-free (Bareiss) elimination over Q (``p = 0``).
    """
    if p:
        for row, j in zip(rows, pivots):
            c = v[j] % p
            if c:
                v = [x - c * y for x, y in zip(v, row)]
        return [x % p for x in v], 1
    s = 1
    for row, j in zip(rows, pivots):
        c = v[j]
        if c:
            r = row[j]
            g = gcd(r, c)
            if g != 1:
                r //= g
                c //= g
            if r == 1:
                v = [x - c * y for x, y in zip(v, row)]
            else:
                v = [r * x - c * y for x, y in zip(v, row)]
                s *= r
    return v, s


def echelon_insert(rows, pivots, p: int, v):
    """``spans._insert`` with its row operations as loops over the entries.

    Appends v's residue to the rows, scaled to pivot 1 over GF(p) and
    primitive (gcd 1, positive pivot) over Q, and returns it; None when v
    lies in the span of the rows.
    """
    v = echelon_reduce(rows, pivots, p, v)[0]
    for lead, x in enumerate(v):
        if x:
            break
    else:
        return None
    if p:
        s = pow(v[lead], -1, p)
        v = [x * s % p for x in v]
    else:
        g = gcd(*v)
        if v[lead] < 0:
            g = -g
        v = [x // g for x in v]
    rows.append(v)
    pivots.append(lead)
    return v


# -- full word enumeration -----------------------------------------------------


def word_letters(w) -> list:
    """Letter indices of a word in left-to-right leaf order."""
    if isinstance(w, int):
        return [w]
    return word_letters(w[0]) + word_letters(w[1])


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    if n == 0:
        return 1
    return catalan(n - 1) * 2 * (2 * n - 1) // (n + 1)


def _shapes(m: int):
    """All bracket shapes with m leaves; leaves are None placeholders.

    Ordered by the size of the left factor, recursively, which fixes the
    enumeration order of everything built on top.
    """
    if m == 1:
        yield None
        return
    for i in range(1, m):
        for left in _shapes(i):
            for right in _shapes(m - i):
                yield (left, right)


def _fill(shape, letters, pos=0):
    if shape is None:
        return letters[pos], pos + 1
    left, pos = _fill(shape[0], letters, pos)
    right, pos = _fill(shape[1], letters, pos)
    return (left, right), pos


def count_full(s_size: int, m: int) -> int:
    return catalan(m - 1) * s_size**m


DEFAULT_WORD_CAP = 2_000_000


def enumerate_full(s_size: int, m: int, cap: int | None = DEFAULT_WORD_CAP):
    """Every word of length exactly m: Catalan(m-1) shapes x s_size^m letters."""
    if m < 1:
        raise ValueError("word length must be >= 1")
    if cap is not None and count_full(s_size, m) > cap:
        raise ResourceLimit(f"{count_full(s_size, m)} words of length {m} exceed cap {cap}")
    for shape in _shapes(m):
        for letters in product(range(1, s_size + 1), repeat=m):
            word, _ = _fill(shape, letters, 0)
            yield word


# -- subspace enumeration over prime fields ------------------------------------


def all_subspace_rows(p: int, n: int):
    """Canonical RREF representative rows of every subspace of GF(p)^n.

    Rank ascending, pivot columns lexicographic, then free entries counted
    lexicographically in row-major order.  Rows are tuples of ints.
    """
    for r in range(n + 1):
        if r == 0:
            yield ()
            continue
        for pivots in combinations(range(n), r):
            free = [(i, j) for i in range(r) for j in range(pivots[i] + 1, n)
                    if j not in pivots]
            for values in product(range(p), repeat=len(free)):
                rows = [[0] * n for _ in range(r)]
                for i in range(r):
                    rows[i][pivots[i]] = 1
                for (i, j), val in zip(free, values):
                    rows[i][j] = val
                yield tuple(tuple(row) for row in rows)


def subspace_rows(p: int, n: int, must_contain, budget):
    """Row tuples of the subspaces to visit, after a budget check.

    Without a nonzero ``must_contain`` these are the RREF rows of every
    subspace of GF(p)^n.  With one, v, let c be its first nonzero
    coordinate: since v lies outside the hyperplane H = {x_c = 0},
    U -> U ∩ H is a bijection from the subspaces that contain v onto the
    subspaces of H, with inverse W -> W + <v>.  So the subspaces of
    GF(p)^(n-1) are enumerated, a zero is inserted at c, and each row tuple
    stands for its span plus <v>; no subspace is visited and then dropped.
    """
    c = None
    if must_contain is not None:
        c = next((i for i, x in enumerate(must_contain) if x % p), None)
    m = n if c is None else n - 1
    _check_budget(p, m, budget)
    rows_iter = all_subspace_rows(p, m)
    if c is None:
        return rows_iter
    return (tuple(r[:c] + (0,) + r[c:] for r in rows) for rows in rows_iter)


def generation_predicate(algebra, project):
    """The generation pre-test on row tuples: whether their images in A/K reach rank codim.

    ``project`` is the projection that ``spans._generation_test`` returns;
    the rank is taken by ``rref_rows``.
    """
    field, codim = algebra.field, len(project)

    def can_generate(rows) -> bool:
        images = [[sum(a * b for a, b in zip(row, f)) % field.p for f in project]
                  for row in rows]
        return len(rows) >= codim and len(rref_rows(field, images, codim)) == codim

    return can_generate


def sweep_candidates(algebra, budget=None) -> list:
    """The row tuples the exact-length sweep runs a ladder on, found the old way.

    Every lifted subspace (``subspace_rows``), cut after the last with codim
    rows when the pre-test is exact, then filtered by the pre-test's
    predicate; every lifted subspace when the algebra has no pre-test.
    """
    subspaces = subspace_rows(algebra.field.p, algebra.dim, algebra.unity, budget)
    test = _generation_test(algebra, budget)
    if test is None:
        return list(subspaces)
    project, codim, exact = test
    if exact:
        subspaces = takewhile(lambda rows: len(rows) <= codim, subspaces)
    return list(filter(generation_predicate(algebra, project), subspaces))


def enumerate_subspaces(field: Field, n: int, must_contain: Element | None = None,
                        budget: int | None = DEFAULT_SUBSPACE_BUDGET):
    """Every subspace of GF(p)^n exactly once, as SpanBasis objects.

    With ``must_contain`` only the subspaces containing that vector, each
    exactly once (every subspace when it is zero).  The budget counts the
    subspaces actually enumerated.
    """
    if not isinstance(field, PrimeField):
        raise NotFiniteField("subspace enumeration needs a prime field")
    if must_contain is not None and len(must_contain) != n:
        raise DimensionMismatch("must_contain has wrong length")
    for rows in subspace_rows(field.p, n, must_contain, budget):
        yield _rref_basis(field, n, rows, must_contain)


# -- conjugation twists of the Cayley-Dickson doubling -------------------------


def twist_conjugation(algebra: Algebra, side: str) -> Algebra:
    """Replace x*y of a doubling algebra by conj(x)y, x conj(y), or both.

    conj(a, b) = (conj(a), -b) fixes the unity u0 and negates every other
    basis vector.  The twisted products generally lose the unity, so none
    is declared.
    """
    if side not in ("left", "right", "both"):
        raise DomainError("side must be left, right, or both")
    f = algebra.field
    dim = algebra.dim
    conj_signs = [1] + [f.neg(1)] * (dim - 1)

    def twisted(i, j):
        ci = conj_signs[i - 1]
        cj = conj_signs[j - 1]
        terms = algebra.sc.get((i, j), ())
        factor = 1
        if side in ("left", "both"):
            factor = f.mul(factor, ci)
        if side in ("right", "both"):
            factor = f.mul(factor, cj)
        return [(k, f.mul(factor, c)) for k, c in terms]

    products = {}
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            terms = twisted(i, j)
            if terms:
                products[(i, j)] = terms
    return make_algebra(f, dim, products, labels=algebra.labels)


# -- two-block subword family and alternative-type bounds ----------------------


def alt_subword_family(k: int, m: int):
    """Count and stream of nonempty index-set pairs (I, J) of a two-block word.

    I runs over nonempty subsets of {1..k}, J over nonempty subsets of
    {1..m-k}; the count is (2^k - 1)(2^{m-k} - 1).
    """
    if not 1 <= k <= m - 1:
        raise ValueError("need 1 <= k <= m-1")
    count = (2**k - 1) * (2 ** (m - k) - 1)

    def stream():
        for li in range(1, k + 1):
            for i_set in combinations(range(1, k + 1), li):
                for lj in range(1, m - k + 1):
                    for j_set in combinations(range(1, m - k + 1), lj):
                        yield i_set, j_set

    return count, stream()


def alt_max_length_strong(dim_minus_d0: int) -> int:
    """Largest n >= 1 consistent with the alternative-type dimension bound."""
    if dim_minus_d0 < 1:
        raise DomainError("defined for dim - d_0 >= 1")
    n = 1
    while alt_min_dim(n + 1) <= dim_minus_d0:
        n += 1
    return n


def alt_word_dim_bound(n: int, k: int) -> int:
    """Span dimension forced by a surviving two-block word with blocks k, n-k."""
    if not 1 <= k <= n - 1:
        raise DomainError("need 1 <= k <= n-1")
    return max(k, n - k) + 2**n - 2**k - 2 ** (n - k) + 1
