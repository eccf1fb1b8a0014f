"""Span engine: Lin_k(S) ladders, difference sequences, and exact lengths.

The engine grows the span of words level by level using products of stored
new-part representatives instead of raw words; bilinearity makes the two
spans identical while the cost stays polynomial in the rank.  A ladder
stops once the current span V satisfies V*V <= V (the closure criterion):
then no longer word can leave it, so the sequence has ended for every
algebra.

SpanLadder works over any field and is the reference.  The exact-length
sweep over GF(p) runs one ladder per subspace, so it uses a copy of the
same ladder on plain residue lists (``_residue_ladder``) instead, with the
GF(p) row operations of SpanBasis and the algebra's compiled product table.
It runs no ladder on a subspace that a linear pre-test
(``_generation_test``) shows cannot generate the algebra.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from math import gcd
from operator import mul

from .algebra import Algebra, Element, table_product
from .errors import DimensionMismatch, NotFiniteField, ResourceLimit
from .field import Field, PrimeField, integer_row, rational_row
from .words import GeneratorSet, generator_set

DEFAULT_MAX_LEVEL = 64
DEFAULT_SUBSPACE_BUDGET = 2_000_000


def _reduce_mod(rows, pivots, p: int, v) -> list:
    """Residue of the int vector v modulo fully reduced rows over GF(p)."""
    for row, j in zip(rows, pivots):
        c = v[j] % p
        if c:
            v = [x - c * y for x, y in zip(v, row)]
    return [x % p for x in v]


def _normalize_mod(rows, p: int, v, lead: int) -> list:
    """v scaled to pivot 1 at lead; column lead is cleared from rows in place."""
    if v[lead] != 1:
        s = pow(v[lead], -1, p)
        v = [x * s % p for x in v]
    for idx, row in enumerate(rows):
        c = row[lead]
        if c:
            rows[idx] = [(x - c * y) % p for x, y in zip(row, v)]
    return v


def _insert_mod(rows, pivots, p: int, v):
    """Add the int vector v to fully reduced rows over GF(p).

    Returns v's residue scaled to pivot 1, now a row, or None when v already
    lies in their span.
    """
    v = _reduce_mod(rows, pivots, p, v)
    lead = next((j for j, x in enumerate(v) if x), None)
    if lead is None:
        return None
    v = _normalize_mod(rows, p, v, lead)
    rows.append(v)
    pivots.append(lead)
    return v


def _primitive(v: list, lead: int) -> list:
    """v divided by the gcd of its entries, signed so that v[lead] > 0."""
    g = gcd(*v)
    if v[lead] < 0:
        g = -g
    return v if g == 1 else [x // g for x in v]


class SpanBasis:
    """Reduced row-echelon basis of a subspace, grown by insertion.

    Over GF(p) the stored rows are the RREF rows, as residue lists.  Over Q
    they are primitive integer rows (gcd 1, positive pivot), each a positive
    multiple of its RREF row, and elimination is fraction-free (Bareiss):
    ``v <- (r_p/g) v - (v_p/g) r`` with ``g = gcd(r_p, v_p)``.  ``rows``,
    ``reduce`` and the residue ``insert`` returns are exact scalars, and
    ``contains`` builds none.
    """

    def __init__(self, field: Field, dim: int):
        self.field = field
        self.dim = dim
        self.p = field.characteristic  # 0 over Q
        self._rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> list[list]:
        """The RREF rows as exact scalars, in pivot order."""
        if self.p:
            return [list(r) for r in self._rows]
        return [list(rational_row(r, r[j])) for r, j in zip(self._rows, self.pivots)]

    def _residue(self, vec) -> tuple:
        """(w, s): integers w and s > 0 with w / s the residue of vec."""
        if len(vec) != self.dim:
            raise DimensionMismatch("vector length does not match basis dimension")
        if self.p:
            return _reduce_mod(self._rows, self.pivots, self.p, vec), 1
        v, s = integer_row(vec)
        for row, j in zip(self._rows, self.pivots):
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

    def reduce(self, vec) -> list:
        """Residue of vec modulo the current row space."""
        return list(rational_row(*self._residue(vec)))

    def contains(self, vec) -> bool:
        return not any(self._residue(vec)[0])

    def insert(self, vec):
        """Insert vec; returns (added, normalized residue or None)."""
        v, _ = self._residue(vec)
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            return False, None
        rows = self._rows
        if self.p:
            v = _normalize_mod(rows, self.p, v, lead)
            residue = tuple(v)
        else:
            v = _primitive(list(v), lead)
            a = v[lead]
            for idx, row in enumerate(rows):
                c = row[lead]
                if c:
                    g = gcd(a, c)
                    s, t = a // g, c // g
                    rows[idx] = _primitive([s * x - t * y for x, y in zip(row, v)],
                                           self.pivots[idx])
            residue = rational_row(v, a)
        pos = bisect.bisect_left(self.pivots, lead)
        rows.insert(pos, v)
        self.pivots.insert(pos, lead)
        return True, residue

    def row_tuples(self) -> tuple:
        return tuple(tuple(r) for r in self.rows)

    def copy(self) -> "SpanBasis":
        c = SpanBasis(self.field, self.dim)
        c._rows = [list(r) for r in self._rows]
        c.pivots = list(self.pivots)
        return c

    def __eq__(self, other):
        # both row forms are unique per subspace
        return isinstance(other, SpanBasis) and self.field == other.field \
            and self.dim == other.dim and self._rows == other._rows

    def __repr__(self):
        return f"SpanBasis(rank={self.rank}, dim={self.dim})"


@dataclass
class DiffSequence:
    """Dimension growth record of the span ladder of one generator set."""

    d: tuple
    length_of_set: int
    stabilized_by: str
    generating: bool
    total_rank: int
    dim: int

    def as_dict(self):
        return {
            "d": list(self.d),
            "length_of_set": self.length_of_set,
            "stabilized_by": self.stabilized_by,
            "generating": self.generating,
            "total_rank": self.total_rank,
            "dim": self.dim,
        }


class SpanLadder:
    """Incremental Lin_k(S) computation with per-level new-part bases."""

    def __init__(self, algebra: Algebra, gens):
        self.algebra = algebra
        self.field = algebra.field
        elements = gens.elements if isinstance(gens, GeneratorSet) else tuple(gens)
        self.gens = elements
        self.basis = SpanBasis(self.field, algebra.dim)
        self.level_reps: list[list] = []  # level_reps[k] spans Lin_k/Lin_{k-1}
        self.d: list[int] = []
        self._spanning: list = []  # append-only spanning set of the current span
        self._pending: list = []  # (u, v) spanning pairs not yet verified closed
        self._paired = 0  # prefix of _spanning already paired up
        # level 0
        d0 = 0
        if algebra.unity is not None:
            added, _ = self.basis.insert(algebra.unity)
            if added:
                self._spanning.append(tuple(algebra.unity))
                d0 = 1
        self.d.append(d0)
        self.level_reps.append(list(self._spanning))

    @property
    def level(self) -> int:
        return len(self.d) - 1

    def _record(self, new_reps):
        self.d.append(len(new_reps))
        self.level_reps.append(new_reps)
        self._spanning.extend(new_reps)

    def step_general(self) -> int:
        """Advance one level using all split products of new-part bases."""
        m = self.level + 1
        new_reps = []
        if m == 1:
            candidates = self.gens
        else:
            candidates = (
                self.algebra.multiply(u, v)
                for i in range(1, m)
                for u in self.level_reps[i]
                for v in self.level_reps[m - i]
            )
        for vec in candidates:
            added, res = self.basis.insert(vec)
            if added:
                new_reps.append(res)
        self._record(new_reps)
        return len(new_reps)

    def is_closed(self) -> bool:
        """True when the span absorbs products of its own spanning set.

        Only sound as a stabilization certificate once the generators are
        inside the span, i.e. from level 1 on (or at level 0 when every
        generator already reduces to zero).
        """
        if self.level == 0 and any(not self.basis.contains(s) for s in self.gens):
            return False
        n = len(self._spanning)
        if n > self._paired:
            for i in range(n):
                for j in range(n):
                    if i >= self._paired or j >= self._paired:
                        self._pending.append((self._spanning[i], self._spanning[j]))
            self._paired = n
        still = []
        for u, v in self._pending:
            if not self.basis.contains(self.algebra.multiply(u, v)):
                still.append((u, v))
        self._pending = still
        return not still

    def lin_basis(self) -> SpanBasis:
        return self.basis


def solve_coordinates(field: Field, vectors, target):
    """Unique coefficients of target in the listed vectors, with a status.

    Returns ("ok", coeffs) when the vectors are independent and the target
    lies in their span, ("dependent", None) when the list is dependent, and
    ("outside", None) otherwise.
    """
    t = len(vectors)
    dim = len(target)
    basis = SpanBasis(field, t + 1)
    for i in range(dim):
        basis.insert([vec[i] for vec in vectors] + [target[i]])
    pivots = set(basis.pivots)
    if len(pivots & set(range(t))) != t:
        return "dependent", None
    if t in pivots:
        return "outside", None
    coeffs = [field.zero()] * t
    for row, p in zip(basis.rows, basis.pivots):
        coeffs[p] = row[t]
    return "ok", coeffs


def span_ladder_up_to(algebra: Algebra, gens, k: int) -> SpanLadder:
    """Ladder advanced to level k (or to stabilization, whichever is first)."""
    ladder = SpanLadder(algebra, gens)
    for _ in range(k):
        if ladder.is_closed():
            break
        ladder.step_general()
    return ladder


def _level_cap(max_level: int | None, dim: int) -> int:
    return max_level if max_level is not None else max(DEFAULT_MAX_LEVEL, dim + 2)


def diff_sequence(algebra: Algebra, gens, max_level: int | None = None) -> DiffSequence:
    """Full difference sequence of one generator set, until the span is closed."""
    ladder = SpanLadder(algebra, gens)
    cap = _level_cap(max_level, algebra.dim)
    while not ladder.is_closed():
        if ladder.level >= cap:
            raise ResourceLimit(f"general-mode run exceeded {cap} levels")
        ladder.step_general()

    d = list(ladder.d)
    while len(d) > 1 and d[-1] == 0:
        d.pop()
    length = max((k for k, dk in enumerate(d) if dk != 0), default=0)
    total = sum(d)
    if not (total == ladder.basis.rank and total <= algebra.dim):
        raise AssertionError
    _check_first_difference(algebra, ladder.gens, d)
    return DiffSequence(
        d=tuple(d),
        length_of_set=length,
        stabilized_by="closure-criterion",
        generating=(total == algebra.dim),
        total_rank=total,
        dim=algebra.dim,
    )


def _check_first_difference(algebra, elements, d):
    # d_1 must equal rank(S) resp. rank(S + {e}) - 1; recomputed independently
    probe = SpanBasis(algebra.field, algebra.dim)
    if algebra.unity is not None:
        probe.insert(algebra.unity)
    base = probe.rank
    for s in elements:
        probe.insert(s)
    d1 = d[1] if len(d) > 1 else 0
    if d1 != probe.rank - base:
        raise AssertionError("first difference disagrees with rank of S")


def length_of_set(algebra: Algebra, gens, max_level: int | None = None) -> int:
    return diff_sequence(algebra, gens, max_level=max_level).length_of_set


# -- subspace enumeration over prime fields --------------------------------


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def count_subspaces(n: int, q: int) -> int:
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def enumerate_subspace_rows(p: int, n: int):
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


def _subspace_rows(p: int, n: int, must_contain, budget):
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
    if budget is not None and count_subspaces(m, p) > budget:
        raise ResourceLimit(f"{count_subspaces(m, p)} subspaces exceed budget {budget}")
    rows_iter = enumerate_subspace_rows(p, m)
    if c is None:
        return rows_iter
    return (tuple(r[:c] + (0,) + r[c:] for r in rows) for rows in rows_iter)


def _rref_basis(field: Field, n: int, rows, extra=None) -> SpanBasis:
    """Reduced row-echelon basis of the span of rows, plus extra if given."""
    basis = SpanBasis(field, n)
    for row in rows:
        basis.insert(list(row))
    if extra is not None:
        basis.insert(list(extra))
    return basis


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
    for rows in _subspace_rows(field.p, n, must_contain, budget):
        yield _rref_basis(field, n, rows, must_contain)


# -- exact algebra length over prime fields ---------------------------------


def _residue_ladder(table: list, p: int, unity, max_level, gens) -> tuple:
    """(l(S), S generates A) of the span ladder of gens over GF(p).

    The same steps, stopping rule and level cap as diff_sequence on
    SpanLadder, on lists of residues with ``% p`` inlined; ``table`` is the
    algebra's ``product_table``.  The basis rows are kept fully reduced in
    insertion order, so a vector's pivot entries are its coefficients.  Two
    shortcuts leave the result unchanged: the ladder stops once the span is
    all of A (it is closed and can gain nothing), and the closure check
    stops at the first pair whose product leaves the span (the others stay
    pending).
    """
    n = len(table)
    rows, pivots = [], []
    mul = partial(table_product, table)
    residue = partial(_reduce_mod, rows, pivots, p)

    def insert(vectors):
        """Insert each vector; the normalized residues that were new."""
        new = []
        for v in vectors:
            v = _insert_mod(rows, pivots, p, v)
            if v is not None:
                new.append(v)
                if len(rows) == n:
                    break
        return new

    level_reps = [insert([unity] if unity is not None else [])]
    cap = _level_cap(max_level, n)
    spanning = []
    pending = []  # (u, v) spanning pairs not yet known to multiply into the span

    def closed(level):
        for u in level_reps[level]:
            spanning.append(u)
            pending.extend((u, v) for v in spanning)
            pending.extend((v, u) for v in spanning[:-1])
        if level == 0 and any(any(residue(s)) for s in gens):
            return False
        while pending:
            if any(residue(mul(*pending[-1]))):
                return False
            pending.pop()
        return True

    while len(rows) < n:
        level = len(level_reps) - 1
        if closed(level):
            break
        if level >= cap:
            raise ResourceLimit(f"general-mode run exceeded {cap} levels")
        m = level + 1
        if m == 1:
            new = insert(gens)
        else:
            new = insert(mul(u, v) for i in range(1, m)
                         for u in level_reps[i] for v in level_reps[m - i])
        level_reps.append(new)

    length = max((k for k, reps in enumerate(level_reps) if reps), default=0)
    return length, len(rows) == n


def _character(algebra: Algebra):
    """Values chi(b_1), ..., chi(b_n) of the first character of A, or None.

    A character of a unital A over GF(p) is a linear chi: A -> GF(p) with
    chi(e) = 1 and chi(xy) = chi(x) chi(y); by bilinearity it is enough to
    check chi(b_i b_j) = chi(b_i) chi(b_j).  With c the first nonzero
    coordinate of e, the p^(n-1) functionals with chi(e) = 1 are tried with
    their values off c counted lexicographically and chi(b_c) solved from
    chi(e) = 1.
    """
    p, n, e = algebra.field.p, algebra.dim, algebra.unity
    table = algebra.product_table[0]
    c = next(i for i, x in enumerate(e) if x % p)
    inv = pow(e[c], -1, p)
    others = [j for j in range(n) if j != c]
    pairs = [(i, j, dict(table[i]).get(j, ())) for i in range(n) for j in range(n)]
    for values in product(range(p), repeat=n - 1):
        chi = [0] * n
        for j, x in zip(others, values):
            chi[j] = x
        chi[c] = (1 - sum(chi[j] * e[j] for j in others)) * inv % p
        if all((sum(s * chi[k] for k, s in terms) - chi[i] * chi[j]) % p == 0
               for i, j, terms in pairs):
            return chi
    return None


def _augmentation_ideal(algebra: Algebra):
    """Rows spanning the ideal M of the generation pre-test, or None.

    M is A itself when A has no unity, and ker chi for the first character
    chi (see _character) when it has one; a unital A without a character
    has no M, and neither has one whose declared unity does not act as the
    identity (the library does not check it).  The rows are b_j, resp.
    b_j - chi(b_j) e, for every j.
    """
    n, e = algebra.dim, algebra.unity
    if e is None:
        return [[int(i == j) for i in range(n)] for j in range(n)]
    if not algebra.verify_unity()[0]:
        return None
    chi = _character(algebra)
    if chi is None:
        return None
    p = algebra.field.p
    return [[(int(i == j) - chi[j] * x) % p for i, x in enumerate(e)] for j in range(n)]


def _generation_test(algebra: Algebra):
    """Predicate on subspace rows that rejects only non-generating subspaces.

    With M from _augmentation_ideal, let K = M^2, plus <e> when A is unital.
    The subalgebra generated by V (and e) lies in V + K: every v in V is
    chi(v) e plus an element of M, and every product of two or more elements
    of M lies in M^2.  So V generates A only if V + K = A, i.e. only if the
    rows of V project onto A/K.  When M is nilpotent the converse holds too,
    since then any subspace N with N + M^2 = M generates M.  K and the
    projection of each basis vector onto A/K (its residue modulo K at the
    columns that are no pivot of K) are computed once, and the image of
    each row tuple once.  The predicate is None when A has no M, or when
    K = A, so that it would reject nothing.
    """
    m_rows = _augmentation_ideal(algebra)
    if m_rows is None:
        return None
    p, n, e = algebra.field.p, algebra.dim, algebra.unity
    table = algebra.product_table[0]
    k_rows, k_pivots = [], []
    if e is not None:
        _insert_mod(k_rows, k_pivots, p, list(e))
    for u in m_rows:
        for v in m_rows:
            _insert_mod(k_rows, k_pivots, p, table_product(table, u, v))
    codim = n - len(k_rows)
    if codim == 0:
        return None
    free = [j for j in range(n) if j not in k_pivots]
    images = [_reduce_mod(k_rows, k_pivots, p, [int(i == j) for i in range(n)])
              for j in range(n)]
    columns = [[image[j] for image in images] for j in free]
    projections = {}  # row tuple -> its image in A/K; rows recur across subspaces

    def can_generate(rows) -> bool:
        if len(rows) < codim:
            return False
        span, pivots = [], []
        for row in rows:
            image = projections.get(row)
            if image is None:
                image = projections[row] = [sum(map(mul, row, column)) % p
                                            for column in columns]
            if _insert_mod(span, pivots, p, image) is not None and len(span) == codim:
                return True
        return False

    return can_generate


def exact_algebra_length(algebra: Algebra, budget: int | None = DEFAULT_SUBSPACE_BUDGET,
                         max_level: int | None = None):
    """Maximum of l(S) over generating sets, with an achieving witness.

    The maximum over all generating sets equals the maximum over RREF bases
    of subspaces (containing the unity when there is one), because the span
    ladder of S depends on S only through Lin_1(S).  Prime fields only.
    For a unital algebra only the subspaces containing the unity are
    enumerated (see _subspace_rows), and the budget counts those.  The
    witness is the RREF basis of the first subspace in enumeration order
    that attains the maximum.  ``max_level`` caps each ladder as in
    diff_sequence.

    A linear pre-test (_generation_test) skips the ladder of a subspace V
    when V + K != A, with K = A^2 for a non-unital A and K = <e> + M^2 for
    a unital one, M the kernel of a character.  The subalgebra V generates
    lies in V + K, so a skipped V never generates, and neither the maximum
    nor the witness nor the budget count can change; only a ``max_level``
    that a skipped ladder alone would exceed no longer raises.  The test is
    exact when M (or A) is nilpotent; a unital A without a character is
    swept in full.  The character search comes after the budget check.
    """
    field = algebra.field
    if not isinstance(field, PrimeField):
        raise NotFiniteField("exact length needs a prime field")
    n, unity = algebra.dim, algebra.unity
    run = partial(_residue_ladder, algebra.product_table[0], field.p,
                  list(unity) if unity is not None else None, max_level)
    subspaces = _subspace_rows(field.p, n, unity, budget)
    can_generate = _generation_test(algebra)
    if can_generate is not None:
        subspaces = filter(can_generate, subspaces)
    best = None
    for rows in subspaces:
        length, generating = run(rows)
        if generating and (best is None or length > best[0]):
            best = (length, rows)
    if best is None:
        raise AssertionError("the whole space always generates")
    length, rows = best
    basis = _rref_basis(field, n, rows, unity)
    witness = generator_set([algebra.element(r) for r in basis.row_tuples()])
    return length, witness
