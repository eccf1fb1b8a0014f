"""Span engine: Lin_k(S) ladders, difference sequences, and exact lengths.

The engine grows the span of words level by level using products of stored
new-part representatives instead of raw words; bilinearity makes the two
spans identical while the cost stays polynomial in the rank.  A ladder
stops once the current span V satisfies V*V <= V (the closure criterion):
then no longer word can leave it, so the sequence has ended for every
algebra.

One ladder (``_ladder``) serves diff_sequence, lin_span and the exact-length
sweep.  It works on integer rows over both fields, since spans do not
depend on scaling, multiplied through the algebra's compiled product
kernel.  One echelon routine, ``_reduce`` and ``_insert``, does the row
arithmetic of both fields and branches on the characteristic p (0 over
Q) once per call: residues with pivot 1 over GF(p), primitive integer
rows with fraction-free elimination over Q.  The ladder, SpanBasis, the
generation pre-test and the identity checks all call it; none of them
picks row operations by field.  It keeps echelon rows, each reduced only
against the rows inserted before it, which is all that a residue needs;
SpanBasis builds the reduced row-echelon form only where it is read.  The
sweep runs no ladder on a subspace that a linear pre-test
(``_generation_test``) shows cannot generate the algebra.  Where that
test is exact, it runs none on a subspace larger than a minimal
generating one, and the ladders it runs skip the closure check, since
every subspace they start from generates.

A generator set S is any sequence of elements of the algebra, and the
exact-length witness is a tuple of them.  find_unity solves for an
identity element with a SpanBasis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, product, takewhile
from math import gcd
from operator import mul

from .algebra import Algebra, Element
from .errors import DimensionMismatch, NotFiniteField, ResourceLimit
from .field import Field, PrimeField, integer_row, rational_row

DEFAULT_MAX_LEVEL = 64
DEFAULT_SUBSPACE_BUDGET = 2_000_000


def _primitive(v: list, lead: int) -> list:
    """v divided by the gcd of its entries, signed so that v[lead] > 0."""
    g = gcd(*v)
    if v[lead] < 0:
        g = -g
    return v if g == 1 else [x // g for x in v]


def _reduce(rows, pivots, p: int, v) -> tuple:
    """(w, s): integers w and s > 0 with w / s the residue of the int vector v.

    The rows are echelon rows, each zero at the pivots of the rows before
    it, so one pass in insertion order leaves v zero at every pivot.  Over
    GF(p) they are residues with pivot 1, w holds residues and s = 1.  Over
    Q (``p = 0``) they are primitive rows and elimination is fraction-free
    (Bareiss): ``v <- (r_j/g) v - (v_j/g) r`` with ``g = gcd(r_j, v_j)``
    for the row r with pivot j.
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


def _insert(rows, pivots, p: int, v):
    """Add the int vector v to echelon rows over GF(p), or over Q when p = 0.

    Returns v's residue, now the last row, or None when v already lies in
    their span: scaled to pivot 1 over GF(p), a primitive row (gcd 1,
    positive pivot) over Q.  The older rows are left as they are: each row
    is reduced only against the rows before it, which is all that _reduce
    needs.
    """
    v = _reduce(rows, pivots, p, v)[0]
    for lead, x in enumerate(v):  # a loop, not a generator: this runs once per insertion
        if x:
            break
    else:
        return None
    if not p:
        v = _primitive(list(v), lead)
    elif v[lead] != 1:
        s = pow(v[lead], -1, p)
        v = [x * s % p for x in v]
    rows.append(v)
    pivots.append(lead)
    return v


def _check_length(vec, dim: int) -> None:
    if len(vec) != dim:
        raise DimensionMismatch("vector length does not match basis dimension")


class SpanBasis:
    """Basis of a subspace, grown by insertion; reduced row-echelon where read.

    The rows are stored in insertion order, in the row forms of the span
    ladder (``_insert``), each reduced only against the rows inserted
    before it: residues scaled to pivot 1 over GF(p), primitive integer rows
    (gcd 1, positive pivot) with fraction-free elimination over Q.  That is
    enough for ``add``, ``residue`` and ``contains``, since the residue of
    a vector is the unique vector of its coset that is zero at every pivot.
    The reduced row-echelon form is built only where it is read
    (``_ordered``, behind ``rows`` and ``row_tuples``).  ``rows`` and
    ``pivots`` are in pivot order; ``rows`` are exact scalars, while
    ``add``, ``residue`` and ``contains`` build none.  Any vector may be
    given as an integer row, since a rational vector with integer entries
    is one.
    """

    def __init__(self, field: Field, dim: int):
        self.field = field
        self.dim = dim
        self.p = field.characteristic  # 0 over Q
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _ordered(self) -> list:
        """(pivot, RREF row) pairs in pivot order, unique per subspace.

        The rows inserted after a row are zero at its pivot, so reducing it
        against them clears every other pivot and keeps its own.  Over Q the
        row is the primitive positive multiple of the RREF row; over GF(p) a
        row with pivot 1 is already primitive.
        """
        rows, pivots, p = self._rows, self._pivots, self.p
        ordered = []
        for i, j in enumerate(pivots):
            row = _reduce(rows[i + 1:], pivots[i + 1:], p, rows[i])[0]
            ordered.append((j, _primitive(row, j)))
        return sorted(ordered)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._pivots)

    @property
    def rows(self) -> list[list]:
        """The RREF rows as exact scalars, in pivot order."""
        return [list(rational_row(r, r[j])) for j, r in self._ordered()]

    def residue(self, vec) -> tuple:
        """(w, s): integers w and s > 0 with w / s the residue of vec."""
        _check_length(vec, self.dim)
        v, d = integer_row(vec)
        w, s = _reduce(self._rows, self._pivots, self.p, v)
        return w, s * d

    def contains(self, vec) -> bool:
        return not any(self.residue(vec)[0])

    def add(self, vec) -> bool:
        """Insert vec without building its residue; whether the span grew."""
        _check_length(vec, self.dim)
        return _insert(self._rows, self._pivots, self.p, integer_row(vec)[0]) is not None

    def row_tuples(self) -> tuple:
        return tuple(tuple(r) for r in self.rows)

    def __repr__(self):
        return f"SpanBasis(rank={self.rank}, dim={self.dim})"


def find_unity(algebra: Algebra) -> Element | None:
    """Solve for a two-sided identity element, or None if there is none.

    Diagnostic only: the result is never attached to the algebra, since a
    declared unity changes the zero-length word count and with it the
    meaning of every length statement.
    """
    n = algebra.dim
    basis = [algebra.basis_element(i) for i in range(1, n + 1)]
    # unknowns x_j with sum_j x_j (b_j b_i) = b_i = sum_j x_j (b_i b_j): one
    # equation per coordinate of each side, as a row (coefficients | b_i)
    system = SpanBasis(algebra.field, n + 1)
    for bi in basis:
        for products in ([algebra.multiply(bj, bi) for bj in basis],
                         [algebra.multiply(bi, bj) for bj in basis]):
            for k in range(n):
                system.add([v[k] for v in products] + [bi[k]])
    # a pivot in the last column makes the system inconsistent; a column
    # without one leaves a nonzero kernel, and adding a kernel vector to a
    # solution would give a second identity element, which cannot exist
    if system.pivots != list(range(n)):
        return None
    return tuple(row[n] for row in system.rows)


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


def _level_cap(max_level: int | None, dim: int) -> int:
    return max_level if max_level is not None else max(DEFAULT_MAX_LEVEL, dim + 2)


def _ladder(mul, n: int, p: int, unity, max_level, gens, *, closure=True) -> list:
    """Span ladder of gens: level_reps[k] spans Lin_k(S) modulo Lin_(k-1)(S).

    Every vector is an integer row of length n, and ``mul`` is the
    algebra's ``product_kernel``.  ``p`` is passed on to ``_insert`` and
    ``_reduce``, which keep residues with pivot 1 over GF(p) and primitive
    integer rows over Q (``p = 0``).  Over Q the products ignore the
    table's common denominator D, as the rows ignore their own, since a
    span does not depend on the scaling of the vectors that span it.  Level
    0 is the unity (None when there is none), level 1 the gens, and level m
    the products of the representatives of levels i and m - i.

    The ladder stops once its span V is closed, V*V <= V, which counts only
    once the gens lie in V: then no longer word can leave V.  It raises
    ResourceLimit past the level cap.  Two shortcuts leave the result
    unchanged: the ladder stops once the span is all of A (it is closed and
    can gain nothing), and the closure check stops at the first pair whose
    product leaves the span (the others stay pending).

    With ``closure=False`` the ladder runs no closure check and stops only
    at full rank.  That is for gens known to generate A: their span is
    closed only once it is A, so the levels are the same.  Gens that do not
    generate A then run into the level cap and raise ResourceLimit; they
    never give a wrong ladder.
    """
    rows, pivots = [], []
    add = partial(_insert, rows, pivots, p)

    def residue(v):
        return _reduce(rows, pivots, p, v)[0]

    def insert(vectors):
        """Insert each vector; the new rows."""
        new = []
        for v in vectors:
            v = add(v)
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
        if closure and closed(level):
            break
        if level >= cap:
            raise ResourceLimit(f"span ladder exceeded {cap} levels")
        m = level + 1
        if m == 1:
            new = insert(gens)
        else:
            new = insert(mul(u, v) for i in range(1, m)
                         for u in level_reps[i] for v in level_reps[m - i])
        level_reps.append(new)
    return level_reps


def _set_ladder(algebra: Algebra, elements, max_level=None) -> list:
    """_ladder of elements of the algebra, after a length check."""
    for s in elements:
        _check_length(s, algebra.dim)
    unity = algebra.unity
    if unity is not None:
        unity = integer_row(unity)[0]
    return _ladder(algebra.product_kernel, algebra.dim, algebra.field.characteristic, unity,
                   max_level, [integer_row(s)[0] for s in elements])


def lin_span(algebra: Algebra, gens, k: int) -> SpanBasis:
    """Lin_k(S): the span of the unity and of the words of length at most k.

    ``gens`` is S, any sequence of elements of the algebra.
    """
    basis = SpanBasis(algebra.field, algebra.dim)
    for reps in _set_ladder(algebra, gens)[:k + 1]:
        for v in reps:
            basis.add(v)
    return basis


def diff_sequence(algebra: Algebra, gens, max_level: int | None = None) -> DiffSequence:
    """Difference sequence d_k = dim Lin_k(S) - dim Lin_(k-1)(S) of a generator set.

    ``gens`` is S, any sequence of elements of the algebra.  The sizes of
    the levels of _ladder, which runs until the span is closed, without
    trailing zeros; l(S) is the last level with d_k != 0.  d_1 is checked
    against the rank of S by a separate SpanBasis.
    """
    d = [len(reps) for reps in _set_ladder(algebra, gens, max_level)]
    while len(d) > 1 and d[-1] == 0:
        d.pop()
    _check_first_difference(algebra, gens, d)
    total = sum(d)
    return DiffSequence(
        d=tuple(d),
        length_of_set=len(d) - 1,
        stabilized_by="closure-criterion",
        generating=(total == algebra.dim),
        total_rank=total,
        dim=algebra.dim,
    )


def _check_first_difference(algebra, elements, d):
    # d_1 must equal rank(S) resp. rank(S + {e}) - 1; recomputed independently
    probe = SpanBasis(algebra.field, algebra.dim)
    if algebra.unity is not None:
        probe.add(algebra.unity)
    base = probe.rank
    for s in elements:
        probe.add(s)
    d1 = d[1] if len(d) > 1 else 0
    if d1 != probe.rank - base:
        raise AssertionError("first difference disagrees with rank of S")


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


def _check_budget(p: int, m: int, budget) -> None:
    """Refuse, before any work, to enumerate more than budget subspaces of GF(p)^m.

    GF(p)^m has at least p^(m-1) >= 2^(m-1) lines alone, so once m - 1
    reaches budget.bit_length() the budget is exceeded without a count (a
    number of about m^2/4 * log2(p) bits, slow to compute and to print).
    Only a small m is counted in full, and only a short count is printed.
    """
    if budget is None:
        return
    if m - 1 >= budget.bit_length():
        raise ResourceLimit(f"at least {p}^{m - 1} subspaces exceed budget {budget}")
    count = count_subspaces(m, p)
    if count > budget:
        shown = count if count.bit_length() <= 64 else "over 2^64"
        raise ResourceLimit(f"{shown} subspaces exceed budget {budget}")


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
    _check_budget(p, m, budget)
    rows_iter = enumerate_subspace_rows(p, m)
    if c is None:
        return rows_iter
    return (tuple(r[:c] + (0,) + r[c:] for r in rows) for rows in rows_iter)


def _rref_basis(field: Field, n: int, rows, extra=None) -> SpanBasis:
    """Reduced row-echelon basis of the span of rows, plus extra if given."""
    basis = SpanBasis(field, n)
    for row in rows:
        basis.add(row)
    if extra is not None:
        basis.add(extra)
    return basis


# -- exact algebra length over prime fields ---------------------------------


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


def _augmentation_ideal(algebra: Algebra, budget: int | None = None):
    """Rows spanning the ideal M of the generation pre-test, or None.

    M is A itself when A has no unity, and ker chi for the first character
    chi (see _character) when it has one; a unital A without a character
    has no M, and neither has one whose declared unity does not act as the
    identity (the library does not check it).  Nor has a unital A when the
    p^(n-1) functionals the character search tries exceed ``budget``: the
    search is skipped, and the sweep runs without the pre-test.  The rows
    are b_j, resp. b_j - chi(b_j) e, for every j.
    """
    n, e = algebra.dim, algebra.unity
    if e is None:
        return [[int(i == j) for i in range(n)] for j in range(n)]
    if budget is not None and algebra.field.p ** (n - 1) > budget:
        return None
    if not algebra.verify_unity()[0]:
        return None
    chi = _character(algebra)
    if chi is None:
        return None
    p = algebra.field.p
    return [[(int(i == j) - chi[j] * x) % p for i, x in enumerate(e)] for j in range(n)]


def _nilpotent(mul, p: int, m_rows) -> bool:
    """Whether the ideal M spanned by m_rows is nilpotent, over GF(p).

    ``mul`` is the algebra's ``product_kernel``.  The chain T_1 = M,
    T_(k+1) = M T_k + T_k M only shrinks, since M is an ideal, and once its
    dimension stops falling it stays the same.  T_(k+1) spans the results
    of k multiplications, each by one element of M, of an element of M.  A
    word in at least 2^k elements of M has a leaf at depth k or more, so it
    is such a result.  So M is nilpotent if and only if the chain reaches
    0, after at most dim M steps.
    """
    basis, pivots = [], []
    for u in m_rows:
        _insert(basis, pivots, p, u)
    chain = basis
    while chain:
        rows, pivots = [], []
        for u in basis:
            for t in chain:
                _insert(rows, pivots, p, mul(u, t))
                _insert(rows, pivots, p, mul(t, u))
        if len(rows) == len(chain):
            return False
        chain = rows
    return True


def _generation_test(algebra: Algebra, budget: int | None = None):
    """(predicate, codim, exact): a linear test that V can generate A, or None.

    The predicate on subspace rows rejects only non-generating subspaces.
    With M from _augmentation_ideal, let K = M^2, plus <e> when A is unital.
    The subalgebra generated by V (and e) lies in V + K: every v in V is
    chi(v) e plus an element of M, and every product of two or more elements
    of M lies in M^2.  So V generates A only if V + K = A, i.e. only if the
    rows of V project onto A/K, of dimension ``codim``.  ``exact`` tells
    whether M is nilpotent (see _nilpotent); then the converse holds too,
    since any subspace N with N + M^2 = M generates M, and V generates A if
    and only if its rows reach rank codim in A/K.  K and the projection of
    each basis vector onto A/K (its residue modulo K at the columns that are
    no pivot of K) are computed once, and the image of each row tuple once.
    The result is None when A has no M (``budget`` as in
    _augmentation_ideal), or when K = A, so that the predicate would reject
    nothing.
    """
    m_rows = _augmentation_ideal(algebra, budget)
    if m_rows is None:
        return None
    p, n, e = algebra.field.p, algebra.dim, algebra.unity
    product = algebra.product_kernel
    k_rows, k_pivots = [], []
    if e is not None:
        _insert(k_rows, k_pivots, p, e)
    for u in m_rows:
        for v in m_rows:
            _insert(k_rows, k_pivots, p, product(u, v))
    codim = n - len(k_rows)
    if codim == 0:
        return None
    free = [j for j in range(n) if j not in k_pivots]
    images = [_reduce(k_rows, k_pivots, p, [int(i == j) for i in range(n)])[0]
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
            if _insert(span, pivots, p, image) is not None and len(span) == codim:
                return True
        return False

    return can_generate, codim, _nilpotent(product, p, m_rows)


def exact_algebra_length(algebra: Algebra, budget: int | None = DEFAULT_SUBSPACE_BUDGET,
                         max_level: int | None = None):
    """Maximum of l(S) over generating sets, with an achieving witness.

    The maximum over all generating sets equals the maximum over RREF bases
    of subspaces (containing the unity when there is one), because the span
    ladder of S depends on S only through Lin_1(S).  Prime fields only.
    For a unital algebra only the subspaces containing the unity are
    enumerated (see _subspace_rows), and the budget counts those.  The
    witness is the RREF basis of the first subspace in enumeration order
    that attains the maximum, as a tuple of elements.  ``max_level`` caps
    each ladder as in diff_sequence.

    A linear pre-test (_generation_test) skips the ladder of a subspace V
    when V + K != A, with K = A^2 for a non-unital A and K = <e> + M^2 for
    a unital one, M the kernel of a character.  The subalgebra V generates
    lies in V + K, so a skipped V never generates.  The test is exact when
    M (or A) is nilpotent: V generates if and only if its lifted rows reach
    rank codim = dim A/K in A/K.  Then the sweep stops at the first row
    tuple with more than codim rows.  Since Lin_k(U) <= Lin_k(V) for U <= V,
    a generating V is never longer than a generating U inside it, and a
    passing V with more than codim rows contains a passing U with exactly
    codim of them, enumerated earlier (ranks ascend).  So the first
    subspace that attains the maximum has codim rows, and neither the
    maximum nor the witness changes.  Every subspace swept then generates,
    so its ladder runs without closure checks (``closure=False``), which
    could only fail before full rank; should the test wrongly pass a
    subspace, its ladder raises ResourceLimit at the level cap instead of
    giving a wrong length.  When the test is not exact, or A has
    no M (a unital A without a character), every passing subspace is
    swept, and so is every one when the character search alone would try
    more than ``budget`` functionals.  The budget check comes before the
    character search and still counts every lifted subspace, swept or not;
    a ``max_level`` that only a skipped ladder would exceed no longer
    raises.
    """
    field = algebra.field
    if not isinstance(field, PrimeField):
        raise NotFiniteField("exact length needs a prime field")
    n, unity = algebra.dim, algebra.unity
    subspaces = _subspace_rows(field.p, n, unity, budget)
    test = _generation_test(algebra, budget)
    exact = False
    if test is not None:
        can_generate, codim, exact = test
        if exact:
            subspaces = takewhile(lambda rows: len(rows) <= codim, subspaces)
        subspaces = filter(can_generate, subspaces)
    run = partial(_ladder, algebra.product_kernel, n, field.p,
                  list(unity) if unity is not None else None, max_level, closure=not exact)
    best = None
    for rows in subspaces:
        level_reps = run(rows)
        if sum(map(len, level_reps)) == n:
            length = max(k for k, reps in enumerate(level_reps) if reps)
            if best is None or length > best[0]:
                best = (length, rows)
    if best is None:
        raise AssertionError("the whole space always generates")
    length, rows = best
    basis = _rref_basis(field, n, rows, unity)
    return length, tuple(algebra.element(r) for r in basis.row_tuples())
