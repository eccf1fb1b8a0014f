"""Span engine: Lin_k(S) ladders, difference sequences, and exact lengths.

The engine grows the span of words level by level using products of stored
new-part representatives instead of raw words; bilinearity makes the two
spans identical while the cost stays polynomial in the rank.  A ladder
stops once the current span V satisfies V*V <= V (the closure criterion):
then no longer word can leave it, so the sequence has ended for every
algebra.  A closed span makes the next level add nothing, so the check
runs only where a level added nothing.

One ladder (``_ladder``) serves diff_sequence, lin_span and the
exact-length sweep, which builds levels 0 to 2 once per basis prefix and
resumes the ladder from there (``_sweep_ladder``).  It works on integer
rows over both fields, since spans do not depend on scaling, multiplied
through the algebra's compiled product kernel.  One echelon routine,
``_reduce`` and ``_insert``, does the row arithmetic of both fields and
branches on the characteristic p (0 over Q) once per call: residues with
pivot 1 over GF(p), primitive integer rows with fraction-free elimination
over Q.  Its row operations (v - c r, a v - c r, v mod p, s v mod p and the
lead mod p) are straight-line kernels, generated and compiled once per row
length at its first use (``_ROW_KERNELS``, an ``algebra.KernelCache``), as
each algebra's product kernel is.  The ladder, SpanBasis, the generation
pre-test, the subspace enumeration and the identity checks all call it;
none of them picks row operations by field.
It keeps echelon rows, each reduced only against the rows inserted before
it, which is all that a residue needs; SpanBasis builds the reduced
row-echelon form only where it is read.  The exact-length sweep lists no
subspace that a linear pre-test (``_generation_test``) shows cannot
generate the algebra: ``enumerate_subspace_rows`` builds each basis row by
row and drops a partial one that can no longer pass.  Where the test is
exact, it lists none larger than a minimal generating one, and every
subspace it lists generates; a ladder that closes below A there is a
fault of the test, raised as such.

A generator set S is any sequence of elements of the algebra, and the
exact-length witness is a tuple of them.  find_unity solves for an
identity element with a SpanBasis.
"""

from __future__ import annotations

from itertools import combinations, compress, islice, product, starmap
from math import gcd
from operator import mul

from .algebra import Algebra, Element, KernelCache, compile_kernel
from .errors import DimensionMismatch, NotFiniteField, ResourceLimit
from .field import Field, PrimeField, integer_row, rational_row

DEFAULT_MAX_LEVEL = 64
DEFAULT_SUBSPACE_BUDGET = 2_000_000


# the row kernels: name -> (arguments, entry i of the row it returns)
_ROW_FORMS = {
    "sub": ("v, r, c", "v{i} - c*r{i}"),
    "comb": ("v, r, a, c", "a*v{i} - c*r{i}"),
    "residue": ("v, p", "v{i} % p"),
    "scale": ("v, s, p", "v{i}*s % p"),
    "lead": ("v, p", None),
}


def _row_kernel_source(name: str, n: int) -> list:
    """The source lines of the row kernel ``name`` on rows of n ints.

    ``sub(v, r, c)`` is v - c r, ``comb(v, r, a, c)`` is a v - c r (the
    fraction-free elimination over Q), ``residue(v, p)`` is v mod p and
    ``scale(v, s, p)`` is s v mod p, each a new list of the n entries
    written out; ``lead(v, p)`` is the index of the first entry of v that
    is nonzero mod p, or None.
    """
    args, entry = _ROW_FORMS[name]
    lines = [f"def {name}({args}):"]
    lines += [f"    [{', '.join(f'{x}{i}' for i in range(n))}] = {x}"
              for x in args.split(", ") if x in ("v", "r")]
    if entry is None:
        lines += [f"    if v{i} % p:\n        return {i}" for i in range(n)]
        lines.append("    return None")
    else:
        lines.append(f"    return [{', '.join(entry.format(i=i) for i in range(n))}]")
    return lines


# row length n -> its row kernels (sub, comb, residue, scale, lead), each
# unpacking its rows into locals and writing out one expression per entry:
# the same integer arithmetic as a loop over the entries, in about a third
# of its time on short rows; only ``int`` indices enter the source
_ROW_KERNELS = KernelCache(lambda n: tuple(
    compile_kernel(f"row kernels, dim {n}", name, _row_kernel_source(name, n))
    for name in _ROW_FORMS))


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
    for the row r with pivot j.  The row operations are the row kernels of
    v's length.
    """
    sub, comb, residue, _, _ = _ROW_KERNELS[len(v)]
    if p:
        for row, j in zip(rows, pivots):
            c = v[j] % p
            if c:
                v = sub(v, row, c)
        return residue(v, p), 1
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
                v = sub(v, row, c)
            else:
                v = comb(v, row, r, c)
                s *= r
    return v, s


def _insert(rows, pivots, p: int, v):
    """Add the int vector v to echelon rows over GF(p), or over Q when p = 0.

    Returns v's residue, now the last row, or None when v already lies in
    their span: scaled to pivot 1 over GF(p), a primitive row (gcd 1,
    positive pivot) over Q.  Over GF(p) the elimination of _reduce leaves
    v unreduced, and one kernel finds its lead and one scales it, with no
    residue list between.  The older rows are left as they are: each row
    is reduced only against the rows before it, which is all that _reduce
    needs.
    """
    if not p:
        v = _reduce(rows, pivots, p, v)[0]
        for lead, x in enumerate(v):  # a loop, not a generator: this runs once per insertion
            if x:
                break
        else:
            return None
        v = _primitive(list(v), lead)
    else:
        sub, _, _, scale, first = _ROW_KERNELS[len(v)]
        for row, j in zip(rows, pivots):
            c = v[j] % p
            if c:
                v = sub(v, row, c)
        lead = first(v, p)
        if lead is None:
            return None
        s = v[lead] % p
        v = scale(v, s if s == 1 else pow(s, -1, p), p)
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


class DiffSequence:
    """Dimension growth record of the span ladder of one generator set.

    The record is read off ``d`` and the algebra's dimension ``dim``: l(S)
    is the last level, the total rank the sum of ``d``, and the set is
    generating when that rank is ``dim``.  Two records are equal when their
    six fields are; a record is not hashable.
    """

    _FIELDS = ("d", "length_of_set", "stabilized_by", "generating", "total_rank", "dim")
    stabilized_by = "closure-criterion"

    def __init__(self, d: tuple, dim: int):
        self.d = d
        self.dim = dim
        self.length_of_set = len(d) - 1
        self.total_rank = sum(d)
        self.generating = self.total_rank == dim

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._FIELDS)

    def __repr__(self):
        return "DiffSequence(" + ", ".join(f"{f}={getattr(self, f)!r}" for f in self._FIELDS) + ")"

    def as_dict(self):
        return {f: list(self.d) if f == "d" else getattr(self, f) for f in self._FIELDS}


def _ladder(mul, n: int, p: int, unity, max_level, gens, start=None):
    """Span ladder of gens, yielded by level: level k spans Lin_k(S) modulo Lin_(k-1)(S).

    Every vector is an integer row of length n, and ``mul`` is the
    algebra's ``product_kernel``.  ``p`` is passed on to ``_insert`` and
    ``_reduce``, which keep residues with pivot 1 over GF(p) and primitive
    integer rows over Q (``p = 0``).  Over Q the products ignore the
    table's common denominator D, as the rows ignore their own, since a
    span does not depend on the scaling of the vectors that span it.  Level
    0 is the unity (None when there is none), level 1 the gens, and level m
    the products of the representatives of levels i and m - i.  Any
    vectors of Lin_m(S) that are independent modulo Lin_(m-1)(S) serve as
    level m's representatives, by bilinearity.

    The ladder stops at the first level m whose span V is closed, V*V <= V:
    then no longer word can leave V.  A closed V makes level m + 1 add
    nothing, since its vectors are products of elements of V (at m = 0,
    the gens, which then lie in V).  So the ladder grows level m + 1 first,
    and only where it added nothing asks _closed whether to end at level m;
    if not, the empty level stays and the ladder goes on.  It also stops
    once the span is all of A, which is closed and can gain nothing.  It
    raises ResourceLimit where it would go past the level cap,
    ``max_level`` or by default max(DEFAULT_MAX_LEVEL, n + 2).  Each level
    is yielded as it is appended, so a caller that needs only the levels
    up to k grows no more of them.

    ``start`` resumes a ladder at a later level: the echelon rows and
    pivots of that level's span and level_reps up to it, all three handed
    over to the ladder, which yields those levels first.  The levels below
    it must be ones where the ladder goes on: not all of A, not closed and
    within the cap.  The exact-length sweep resumes at level 2 (see
    _sweep_ladder).
    """
    cap = _level_cap(max_level, n)
    rows, pivots, level_reps = start or ([], [], [])
    if not level_reps:
        level_reps.append(_grow(rows, pivots, p, n, [] if unity is None else [unity]))
    yield from level_reps
    while len(rows) < n:
        level = len(level_reps) - 1
        new = _grow(rows, pivots, p, n, _products(mul, level_reps, level + 1) if level else gens)
        if not new and _closed(mul, rows, pivots, p, level_reps):
            return
        if level >= cap:
            raise ResourceLimit(f"span ladder exceeded {cap} levels")
        level_reps.append(new)
        yield new


def _level_cap(max_level, n: int) -> int:
    """The ladder's level cap: ``max_level``, or by default max(DEFAULT_MAX_LEVEL, n + 2)."""
    return max_level if max_level is not None else max(DEFAULT_MAX_LEVEL, n + 2)


def _grow(rows, pivots, p: int, n: int, vectors) -> list:
    """The residues of vectors that _insert adds to the echelon rows, until rank n."""
    new = []
    for v in vectors:
        v = _insert(rows, pivots, p, v)
        if v is not None:
            new.append(v)
            if len(rows) == n:
                break
    return new


def _products(mul, level_reps, m: int):
    """The products of the representatives of levels i and m - i, for 0 < i < m."""
    for i in range(1, m):
        for u in level_reps[i]:
            for v in level_reps[m - i]:
                yield mul(u, v)


def _closed(mul, rows, pivots, p: int, level_reps) -> bool:
    """Whether the ladder's span V = Lin_m is closed, V*V <= V, once level m + 1 added nothing.

    m is the last level of level_reps.  The unity multiplies V into V, and
    the products of levels i and j with i + j <= m + 1 lie in Lin_(m+1) =
    V, so only the pairs of representatives of levels i, j >= 1 with
    i + j > m + 1 are left (a pair with level 0 has i + j <= m).  They are
    checked newest levels first, over the levels that added something, up
    to the first product outside V.
    """
    m = len(level_reps) - 1
    filled = list(compress(enumerate(level_reps), level_reps))
    for i, us in reversed(filled):
        for j, vs in reversed(filled):
            if i + j <= m + 1:
                break
            if any(any(_reduce(rows, pivots, p, mul(u, v))[0]) for u in us for v in vs):
                return False
    return True


def _set_ladder(algebra: Algebra, elements, max_level=None):
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

    ``gens`` is S, any sequence of elements of the algebra.  The ladder
    grows only levels 0 to k, so the level cap counts only those.
    """
    basis = SpanBasis(algebra.field, algebra.dim)
    for reps in islice(_set_ladder(algebra, gens), k + 1):
        for v in reps:
            basis.add(v)
    return basis


def diff_sequence(algebra: Algebra, gens, max_level: int | None = None) -> DiffSequence:
    """Difference sequence d_k = dim Lin_k(S) - dim Lin_(k-1)(S) of a generator set.

    ``gens`` is S, any sequence of elements of the algebra.  The sizes of
    the levels of _ladder, which runs until the span is closed; l(S) is the
    last level.  The ladder never ends on a level that added nothing past
    level 0, since such a level ends it only when the span below it is
    closed, and then the ladder ends below it.
    """
    return DiffSequence(tuple(len(reps) for reps in _set_ladder(algebra, gens, max_level)),
                        algebra.dim)


# -- subspace enumeration over prime fields --------------------------------


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def count_subspaces(n: int, q: int) -> int:
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def enumerate_subspace_rows(p: int, n: int, c, project, top: int):
    """RREF rows of the subspaces the exact-length sweep visits, in its order.

    The subspaces of GF(p)^n, or of the hyperplane x_c = 0 when c is a
    column, of rank codim = len(project) to top: rank ascending, pivot
    columns lexicographic, then free entries lexicographic in row-major
    order.  Rows are tuples of n ints.  Each basis is built one row at a
    time with the echelon of its rows' images under ``project`` (see
    _generation_test), and dropped once that rank plus the rows still to
    choose is below codim: every subspace listed projects onto A/K, and
    with no projection none is dropped.  Each row's candidates and their
    images are built once per pivot set.
    """
    codim = len(project)
    cols = [j for j in range(n) if j != c]
    for r in range(codim, top + 1):
        for pivots in combinations(cols, r):
            choices = []
            for lead in pivots:
                free = [j for j in cols if j > lead and j not in pivots]
                rows = []
                for values in product(range(p), repeat=len(free)):
                    row = [0] * n
                    row[lead] = 1
                    for j, x in zip(free, values):
                        row[j] = x
                    rows.append((tuple(row), [sum(map(mul, row, f)) % p for f in project]))
                choices.append(rows)
            yield from _extend(p, codim, choices, [], [], [])


def _extend(p: int, codim: int, choices, basis, span, pivots):
    """Each completion of basis by one row per remaining choice that can
    still project onto A/K; span and pivots: the echelon of its images."""
    i = len(basis)
    if i == len(choices):
        yield tuple(basis)
        return
    for row, image in choices[i]:
        # once the images span A/K no further row can add to them
        grew = len(span) < codim and _insert(span, pivots, p, image) is not None
        if len(span) + len(choices) - i - 1 >= codim:
            basis.append(row)
            yield from _extend(p, codim, choices, basis, span, pivots)
            basis.pop()
        if grew:
            span.pop()
            pivots.pop()


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
    """(project, codim, exact): a linear test that V can generate A, or None.

    With M from _augmentation_ideal, let K = M^2, plus <e> when A is unital.
    The subalgebra generated by V (and e) lies in V + K: every v in V is
    chi(v) e plus an element of M, and every product of two or more elements
    of M lies in M^2.  So V generates A only if V + K = A, i.e. only if the
    rows of V project onto A/K, of dimension ``codim``.  ``exact`` tells
    whether M is nilpotent (see _nilpotent); then the converse holds too,
    since any subspace N with N + M^2 = M generates M, and V generates A if
    and only if its rows reach rank codim in A/K.  ``project`` holds codim
    rows f of length n; the image of v in A/K, its residue modulo K at the
    columns that are no pivot of K, is ``[sum(v_j f_j) % p for f in
    project]``.  The result is None when A has no M (``budget`` as in
    _augmentation_ideal), or when K = A, so that the test rejects nothing.
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
    images = [_reduce(k_rows, k_pivots, p, [int(i == j) for i in range(n)])[0]
              for j in range(n)]
    project = [[image[j] for image in images] for j in range(n) if j not in k_pivots]
    return project, codim, _nilpotent(product, p, m_rows)


def _sweep_ladder(mul, n: int, p: int, unity, cap: int, states, rows) -> list:
    """_ladder of the basis rows, its levels 0 to 2 built once per basis prefix.

    ``states`` is the sweep's, kept from one basis to the next: states[d]
    is (r_1..r_d, their state) for each proper prefix of the last basis,
    states[0] that of no rows.  A state is the echelon rows, the pivots and
    the level-2 representatives of
    Lin_2 = <e> + span(r_1..r_d) + span{r_i r_j : i, j <= d}, or None once
    a row added nothing to the state before it, as it can where the
    pre-test is inexact.  The states of the rows this basis shares with the
    last one are kept and the others dropped; each further row is inserted,
    then its products with the rows before it and with itself: 2d + 1
    products for r_(d+1).  Lin_2 does not depend on that order, and the
    products the state keeps are independent modulo Lin_1, so they serve as
    level 2's representatives; level 1 is closed exactly when there are
    none.  So the length is read off the state where Lin_2 is all of A (1
    or 2) or where level 1 is closed (1); otherwise _ladder resumes at
    level 2.  The rank-0 basis and a basis whose state is None get the
    ladder from scratch.  Every outcome, the sizes of the levels or the
    error past the level cap ``cap``, is the ladder's from scratch.
    """
    if not rows:
        return list(_ladder(mul, n, p, unity, cap, rows))
    while len(states) > len(rows) or states[-1][0] != rows[:len(states) - 1]:
        states.pop()
    state = states[-1][1]
    for i in range(len(states) - 1, len(rows)):
        if state is not None:
            row, echelon, pivots = rows[i], state[0][:], state[1][:]
            if _insert(echelon, pivots, p, row) is None:
                state = None
            else:
                pairs = [(u, v) for w in rows[:i] for u, v in ((row, w), (w, row))]
                new = _grow(echelon, pivots, p, n, starmap(mul, pairs + [(row, row)]))
                state = echelon, pivots, state[2] + new
        if i + 1 < len(rows):
            states.append((rows[:i + 1], state))
    if state is None:
        return list(_ladder(mul, n, p, unity, cap, rows))
    echelon, pivots, level2 = state
    reps = [states[0][1][0], list(rows)] + ([level2] if level2 else [])
    if len(reps) - 2 >= cap:  # the ladder from scratch raises at a lower level
        raise ResourceLimit(f"span ladder exceeded {cap} levels")
    if len(echelon) == n or not level2:
        return reps
    return list(_ladder(mul, n, p, unity, cap, rows, start=(echelon, pivots, reps)))


def exact_algebra_length(algebra: Algebra, budget: int | None = DEFAULT_SUBSPACE_BUDGET,
                         max_level: int | None = None):
    """Maximum of l(S) over generating sets, with an achieving witness.

    The maximum over all generating sets equals the maximum over RREF bases
    of subspaces (containing the unity when there is one), because the span
    ladder of S depends on S only through Lin_1(S).  Prime fields only.
    For a unital algebra only the subspaces containing the unity e count:
    with c the first nonzero coordinate of e, U -> U ∩ H is a bijection
    from them onto the subspaces of the hyperplane H = {x_c = 0}, with
    inverse W -> W + <e>.  So subspaces of H are enumerated, each standing
    for its span plus <e>.  The budget counts these lifted subspaces, and
    is checked before any other work.  The witness is the RREF basis of
    the first subspace in enumeration order that attains the maximum, as a
    tuple of elements.  ``max_level`` caps each ladder as in diff_sequence.

    A linear pre-test (_generation_test) rules out a subspace V when
    V + K != A, with K = A^2 for a non-unital A and K = <e> + M^2 for a
    unital one, M the kernel of a character.  The subalgebra V generates
    lies in V + K, so such a V never generates.  The enumeration
    (enumerate_subspace_rows) lists only the subspaces that pass: it drops
    a partial basis whose rows cannot reach rank codim = dim A/K in A/K,
    so no rank below codim is listed.  The test is exact when M (or A) is
    nilpotent: V generates if and only if it passes.  Then no rank above
    codim is listed either.  Since Lin_k(U) <= Lin_k(V) for U <= V, a
    generating V is never longer than a generating U inside it, and a
    passing V with more than codim rows contains a passing U with exactly
    codim of them, enumerated earlier (ranks ascend).  So the first
    subspace that attains the maximum has codim rows, and neither the
    maximum nor the witness changes.  Every subspace swept then generates;
    should the test wrongly pass one that does not, the sweep raises
    AssertionError naming its rows instead of giving a wrong length.  An
    inexact test lists every rank from codim up.  Every subspace is swept
    when A has no test: a unital A without a character, or one whose
    character search alone would try more than ``budget`` functionals.  A
    ``max_level`` that only a skipped ladder would exceed does not raise.
    Consecutive bases share their first rows, so each ladder takes its
    levels 0 to 2 from the Lin_2 of its rows, built row by row and kept for
    the bases that follow (_sweep_ladder).  The sizes of its levels, and so
    lengths, witnesses and level-cap errors, are those of the ladder from
    scratch.
    """
    field = algebra.field
    if not isinstance(field, PrimeField):
        raise NotFiniteField("exact length needs a prime field")
    p, n, unity = field.p, algebra.dim, algebra.unity
    c = None if unity is None else next((i for i, x in enumerate(unity) if x % p), None)
    m = n if c is None else n - 1
    _check_budget(p, m, budget)
    project, codim, exact = _generation_test(algebra, budget) or ([], 0, False)
    kernel = algebra.product_kernel
    unity_row = list(unity) if unity is not None else None
    echelon, pivots = [], []
    _grow(echelon, pivots, p, n, [] if unity is None else [unity_row])
    states = [((), (echelon, pivots, []))]
    cap = _level_cap(max_level, n)
    best = None
    for rows in enumerate_subspace_rows(p, n, c, project, codim if exact else m):
        level_reps = _sweep_ladder(kernel, n, p, unity_row, cap, states, rows)
        if sum(map(len, level_reps)) == n:
            length = len(level_reps) - 1
            if best is None or length > best[0]:
                best = (length, rows)
        elif exact:
            raise AssertionError(f"the exact pre-test passed {rows}, which does not generate")
    if best is None:
        raise AssertionError("the whole space always generates")
    length, rows = best
    basis = _rref_basis(field, n, rows, unity)
    return length, tuple(algebra.element(r) for r in basis.row_tuples())
