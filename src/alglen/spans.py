"""Span engine: Lin_k(S) ladders, difference sequences, and exact lengths.

The engine grows the span of words level by level using products of stored
new-part representatives instead of raw words; bilinearity makes the two
spans identical while the cost stays polynomial in the rank.  Two
termination rules are supported:

* general mode stops once the current span V satisfies V*V <= V (then no
  longer word can leave it);
* mixing mode stops at the first zero difference, which is only valid for
  algebras where a mixing or sliding identity has been verified, and is
  enforced by callers.

SpanLadder works over any field and is the reference.  The exact-length
sweep over GF(p) runs one ladder per subspace, so it uses a copy of the
same ladder on plain residue lists (``_residue_ladder``) instead.
"""

from __future__ import annotations

import bisect
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, product

from .algebra import Algebra, Element
from .errors import DimensionMismatch, NotFiniteField, ResourceLimit
from .field import Field, PrimeField
from .words import GeneratorSet, generator_set

DEFAULT_MAX_LEVEL = 64
DEFAULT_SUBSPACE_BUDGET = 2_000_000


class SpanBasis:
    """Reduced row-echelon basis of a subspace, grown by insertion."""

    def __init__(self, field: Field, dim: int):
        self.field = field
        self.dim = dim
        self.rows: list[list] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> list:
        """Residue of vec modulo the current row space."""
        if len(vec) != self.dim:
            raise DimensionMismatch("vector length does not match basis dimension")
        f = self.field
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if not f.is_zero(c):
                v = [f.sub(x, f.mul(c, r)) for x, r in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        f = self.field
        return all(f.is_zero(x) for x in self.reduce(vec))

    def insert(self, vec):
        """Insert vec; returns (added, normalized residue or None)."""
        f = self.field
        v = self.reduce(vec)
        lead = next((i for i, x in enumerate(v) if not f.is_zero(x)), None)
        if lead is None:
            return False, None
        inv = f.inv(v[lead])
        v = [f.mul(inv, x) for x in v]
        for idx, row in enumerate(self.rows):
            c = row[lead]
            if not f.is_zero(c):
                self.rows[idx] = [f.sub(x, f.mul(c, y)) for x, y in zip(row, v)]
        pos = bisect.bisect_left(self.pivots, lead)
        self.rows.insert(pos, v)
        self.pivots.insert(pos, lead)
        return True, tuple(v)

    def row_tuples(self) -> tuple:
        return tuple(tuple(r) for r in self.rows)

    def copy(self) -> "SpanBasis":
        c = SpanBasis(self.field, self.dim)
        c.rows = [list(r) for r in self.rows]
        c.pivots = list(self.pivots)
        return c

    def __eq__(self, other):
        return isinstance(other, SpanBasis) and self.field == other.field \
            and self.dim == other.dim and self.row_tuples() == other.row_tuples()

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

    def step_mixing(self) -> int:
        """Advance one level using only single-letter products on both sides."""
        m = self.level + 1
        new_reps = []
        if m == 1:
            candidates = list(self.gens)
        else:
            prev = self.level_reps[m - 1]
            candidates = [self.algebra.multiply(u, s) for u in prev for s in self.gens]
            candidates += [self.algebra.multiply(s, u) for u in prev for s in self.gens]
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


def span_ladder_up_to(algebra: Algebra, gens, k: int, mode: str = "general") -> SpanLadder:
    """Ladder advanced to level k (or to stabilization, whichever is first)."""
    ladder = SpanLadder(algebra, gens)
    step = ladder.step_mixing if mode == "mixing" else ladder.step_general
    for _ in range(k):
        if mode == "general" and ladder.is_closed():
            break
        step()
    return ladder


def diff_sequence(algebra: Algebra, gens, mode: str = "general",
                  max_level: int | None = None) -> DiffSequence:
    """Full difference sequence of one generator set, until stabilization.

    Mixing mode stops at the first zero difference and must only be used
    after a mixing or sliding verdict; general mode stops on the closure
    criterion, which is sound for every algebra.
    """
    if mode not in ("general", "mixing"):
        raise ValueError(f"unknown mode {mode!r}")
    ladder = SpanLadder(algebra, gens)
    stabilized = None
    if mode == "mixing":
        cap = algebra.dim + 2
        while True:
            if ladder.level >= cap:
                raise ResourceLimit(
                    "mixing-mode run exceeded dim+2 levels; the mixing "
                    "hypothesis is violated or the engine is inconsistent")
            grew = ladder.step_mixing()
            if ladder.level >= 1 and grew == 0:
                stabilized = "mixing-criterion"
                break
    else:
        cap = max_level if max_level is not None else max(DEFAULT_MAX_LEVEL, algebra.dim + 2)
        while True:
            if ladder.is_closed():
                stabilized = "closure-criterion"
                break
            if ladder.level >= cap:
                raise ResourceLimit(f"general-mode run exceeded {cap} levels")
            ladder.step_general()

    d = list(ladder.d)
    while len(d) > 1 and d[-1] == 0:
        d.pop()
    length = max((k for k, dk in enumerate(d) if dk != 0), default=0)
    total = sum(d)
    assert total == ladder.basis.rank and total <= algebra.dim
    _check_first_difference(algebra, ladder.gens, d)
    return DiffSequence(
        d=tuple(d),
        length_of_set=length,
        stabilized_by=stabilized,
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
    assert d1 == probe.rank - base, "first difference disagrees with rank of S"


def length_of_set(algebra: Algebra, gens, mode: str = "general",
                  max_level: int | None = None) -> int:
    return diff_sequence(algebra, gens, mode=mode, max_level=max_level).length_of_set


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


def _product_table(algebra: Algebra) -> list:
    """table[i] lists (j, ((k, c), ...)) for each b_i b_j != 0; 0-based ints."""
    table = [[] for _ in range(algebra.dim)]
    for (i, j), terms in sorted(algebra.sc.items()):
        table[i - 1].append((j - 1, tuple((k - 1, int(c)) for k, c in terms)))
    return table


def _residue_ladder(table: list, p: int, unity, mixing: bool, gens) -> tuple:
    """(l(S), S generates A) of the span ladder of gens over GF(p).

    The same steps and stopping rules as diff_sequence on SpanLadder, on
    lists of residues with ``% p`` inlined.  The basis rows are kept fully
    reduced in insertion order, so a vector's pivot entries are its
    coefficients.  Two shortcuts leave the result unchanged: the ladder
    stops once the span is all of A (it is closed and can gain nothing),
    and the closure check stops at the first pair whose product leaves the
    span (the others stay pending).
    """
    n = len(table)
    rows, pivots = [], []

    def mul(u, v):
        acc = [0] * n
        for i, ui in enumerate(u):
            if ui:
                for j, terms in table[i]:
                    vj = v[j]
                    if vj:
                        c = ui * vj
                        for k, s in terms:
                            acc[k] += c * s
        return acc

    def residue(v):
        for row, j in zip(rows, pivots):
            c = v[j] % p
            if c:
                v = [x - c * y for x, y in zip(v, row)]
        return [x % p for x in v]

    def insert(vectors):
        """Insert each vector; the normalized residues that were new."""
        new = []
        for v in vectors:
            v = residue(v)
            lead = next((j for j, x in enumerate(v) if x), None)
            if lead is None:
                continue
            if v[lead] != 1:
                s = pow(v[lead], -1, p)
                v = [x * s % p for x in v]
            for idx, row in enumerate(rows):
                c = row[lead]
                if c:
                    rows[idx] = [(x - c * y) % p for x, y in zip(row, v)]
            rows.append(v)
            pivots.append(lead)
            new.append(v)
            if len(rows) == n:
                break
        return new

    level_reps = [insert([unity] if unity is not None else [])]
    if mixing:
        cap = n + 2
        while len(rows) < n:
            level = len(level_reps) - 1
            if level >= cap:
                raise ResourceLimit(
                    "mixing-mode run exceeded dim+2 levels; the mixing "
                    "hypothesis is violated or the engine is inconsistent")
            if level == 0:
                new = insert(gens)
            else:
                prev = level_reps[level]
                new = insert(chain((mul(u, s) for u in prev for s in gens),
                                   (mul(s, u) for u in prev for s in gens)))
            level_reps.append(new)
            if not new:
                break
    else:
        cap = max(DEFAULT_MAX_LEVEL, n + 2)
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


def exact_algebra_length(algebra: Algebra, mode: str = "general",
                         budget: int | None = DEFAULT_SUBSPACE_BUDGET,
                         threads: int = 1):
    """Maximum of l(S) over generating sets, with an achieving witness.

    The maximum over all generating sets equals the maximum over RREF bases
    of subspaces (containing the unity when there is one), because the span
    ladder of S depends on S only through Lin_1(S).  Prime fields only.
    For a unital algebra only the subspaces containing the unity are
    enumerated (see _subspace_rows), and the budget counts those.  The
    witness is the RREF basis of the first subspace in enumeration order
    that attains the maximum.
    """
    field = algebra.field
    if not isinstance(field, PrimeField):
        raise NotFiniteField("exact length needs a prime field")
    if mode not in ("general", "mixing"):
        raise ValueError(f"unknown mode {mode!r}")
    n, unity = algebra.dim, algebra.unity
    candidates = list(_subspace_rows(field.p, n, unity, budget))
    run = partial(_residue_ladder, _product_table(algebra), field.p,
                  list(unity) if unity is not None else None, mode == "mixing")
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, candidates))
    else:
        results = map(run, candidates)

    best = None
    for rows, (length, generating) in zip(candidates, results):
        if generating and (best is None or length > best[0]):
            best = (length, rows)
    assert best is not None  # the whole space always generates
    length, rows = best
    basis = _rref_basis(field, n, rows, unity)
    witness = generator_set([algebra.element(r) for r in basis.row_tuples()])
    return length, witness
