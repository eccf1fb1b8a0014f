"""Integer bound formulas and the audit that checks computed data against them.

Everything here is exact integer arithmetic; ceilings of logarithms are
realized as bit-length computations and minimal-n searches, never through
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


def alt_min_dim(n: int) -> int:
    """Least dim - d_0 forced by an alternative-type length of n: 2^(n-1) + n - 2."""
    if n < 2:
        raise DomainError("defined for n >= 2")
    return 2 ** (n - 1) + n - 2


def alt_max_length(dim_minus_d0: int) -> int:
    """ceil(log2(dim - d_0)) as an integer bit-length computation."""
    if dim_minus_d0 < 3:
        raise DomainError("defined for dim - d_0 >= 3")
    return (dim_minus_d0 - 1).bit_length()


def flex_min_dim(n: int) -> int:
    """Least dim - d_0 forced by a flexible-type length of n (piecewise)."""
    if n < 1:
        raise DomainError("defined for n >= 1")
    if n <= 2:
        return n
    if n <= 5:
        return 2 * n - 1
    return 3 * 2 ** (n - 4) + n - 3


def flex_max_length(dim_minus_d0: int) -> int:
    """Piecewise length cap: ceil(D/2) up to 10, then the least n with 3*2^(n-3) >= D."""
    d = dim_minus_d0
    if d < 3:
        raise DomainError("defined for dim - d_0 >= 3")
    if d <= 10:
        return (d + 1) // 2
    n = 3
    while 3 * 2 ** (n - 3) < d:
        n += 1
    return n


def flex_max_length_strong(dim_minus_d0: int) -> int:
    """Largest n whose flex_min_dim fits in dim - d_0; tighter than the cap above."""
    if dim_minus_d0 < 1:
        raise DomainError("defined for dim - d_0 >= 1")
    n = 1
    while flex_min_dim(n + 1) <= dim_minus_d0:
        n += 1
    return n


def quick_set_bounds(d1: int, kind: str) -> int:
    """Per-set cap from the first difference: 2*d1 or 3*d1 - 1 (0 when d1 = 0)."""
    if d1 < 0:
        raise DomainError("d1 must be non-negative")
    if d1 == 0:
        return 0
    if kind == "alt":
        return 2 * d1
    if kind == "flex":
        return 3 * d1 - 1
    raise ValueError("kind must be 'alt' or 'flex'")


def flex_one_letter_dim_bound(n: int) -> int:
    """Span dimension forced by a surviving word with two single outer letters."""
    if n < 3:
        raise DomainError("defined for n >= 3")
    return 2 ** (n - 2) + n - 2


@dataclass(frozen=True)
class BoundEntry:
    name: str
    inputs: dict
    requirement: str
    observed: dict
    passed: bool

    def as_dict(self):
        return {
            "name": self.name,
            "inputs": self.inputs,
            "requirement": self.requirement,
            "observed": self.observed,
            "passed": self.passed,
        }


@dataclass
class BoundReport:
    entries: tuple

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def as_dict(self):
        return {"entries": [e.as_dict() for e in self.entries],
                "all_passed": self.all_passed}


def audit(algebra, report, seq, algebra_length=None, surviving=None) -> BoundReport:
    """Check every applicable bound against the lengths of one generator set.

    ``report`` is the ClassificationReport, ``seq`` the DiffSequence of the
    set, ``algebra_length`` an optional exact l(A), and ``surviving`` an
    optional (m, CanonicalWord) pair: the flexible canonical form of a word
    of length m = l(S) >= 3 outside the span of shorter words.  Its block sizes
    bound d1 and d2 when its shape is EOO, OEE or O11; other shapes add no
    entry.  Each bound is applied when the class verdicts it rests on hold.
    A failing entry falsifies a proved statement, and so signals an
    implementation bug rather than new mathematics, only when those verdicts
    are ``holds-exhaustive``.  The descending, sliding and mixing verdicts
    used here are ``holds-randomized``: a random sample may miss the one
    tuple that fails, and then a FAIL can mean that the algebra is not in
    the class and the bound does not apply.
    """
    entries = []
    d0 = 1 if algebra.unity is not None else 0
    dim_minus = algebra.dim - d0
    is_alt = report.verdict("descendingly_alternative").holds
    is_flex = report.verdict("descendingly_flexible").holds
    slow = (report.verdict("mixing").holds
            or report.verdict("left_sliding").holds
            or report.verdict("right_sliding").holds)

    def add(name, inputs, requirement, observed, passed):
        entries.append(BoundEntry(name, inputs, requirement, observed, bool(passed)))

    l_s = seq.length_of_set
    d1 = seq.d[1] if len(seq.d) > 1 else 0
    if slow:
        add("slowly-growing-length", {"set": "S"},
            "l(S) <= dim", {"l(S)": l_s, "dim": algebra.dim},
            l_s <= algebra.dim)
    if is_alt:
        cap = quick_set_bounds(d1, "alt")
        add("alt-quick-set-bound", {"set": "S", "d1": d1},
            "l(S) <= 2*d1", {"l(S)": l_s, "cap": cap}, l_s <= cap)
    if is_flex:
        cap = quick_set_bounds(d1, "flex")
        add("flex-quick-set-bound", {"set": "S", "d1": d1},
            "l(S) <= 3*d1 - 1", {"l(S)": l_s, "cap": cap}, l_s <= cap)
    if is_flex and 3 <= l_s <= 4:
        ok = all(seq.d[k] >= 2 for k in range(1, l_s))
        add("flex-low-length-differences", {"set": "S", "l(S)": l_s},
            "d_k >= 2 for 1 <= k < l(S)", {"d": list(seq.d)}, ok)

    best = l_s if algebra_length is None else max(l_s, algebra_length)
    if is_alt and best >= 2:
        add("alt-min-dim", {"length": best},
            "dim - d0 >= 2^(n-1) + n - 2",
            {"dim-d0": dim_minus, "required": alt_min_dim(best)},
            dim_minus >= alt_min_dim(best))
    if is_alt and dim_minus >= 3:
        cap = alt_max_length(dim_minus)
        add("alt-max-length", {"dim-d0": dim_minus},
            "length <= ceil(log2(dim - d0))", {"length": best, "cap": cap},
            best <= cap)
    if is_flex and best >= 1:
        add("flex-min-dim", {"length": best},
            "dim - d0 >= piecewise minimum",
            {"dim-d0": dim_minus, "required": flex_min_dim(best)},
            dim_minus >= flex_min_dim(best))
    if is_flex and dim_minus >= 3:
        cap = flex_max_length(dim_minus)
        strong = flex_max_length_strong(dim_minus)
        add("flex-max-length", {"dim-d0": dim_minus},
            "length <= min(cap, strong)",
            {"length": best, "cap": cap, "strong": strong},
            best <= min(cap, strong))

    if is_flex and surviving is not None and surviving[1].shape in ("EOO", "OEE", "O11"):
        m, cw = surviving
        sizes = tuple(len(cw.blocks[r]) for r in ("x", "y", "z"))
        j, k, l = sizes
        d2 = seq.d[2] if len(seq.d) > 2 else 0
        add("flex-surviving-word-d1", {"set": "S", "sizes": sizes},
            "d1 >= max block size", {"d1": d1, "required": max(sizes)},
            d1 >= max(sizes))
        add("flex-surviving-word-d2", {"set": "S", "sizes": sizes},
            "d2 >= max pairwise block product",
            {"d2": d2, "required": max(j * k, k * l, j * l)},
            d2 >= max(j * k, k * l, j * l))
        if k == 1 and l == 1:
            need = flex_one_letter_dim_bound(m)
            have = sum(seq.d[: m + 1]) - (seq.d[0] if seq.d else 0)
            add("flex-one-letter-outer-blocks", {"set": "S", "m": m},
                "dim Lin_m - d0 >= 2^(m-2) + m - 2",
                {"have": have, "required": need}, have >= need)
    return BoundReport(tuple(entries))
