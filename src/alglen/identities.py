"""Identity-class checks with explicit witnesses and assurance levels.

Equality identities (flexible, alternative) decompose over a basis, so a
clean sweep of basis pairs plus the once-linearized basis triples proves
them for every element of the algebra, in any characteristic.  The
membership identities (sliding, mixing, descending flexibility and
alternativity) have argument-dependent right-hand spans, so basis sweeps
are necessary but not sufficient; their positive verdicts carry the
``holds-randomized`` assurance level with the sample count used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .algebra import Algebra, Element
from .spans import SpanBasis

DEFAULT_SAMPLES = 64
CHAR2_SAMPLE_FACTOR = 4

CLASS_NAMES = (
    "flexible",
    "alternative",
    "left_sliding",
    "right_sliding",
    "mixing",
    "descendingly_flexible",
    "descendingly_alternative",
    "sufficient_condition_flex",
    "sufficient_condition_alt",
)


@dataclass(frozen=True)
class Witness:
    """A concrete violation: named elements and the equation they break."""

    equation: str
    elements: tuple  # (name, coords) pairs, in order of quantification

    def as_dict(self, algebra=None):
        shown = {}
        for name, coords in self.elements:
            shown[name] = (algebra.format_element(coords) if algebra
                           else [str(c) for c in coords])
        return {"equation": self.equation, "elements": shown}


@dataclass(frozen=True)
class Verdict:
    kind: str  # holds-exhaustive | holds-randomized | fails | inconclusive
    samples: int = 0
    witness: Witness | None = None
    note: str | None = None

    @property
    def holds(self) -> bool:
        return self.kind.startswith("holds")

    def as_dict(self, algebra=None):
        out = {"kind": self.kind}
        if self.kind == "holds-randomized":
            out["samples"] = self.samples
        if self.witness is not None:
            out["witness"] = self.witness.as_dict(algebra)
        if self.note:
            out["note"] = self.note
        return out


def _fails(equation, **elements) -> Verdict:
    w = Witness(equation, tuple(elements.items()))
    return Verdict("fails", witness=w)


def random_element(algebra: Algebra, seed: int, index: int) -> Element:
    """Deterministic dense element derived from (seed, index)."""
    rng = random.Random(seed * 1_000_003 + index)
    f = algebra.field
    if f.characteristic == 0:
        return tuple(f.from_int(rng.randint(-2, 2)) for _ in range(algebra.dim))
    return tuple(rng.randrange(f.characteristic) for _ in range(algebra.dim))


def sample_count(algebra: Algebra, samples: int) -> int:
    # GF(2) has so few points that the default budget is inflated
    if algebra.field.characteristic == 2:
        return samples * CHAR2_SAMPLE_FACTOR
    return samples


def _char2_note(algebra: Algebra) -> str | None:
    if algebra.field.characteristic == 2:
        return ("characteristic 2: few sample points, budget inflated "
                f"{CHAR2_SAMPLE_FACTOR}x")
    return None


def span_of(algebra: Algebra, vectors) -> SpanBasis:
    """Span of the listed elements, plus the unity when the algebra has one."""
    basis = SpanBasis(algebra.field, algebra.dim)
    if algebra.unity is not None:
        basis.insert(algebra.unity)
    for v in vectors:
        basis.insert(v)
    return basis


def _basis_elements(algebra):
    return [algebra.basis_element(i) for i in range(1, algebra.dim + 1)]


def _random_pairs(algebra, n_random, seed, salt):
    for t in range(n_random):
        yield (random_element(algebra, seed, 2 * t + salt),
               random_element(algebra, seed, 2 * t + 1 + salt))


def _random_triples(algebra, n_random, seed, salt):
    for t in range(n_random):
        yield (random_element(algebra, seed, 3 * t + salt),
               random_element(algebra, seed, 3 * t + 1 + salt),
               random_element(algebra, seed, 3 * t + 2 + salt))


def _pair_stream(algebra, n_random, seed, salt):
    basis = _basis_elements(algebra)
    for a, b in product(basis, repeat=2):
        yield a, b
    yield from _random_pairs(algebra, n_random, seed, salt)


def _triple_stream(algebra, n_random, seed, salt):
    basis = _basis_elements(algebra)
    for a, b, c in product(basis, repeat=3):
        yield a, b, c
    yield from _random_triples(algebra, n_random, seed, salt)


# -- equality identities -----------------------------------------------------


def check_flexible(algebra: Algebra, seed: int = 0,
                   samples: int = DEFAULT_SAMPLES) -> Verdict:
    """(ab)a = a(ba) for all a, b.

    Quadratic in a, so the basis-pair sweep together with the linearized
    basis-triple sweep is complete over any field; the verdict is
    holds-exhaustive when nothing fails.
    """
    mul = algebra.multiply
    n = sample_count(algebra, samples)
    for a, b in _pair_stream(algebra, n, seed, salt=0):
        if mul(mul(a, b), a) != mul(a, mul(b, a)):
            return _fails("(ab)a = a(ba)", a=a, b=b)
    for a, b, c in _triple_stream(algebra, 0, seed, salt=0):
        lhs = algebra.add(mul(mul(a, b), c), mul(mul(c, b), a))
        rhs = algebra.add(mul(a, mul(b, c)), mul(c, mul(b, a)))
        if lhs != rhs:
            return _fails("(ab)c + (cb)a = a(bc) + c(ba)", a=a, b=b, c=c)
    return Verdict("holds-exhaustive", samples=n)


def check_alternative(algebra: Algebra, seed: int = 0,
                      samples: int = DEFAULT_SAMPLES) -> Verdict:
    """a(ab) = (aa)b and (ba)a = b(aa) for all a, b; complete like check_flexible."""
    mul = algebra.multiply
    add = algebra.add
    n = sample_count(algebra, samples)
    for a, b in _pair_stream(algebra, n, seed, salt=1):
        if mul(a, mul(a, b)) != mul(mul(a, a), b):
            return _fails("a(ab) = (aa)b", a=a, b=b)
        if mul(mul(b, a), a) != mul(b, mul(a, a)):
            return _fails("(ba)a = b(aa)", a=a, b=b)
    for a, b, c in _triple_stream(algebra, 0, seed, salt=1):
        left = add(mul(a, mul(c, b)), mul(c, mul(a, b)))
        right = add(mul(mul(a, c), b), mul(mul(c, a), b))
        if left != right:
            return _fails("a(cb) + c(ab) = (ac)b + (ca)b", a=a, b=b, c=c)
        left = add(mul(mul(b, a), c), mul(mul(b, c), a))
        right = add(mul(b, mul(a, c)), mul(b, mul(c, a)))
        if left != right:
            return _fails("(ba)c + (bc)a = b(ac) + b(ca)", a=a, b=b, c=c)
    return Verdict("holds-exhaustive", samples=n)


# -- sliding and mixing ------------------------------------------------------


def _degree2_monomials(algebra, x, y, z):
    mul = algebra.multiply
    return [mul(x, y), mul(y, x), mul(x, z), mul(z, x), mul(y, z), mul(z, y),
            x, y, z]


def _q_left(algebra, x, y, z):
    mul = algebra.multiply
    return [mul(x, mul(z, y)), mul(x, mul(y, z)), mul(y, mul(x, z)),
            mul(y, mul(z, x))] + _degree2_monomials(algebra, x, y, z)


def _q_right(algebra, x, y, z):
    mul = algebra.multiply
    return [mul(mul(x, z), y), mul(mul(z, x), y), mul(mul(y, z), x),
            mul(mul(z, y), x)] + _degree2_monomials(algebra, x, y, z)


def _membership_check(algebra, seed, samples, salt, equation_targets):
    """Sweep basis triples plus random triples through a membership test.

    ``equation_targets(x, y, z)`` yields (equation, target, span_vectors)
    checks; the first non-membership becomes the failure witness.
    """
    n = sample_count(algebra, samples)
    for x, y, z in _triple_stream(algebra, n, seed, salt=salt):
        for equation, target, vectors in equation_targets(x, y, z):
            if not span_of(algebra, vectors).contains(target):
                return _fails(equation, x=x, y=y, z=z)
    return Verdict("holds-randomized", samples=n, note=_char2_note(algebra))


def check_left_sliding(algebra: Algebra, seed: int = 0,
                       samples: int = DEFAULT_SAMPLES) -> Verdict:
    """(xy)z lies in the span of the 13 bounded monomials with 2-fold second factor."""
    mul = algebra.multiply

    def targets(x, y, z):
        yield "(xy)z in Lin_1(Q_l)", mul(mul(x, y), z), _q_left(algebra, x, y, z)

    return _membership_check(algebra, seed, samples, 10, targets)


def check_right_sliding(algebra: Algebra, seed: int = 0,
                        samples: int = DEFAULT_SAMPLES) -> Verdict:
    """z(xy) lies in the span of the 13 bounded monomials with 2-fold first factor."""
    mul = algebra.multiply

    def targets(x, y, z):
        yield "z(xy) in Lin_1(Q_r)", mul(z, mul(x, y)), _q_right(algebra, x, y, z)

    return _membership_check(algebra, seed, samples, 11, targets)


def check_mixing(algebra: Algebra, seed: int = 0,
                 samples: int = DEFAULT_SAMPLES) -> Verdict:
    """Both (xy)z and z(xy) lie in the span of the combined monomial pool."""
    mul = algebra.multiply

    def targets(x, y, z):
        pool = _q_left(algebra, x, y, z) + _q_right(algebra, x, y, z)[:4]
        yield "(xy)z in Lin_1(P)", mul(mul(x, y), z), pool
        yield "z(xy) in Lin_1(P)", mul(z, mul(x, y)), pool

    return _membership_check(algebra, seed, samples, 12, targets)


# -- descending flexibility / alternativity ---------------------------------


def _pair_span_list(algebra, a, b):
    mul = algebra.multiply
    return [a, b, mul(a, a), mul(a, b), mul(b, a)]


def _short_span_list(algebra, a, b, c):
    # words of length <= 2 in a, b, c except the squares aa, bb, cc
    mul = algebra.multiply
    return [a, b, c, mul(a, b), mul(b, a), mul(c, b), mul(b, c),
            mul(a, c), mul(c, a)]


def _check_descending(algebra, seed, samples, pair_products, triple_sums,
                      pair_salt, triple_salt):
    # exhaustive basis sweeps first so witnesses are deterministic basis
    # tuples whenever one exists, then the seeded dense samples
    n = sample_count(algebra, samples)
    basis_elts = _basis_elements(algebra)

    def check_pair(a, b):
        basis = span_of(algebra, _pair_span_list(algebra, a, b))
        for equation, target in pair_products(a, b):
            if not basis.contains(target):
                return _fails(equation, a=a, b=b)
        return None

    def check_triple(a, b, c):
        basis = span_of(algebra, _short_span_list(algebra, a, b, c))
        for equation, target in triple_sums(a, b, c):
            if not basis.contains(target):
                return _fails(equation, a=a, b=b, c=c)
        return None

    for a, b in product(basis_elts, repeat=2):
        bad = check_pair(a, b)
        if bad:
            return bad
    for a, b, c in product(basis_elts, repeat=3):
        bad = check_triple(a, b, c)
        if bad:
            return bad
    for a, b in _random_pairs(algebra, n, seed, pair_salt):
        bad = check_pair(a, b)
        if bad:
            return bad
    for a, b, c in _random_triples(algebra, n, seed, triple_salt):
        bad = check_triple(a, b, c)
        if bad:
            return bad
    if algebra.field.characteristic != 2:
        note = "pair memberships are implied by the symmetrized ones away from characteristic 2"
    else:
        note = _char2_note(algebra)
    return Verdict("holds-randomized", samples=n, note=note)


def check_descendingly_flexible(algebra: Algebra, seed: int = 0,
                                samples: int = DEFAULT_SAMPLES) -> Verdict:
    """(ab)a, a(ba) drop into Lin_1(a,b,aa,ab,ba); symmetrized triple sums drop degree."""
    mul = algebra.multiply
    add = algebra.add

    def pairs(a, b):
        yield "(ab)a in Lin_1(a,b,aa,ab,ba)", mul(mul(a, b), a)
        yield "a(ba) in Lin_1(a,b,aa,ab,ba)", mul(a, mul(b, a))

    def triples(a, b, c):
        yield ("(ab)c + (cb)a in Lin_2'(a,b,c)",
               add(mul(mul(a, b), c), mul(mul(c, b), a)))
        yield ("a(bc) + c(ba) in Lin_2'(a,b,c)",
               add(mul(a, mul(b, c)), mul(c, mul(b, a))))

    return _check_descending(algebra, seed, samples, pairs, triples, 20, 21)


def check_descendingly_alternative(algebra: Algebra, seed: int = 0,
                                   samples: int = DEFAULT_SAMPLES) -> Verdict:
    """(ba)a, a(ab) drop into Lin_1(a,b,aa,ab,ba); symmetrized triple sums drop degree."""
    mul = algebra.multiply
    add = algebra.add

    def pairs(a, b):
        yield "(ba)a in Lin_1(a,b,aa,ab,ba)", mul(mul(b, a), a)
        yield "a(ab) in Lin_1(a,b,aa,ab,ba)", mul(a, mul(a, b))

    def triples(a, b, c):
        yield ("(ab)c + (ac)b in Lin_2'(a,b,c)",
               add(mul(mul(a, b), c), mul(mul(a, c), b)))
        yield ("a(bc) + b(ac) in Lin_2'(a,b,c)",
               add(mul(a, mul(b, c)), mul(b, mul(a, c))))

    return _check_descending(algebra, seed, samples, pairs, triples, 22, 23)


# -- sufficient condition ----------------------------------------------------


def check_sufficient_condition(algebra: Algebra, variant: str, seed: int = 0,
                               samples: int = DEFAULT_SAMPLES) -> Verdict:
    """Some aa-coefficient depending on b alone represents the sandwich products.

    For each sampled pair (a, b), both products of the variant must lie in
    the span of (a, b, aa, ab, ba[, e]).  When aa sticks out of the span of
    the remaining monomials the aa-coefficient of the representation is
    forced, and it must stay constant while a varies with b fixed.  Pairs
    where aa is absorbed leave the coefficient unconstrained; if no sampled
    pair even had room for the membership to fail (the remaining monomials
    already span everything, as in dimension 1) the verdict is inconclusive.
    """
    if variant not in ("flex", "alt"):
        raise ValueError("variant must be 'flex' or 'alt'")
    mul = algebra.multiply
    f = algebra.field
    n = sample_count(algebra, samples)
    n_b = max(1, int(n**0.5))
    n_a = max(1, (n + n_b - 1) // n_b)

    basis_elts = _basis_elements(algebra)
    b_values = list(basis_elts)
    b_values += [random_element(algebra, seed, 7_000 + t) for t in range(n_b)]
    a_values = list(basis_elts)
    a_values += [random_element(algebra, seed, 8_000 + t) for t in range(n_a)]

    informative = 0
    pinned = 0
    for b in b_values:
        seen_coeff = None
        seen_a = None
        for a in a_values:
            rest = [a, b, mul(a, b), mul(b, a)]
            if algebra.unity is not None:
                rest.append(algebra.unity)
            basis = SpanBasis(f, algebra.dim)
            for vec in rest:
                basis.insert(vec)
            if 0 < basis.rank < algebra.dim:
                informative += 1
            aa_res = basis.reduce(mul(a, a))
            aa_lead = next((i for i, x in enumerate(aa_res) if not f.is_zero(x)), None)
            if variant == "flex":
                targets = [("(ab)a", mul(mul(a, b), a)), ("a(ba)", mul(a, mul(b, a)))]
            else:
                targets = [("(ba)a", mul(mul(b, a), a)), ("a(ab)", mul(a, mul(a, b)))]
            for name, target in targets:
                t_res = basis.reduce(target)
                if aa_lead is None:
                    # aa adds nothing, so the target itself must be absorbed
                    if any(not f.is_zero(x) for x in t_res):
                        return _fails(f"{name} outside Lin_1(a,b,aa,ab,ba)", a=a, b=b)
                    continue
                g = f.div(t_res[aa_lead], aa_res[aa_lead])
                if [f.mul(g, x) for x in aa_res] != t_res:
                    return _fails(f"{name} outside Lin_1(a,b,aa,ab,ba)", a=a, b=b)
                pinned += 1
                if seen_coeff is None:
                    seen_coeff, seen_a = g, a
                elif g != seen_coeff:
                    return _fails(f"aa-coefficient forced by {name} inconsistent at fixed b",
                                  a1=seen_a, a2=a, b=b)
    if informative == 0 and pinned == 0:
        return Verdict("inconclusive",
                       note="the remaining monomials span everything on every sampled pair")
    note = None if pinned else "aa-coefficient never forced; any choice represents the products"
    return Verdict("holds-randomized", samples=informative + pinned, note=note)


# -- aggregation -------------------------------------------------------------


@dataclass
class ClassificationReport:
    """Per-class verdicts for one algebra, plus consistency warnings."""

    verdicts: dict
    seed: int
    samples: int
    characteristic: int
    warnings: tuple

    def verdict(self, name: str) -> Verdict:
        return self.verdicts[name]

    def as_dict(self, algebra=None):
        return {
            "verdicts": {k: v.as_dict(algebra) for k, v in self.verdicts.items()},
            "seed": self.seed,
            "samples": self.samples,
            "characteristic": self.characteristic,
            "warnings": list(self.warnings),
        }


def classify(algebra: Algebra, seed: int = 0,
             samples: int = DEFAULT_SAMPLES) -> ClassificationReport:
    """Run every class check and audit the implications between them."""
    verdicts = {
        "flexible": check_flexible(algebra, seed, samples),
        "alternative": check_alternative(algebra, seed, samples),
        "left_sliding": check_left_sliding(algebra, seed, samples),
        "right_sliding": check_right_sliding(algebra, seed, samples),
        "mixing": check_mixing(algebra, seed, samples),
        "descendingly_flexible": check_descendingly_flexible(algebra, seed, samples),
        "descendingly_alternative": check_descendingly_alternative(algebra, seed, samples),
        "sufficient_condition_flex": check_sufficient_condition(algebra, "flex", seed, samples),
        "sufficient_condition_alt": check_sufficient_condition(algebra, "alt", seed, samples),
    }
    warnings = []
    for name in ("descendingly_flexible", "descendingly_alternative"):
        if verdicts[name].holds and verdicts["mixing"].kind == "fails":
            warnings.append(f"{name} holds but mixing fails; implication violated")
    for name, suff in (("descendingly_flexible", "sufficient_condition_flex"),
                       ("descendingly_alternative", "sufficient_condition_alt")):
        if verdicts[suff].holds and verdicts[name].kind == "fails":
            warnings.append(f"{suff} holds but {name} fails; implication violated")
    return ClassificationReport(
        verdicts=verdicts,
        seed=seed,
        samples=samples,
        characteristic=algebra.field.characteristic,
        warnings=tuple(warnings),
    )


def replay_witness(algebra: Algebra, witness: Witness) -> bool:
    """Re-derive a failure standalone; True when the violation reproduces.

    Equality witnesses re-evaluate both sides; membership witnesses rebuild
    the span from scratch and re-test containment.
    """
    mul = algebra.multiply
    add = algebra.add
    elts = dict(witness.elements)
    eq = witness.equation

    equality_replays = {
        "(ab)a = a(ba)": lambda a, b: mul(mul(a, b), a) != mul(a, mul(b, a)),
        "a(ab) = (aa)b": lambda a, b: mul(a, mul(a, b)) != mul(mul(a, a), b),
        "(ba)a = b(aa)": lambda a, b: mul(mul(b, a), a) != mul(b, mul(a, a)),
        "(ab)c + (cb)a = a(bc) + c(ba)": lambda a, b, c: add(
            mul(mul(a, b), c), mul(mul(c, b), a)) != add(
            mul(a, mul(b, c)), mul(c, mul(b, a))),
        "a(cb) + c(ab) = (ac)b + (ca)b": lambda a, b, c: add(
            mul(a, mul(c, b)), mul(c, mul(a, b))) != add(
            mul(mul(a, c), b), mul(mul(c, a), b)),
        "(ba)c + (bc)a = b(ac) + b(ca)": lambda a, b, c: add(
            mul(mul(b, a), c), mul(mul(b, c), a)) != add(
            mul(b, mul(a, c)), mul(b, mul(c, a))),
    }
    if eq in equality_replays:
        return equality_replays[eq](**elts)

    membership_replays = {
        "(xy)z in Lin_1(Q_l)": lambda x, y, z: (mul(mul(x, y), z), _q_left(algebra, x, y, z)),
        "z(xy) in Lin_1(Q_r)": lambda x, y, z: (mul(z, mul(x, y)), _q_right(algebra, x, y, z)),
        "(xy)z in Lin_1(P)": lambda x, y, z: (
            mul(mul(x, y), z), _q_left(algebra, x, y, z) + _q_right(algebra, x, y, z)[:4]),
        "z(xy) in Lin_1(P)": lambda x, y, z: (
            mul(z, mul(x, y)), _q_left(algebra, x, y, z) + _q_right(algebra, x, y, z)[:4]),
        "(ab)a in Lin_1(a,b,aa,ab,ba)": lambda a, b: (
            mul(mul(a, b), a), _pair_span_list(algebra, a, b)),
        "a(ba) in Lin_1(a,b,aa,ab,ba)": lambda a, b: (
            mul(a, mul(b, a)), _pair_span_list(algebra, a, b)),
        "(ba)a in Lin_1(a,b,aa,ab,ba)": lambda a, b: (
            mul(mul(b, a), a), _pair_span_list(algebra, a, b)),
        "a(ab) in Lin_1(a,b,aa,ab,ba)": lambda a, b: (
            mul(a, mul(a, b)), _pair_span_list(algebra, a, b)),
        "(ab)c + (cb)a in Lin_2'(a,b,c)": lambda a, b, c: (
            add(mul(mul(a, b), c), mul(mul(c, b), a)), _short_span_list(algebra, a, b, c)),
        "a(bc) + c(ba) in Lin_2'(a,b,c)": lambda a, b, c: (
            add(mul(a, mul(b, c)), mul(c, mul(b, a))), _short_span_list(algebra, a, b, c)),
        "(ab)c + (ac)b in Lin_2'(a,b,c)": lambda a, b, c: (
            add(mul(mul(a, b), c), mul(mul(a, c), b)), _short_span_list(algebra, a, b, c)),
        "a(bc) + b(ac) in Lin_2'(a,b,c)": lambda a, b, c: (
            add(mul(a, mul(b, c)), mul(b, mul(a, c))), _short_span_list(algebra, a, b, c)),
    }
    if eq in membership_replays:
        target, vectors = membership_replays[eq](**elts)
        return not span_of(algebra, vectors).contains(target)

    products = {
        "(ab)a": lambda a, b: mul(mul(a, b), a),
        "a(ba)": lambda a, b: mul(a, mul(b, a)),
        "(ba)a": lambda a, b: mul(mul(b, a), a),
        "a(ab)": lambda a, b: mul(a, mul(a, b)),
    }
    for name, product in products.items():
        if eq == f"{name} outside Lin_1(a,b,aa,ab,ba)":
            a, b = elts["a"], elts["b"]
            return not span_of(algebra, _pair_span_list(algebra, a, b)).contains(
                product(a, b))
    if eq.startswith("aa-coefficient forced by"):
        b = elts["b"]
        f = algebra.field
        variant_products = [products["(ab)a"], products["a(ba)"]] \
            if "(ab)a" in eq or "a(ba)" in eq \
            else [products["(ba)a"], products["a(ab)"]]
        forced = []
        for a in (elts["a1"], elts["a2"]):
            rest = [a, b, mul(a, b), mul(b, a)]
            if algebra.unity is not None:
                rest.append(algebra.unity)
            basis = SpanBasis(f, algebra.dim)
            for vec in rest:
                basis.insert(vec)
            aa_res = basis.reduce(mul(a, a))
            lead = next((i for i, x in enumerate(aa_res) if not f.is_zero(x)), None)
            if lead is None:
                continue
            for product in variant_products:
                t_res = basis.reduce(product(a, b))
                forced.append(f.div(t_res[lead], aa_res[lead]))
        return len(set(forced)) > 1
    raise ValueError(f"no replay rule for equation {eq!r}")
