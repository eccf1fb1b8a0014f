"""Identity-class checks with explicit witnesses and assurance levels.

Equality identities (flexible, alternative) decompose over a basis, so a
clean sweep of basis pairs plus the once-linearized basis triples proves
them for every element of the algebra, in any characteristic.  The
membership identities (sliding, mixing, descending flexibility and
alternativity) have argument-dependent right-hand spans, so basis sweeps
are necessary but not sufficient; their positive verdicts carry the
``holds-randomized`` assurance level with the sample count used.

Every identity is written once, in ``IDENTITIES``, as the text its failure
witness carries; the checks and the README's list of classes both read that
table.

The checks run on integer rows, as the span ladder does: residues mod p
over GF(p), and over Q each element's numerators without its denominator,
multiplied through ``Algebra.product_kernel`` without the table's common
denominator D.  That is exact because every text is homogeneous in each
letter: all words of an equality, and all summands of a membership's left
side, hold the same letters the same number of times, so they carry the
same positive factor, and a span does not depend on how its vectors are
scaled.  ``_Equation`` refuses a text that is not homogeneous.  A
membership's span is built only where its answer is read: a left side that
is zero holds at once, since 0 lies in every span.  Otherwise the span is
grown lazily (``_lazy_span``): the left side is reduced first, and the
span's words are made and inserted one at a time only until the residue is
zero, so a span is complete only where a membership fails.  The lazy spans,
and the span of ``_forced_coefficients``, keep bare echelon rows and call
the echelon routine of ``spans`` (``_reduce`` and ``_insert``) directly,
since their rows are integer rows already; that routine keeps residues
with pivot 1 over GF(p) and primitive integer rows over Q, so no check
here picks row operations by field.

One walk (``_walk``) decides all nine classes, and ``classify``, the one
public entry, runs it.  It visits the basis pairs, then the basis
triples, once for every class still open, and the (b, a) grid once for
both sufficient conditions.  Each class keeps the order of its own tuple
stream (see "the walk" below) and stops at its own first failure, so its
verdict and witness are those of its stream walked alone.  Two shortcuts
are exact: a mixing text is skipped at a tuple where the sliding text
with the same left side held, since Lin_1(P) holds the words of
Lin_1(Q_l) and Lin_1(Q_r); and the random pairs of flexible and
alternative are tried only once a basis triple fails, since basis pairs
plus linearized basis triples prove an equality.  Each class's random
tuples are its own and go through ``_first_failure``.  A sufficient
condition that the grid finds holding while the descending class it
implies fails is checked once more, on the pairs of the line of that
class's witness (``_line_walk``), where its failure must show.

The check of one tuple is generated code (``_check_source``), one
function per arity, compiled once per process at its first tuple through
``algebra.compile_kernel`` and kept in an ``algebra.KernelCache``
(``_TUPLE_CHECKS``), as the product and row kernels are.  It gets
the open classes as a bitmask and returns the classes that fail at the
tuple, each with the first text it breaks.  The tuple's rows are its
locals, and x, y, z are read as a, b, c; every word of a text or a span
has a local that is made once, from its two factors' locals, where the
check first needs it, so a word that several classes name is made once
per tuple.  A span's words are made by a nested generator only as the
lazy span takes them, and the span dies with the check's frame.  The pair
check also makes the (b, a) grid's words, so it is the one word evaluator
of the package.

Two memos outlive a tuple.  A sample element is drawn once per algebra:
``random_element`` keeps its draws in ``Algebra.sample_draws``, which
lives as long as the parsed algebra (one CLI job), because the classes'
salts overlap.  A product of two rows is made once per walk:
``_row_product`` gives a product function that memoizes on the pair of row
tuples, and one serves the whole basis walk and the (b, a) grid of one
``_walk`` call; each ``_first_failure`` call over a class's random tuples
has its own.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain, product

from .algebra import DEFAULT_SAMPLES, Algebra, Element, KernelCache, compile_kernel
from .errors import DomainError
from .field import integer_row
from .spans import _insert, _reduce

CHAR2_SAMPLE_FACTOR = 4

# -- the equation table --------------------------------------------------------
#
# A word is a letter, or two factors that are letters or bracketed words; a
# side is a sum of words.  ``lhs = rhs`` is an equality and ``lhs in SPAN``
# a membership in the span of SPAN's words plus the unity.  A class checks
# its two-letter equations on pairs and its three-letter ones on triples.

SPANS = {
    "Lin_1(Q_l)": "x(zy) x(yz) y(xz) y(zx) xy yx xz zx yz zy x y z".split(),
    "Lin_1(Q_r)": "(xz)y (zx)y (yz)x (zy)x xy yx xz zx yz zy x y z".split(),
    "Lin_1(P)": "x(zy) x(yz) y(xz) y(zx) (xz)y (zx)y (yz)x (zy)x xy yx xz zx yz zy x y z".split(),
    "Lin_1(a,b,aa,ab,ba)": "a b aa ab ba".split(),
    # words of length <= 2 in a, b, c except the squares aa, bb, cc
    "Lin_2'(a,b,c)": "a b c ab ba cb bc ac ca".split(),
}

IDENTITIES = {
    "flexible": ("(ab)a = a(ba)", "(ab)c + (cb)a = a(bc) + c(ba)"),
    "alternative": ("a(ab) = (aa)b", "(ba)a = b(aa)",
                    "a(cb) + c(ab) = (ac)b + (ca)b", "(ba)c + (bc)a = b(ac) + b(ca)"),
    "left_sliding": ("(xy)z in Lin_1(Q_l)",),
    "right_sliding": ("z(xy) in Lin_1(Q_r)",),
    "mixing": ("(xy)z in Lin_1(P)", "z(xy) in Lin_1(P)"),
    "descendingly_flexible": ("(ab)a in Lin_1(a,b,aa,ab,ba)", "a(ba) in Lin_1(a,b,aa,ab,ba)",
                              "(ab)c + (cb)a in Lin_2'(a,b,c)",
                              "a(bc) + c(ba) in Lin_2'(a,b,c)"),
    "descendingly_alternative": ("(ba)a in Lin_1(a,b,aa,ab,ba)", "a(ab) in Lin_1(a,b,aa,ab,ba)",
                                 "(ab)c + (ac)b in Lin_2'(a,b,c)",
                                 "a(bc) + b(ac) in Lin_2'(a,b,c)"),
}

CLASS_NAMES = (*IDENTITIES, "sufficient_condition_flex", "sufficient_condition_alt")


def _factors(words) -> dict:
    """word -> (left, right), the two factors of each product within the words."""
    table, words = {}, list(words)
    while words:
        word = words.pop()
        if len(word) == 1 or word in table:
            continue
        depth = 0
        for end, ch in enumerate(word):  # the left factor ends where depth returns to 0
            depth += (ch == "(") - (ch == ")")
            if depth == 0:
                break
        left, right = (f[1:-1] if f[0] == "(" else f for f in (word[:end + 1], word[end + 1:]))
        table[word] = left, right
        words += left, right
    return table


def _letters(word) -> str:
    return "".join(sorted(filter(str.isalpha, word)))


# -- integer rows --------------------------------------------------------------
#
# Over Q a word with m products evaluates to D^m times the exact word, times
# d^k for each letter it holds k times, d that letter's dropped denominator;
# the module docstring says why comparisons stay exact.


def _row(element) -> tuple:
    """(row, d): the element's integer row as a tuple and the denominator it dropped."""
    row, d = integer_row(element)
    return tuple(row), d


def _row_product(algebra):
    """The product of two integer row tuples: residues over GF(p), D times the product over Q.

    The product function multiplies each distinct pair of rows once, for as
    long as it lives, and returns tuples.
    """
    product, p = algebra.product_kernel, algebra.field.characteristic
    products = {}

    def mul(u, v):
        w = products.get((u, v))
        if w is None:
            w = product(u, v)
            w = products[u, v] = tuple(x % p for x in w) if p else tuple(w)
        return w

    return mul


def _is_zero(v, p) -> bool:
    return not any(x % p for x in v) if p else not any(v)


def _lazy_span(p, pending):
    """The membership test of the span of pending integer rows, grown only as far as it needs.

    The test keeps bare echelon rows and their pivots, as ``spans._insert``
    makes them, over the characteristic p (0 over Q).  It reduces the
    vector first, then inserts pending rows one at a time, reducing its
    residue again by each row that enlarges the span, and stops once the
    residue is zero (at the latest once the span is all of A).  A row is
    made only when it is taken, so a word's products are made only when the
    span asks for the word.  After a False answer every pending row has been
    inserted, so the span is complete.
    """
    rows, pivots = [], []

    def absorbs(v) -> bool:
        while True:
            v = _reduce(rows, pivots, p, v)[0]
            if not any(v):
                return True
            for row in pending:
                if _insert(rows, pivots, p, row) is not None:
                    break
            else:
                return False

    return absorbs


class _Equation:
    """One table text, split once into its sides and the span it names.

    ``lhs`` and ``rhs`` are the words of its sides (``rhs`` None for a
    membership, whose span's name is ``span``), and ``letters`` the letters
    it quantifies over.  The generated tuple check (``_check_source``) makes
    the words.  A text that is not homogeneous in each letter is refused,
    since the checks drop denominators.
    """

    def __init__(self, text):
        lhs, _, rhs = text.partition(" = ")
        lhs, _, self.span = lhs.partition(" in ")
        self.lhs, self.rhs = lhs.split(" + "), rhs.split(" + ") if rhs else None
        compared = self.lhs + (self.rhs or [])
        if len({_letters(word) for word in compared}) > 1:
            raise ValueError(f"{text!r} is not homogeneous in each letter")
        words = self.rhs or SPANS[self.span]
        self.letters = "".join(sorted(set(filter(str.isalpha, lhs + " ".join(words)))))


def _clash(text):
    return f"aa-coefficient forced by {text.split(' in ')[0]} inconsistent at fixed b"


EQUATIONS = {text: _Equation(text) for texts in IDENTITIES.values() for text in texts}
# a class's texts by the number of elements they quantify over
_BY_ARITY = {(name, k): [t for t in texts if len(EQUATIONS[t].letters) == k]
             for name, texts in IDENTITIES.items() for k in (2, 3)}
# each sufficient condition's variant, and the descending class it implies;
# a condition represents the sandwich products of that class's pair texts
_DESCENDING = {"flex": "descendingly_flexible", "alt": "descendingly_alternative"}
_SANDWICHES = {v: _BY_ARITY[name, 2] for v, name in _DESCENDING.items()}


def _narrower(e, f) -> bool:
    """True when e puts f's left side in a span of fewer of f's words, so e implies f."""
    return bool(e.span and f.span) and e.lhs == f.lhs and set(SPANS[e.span]) < set(SPANS[f.span])


# a text is skipped at a tuple where the text it maps to held: a mixing text
# where the sliding text with its left side held, since Lin_1(P) holds the
# words of Lin_1(Q_l) and of Lin_1(Q_r)
_IMPLIED_BY = {text: other for text in EQUATIONS for other in EQUATIONS
               if _narrower(EQUATIONS[other], EQUATIONS[text])}

# -- the tuple check -----------------------------------------------------------
#
# The check of one tuple is generated code, one function per arity k
# (_check_source), compiled once per process at its first tuple.  Bit i of
# its mask stands for the class CLASS_NAMES[i], and it returns, for each
# class of the mask that has texts of arity k, the index in _TEXTS of the
# first of them that the tuple violates.

# each class bit, and each text's (class, text) by its index in the check
_BIT = {name: 1 << i for i, name in enumerate(CLASS_NAMES)}
_TEXTS = [(name, text) for name, texts in IDENTITIES.items() for text in texts]
_TEXT_INDEX = {text: i for i, (_, text) in enumerate(_TEXTS)}
_SPAN_INDEX = {name: i for i, name in enumerate(SPANS)}
# x, y, z name the tuple's rows as a, b, c do, so the check reads them as a,
# b, c, and a word that several classes name is one local
_ABC = str.maketrans("xyz", "abc")
_LOCAL = str.maketrans("()", "LR")
# every product word of a span or a table text, in a, b, c, and its two factors
_FACTORS = _factors([word.translate(_ABC) for words in SPANS.values() for word in words]
                    + [word.translate(_ABC) for e in EQUATIONS.values()
                       for word in e.lhs + (e.rhs or [])])


def _local(word) -> str:
    """The check's local for a word in a, b, c: a letter is its row, a product w_<word>."""
    return word if len(word) == 1 else "w_" + word.translate(_LOCAL)


def _make(word, pad) -> list:
    """Lines that make the word's row where its local is still None, each factor first."""
    if len(word) == 1:
        return []
    left, right = _FACTORS[word]
    inner = pad + "    "
    return [f"{pad}if {_local(word)} is None:", *_make(left, inner), *_make(right, inner),
            f"{inner}{_local(word)} = mul({_local(left)}, {_local(right)})"]


def _side(words, pad) -> tuple:
    """(lines, locals): the lines that make the words' rows, and the words' locals."""
    words = [word.translate(_ABC) for word in words]
    return [line for word in words for line in _make(word, pad)], [_local(w) for w in words]


def _sum(names) -> str:
    """The sum of the rows in the locals; a side has one word or two."""
    return names[0] if len(names) == 1 else f"[q + r for q, r in zip({', '.join(names)})]"


def _text_lines(e, pad) -> list:
    """Lines that set bad to whether the tuple's rows violate the equation e.

    A product's row is reduced mod p (``_row_product``), so two words are
    equal exactly when their rows are; a sum of two is compared mod p.  A
    membership whose left side is zero holds without its span, since 0
    lies in every span; otherwise the span (s<i>, i its index in SPANS) is
    made at its first use in the tuple, and its words only as it takes them
    (span<i>).
    """
    lines, lhs = _side(e.lhs, pad)
    if e.rhs:
        more, rhs = _side(e.rhs, pad)
        if len(lhs) == len(rhs) == 1:
            return lines + more + [f"{pad}bad = {lhs[0]} != {rhs[0]}"]
        q = [f"q{i}" for i in range(len(lhs + rhs))]
        signed = " + ".join(q[:len(lhs)]) + "".join(f" - {x}" for x in q[len(lhs):])
        return lines + more + [
            f"{pad}d = [{signed} for {', '.join(q)} in zip({', '.join(lhs + rhs)})]",
            f"{pad}bad = any(q % p for q in d) if p else any(d)"]
    i = _SPAN_INDEX[e.span]
    nonzero = "any(v)" if len(lhs) == 1 else "(any(q % p for q in v) if p else any(v))"
    return lines + [f"{pad}v = {_sum(lhs)}", f"{pad}bad = False", f"{pad}if {nonzero}:",
                    f"{pad}    if s{i} is None:", f"{pad}        s{i} = span(p, span{i}())",
                    f"{pad}    bad = not s{i}(v)"]


def _class_lines(texts, pad) -> list:
    """Lines that append to failed the index of the first of the texts the tuple violates.

    A text that ``_IMPLIED_BY`` maps to another is skipped where that one
    held (h<i>, i the other's index in _TEXTS).
    """
    text, rest = texts[0], texts[1:]
    i = _TEXT_INDEX[text]
    lines, inner = [], pad
    implied_by = _IMPLIED_BY.get(text)
    if implied_by is not None:
        inner = pad + "    "
        lines += [f"{pad}bad = False",
                  f"{pad}if not h{_TEXT_INDEX[implied_by]}:"]
    lines += _text_lines(EQUATIONS[text], inner)
    lines += [f"{pad}if bad:", f"{pad}    failed.append({i})"]
    held = [f"{pad}    h{i} = True"] if text in _IMPLIED_BY.values() else []
    after = held + (_class_lines(rest, pad + "    ") if rest else [])
    return lines + ([f"{pad}else:", *after] if after else [])


def _check_source(k: int) -> list:
    """The source lines of ``check(mask, a, b[, c], mul, p, e, span)`` on k-tuples.

    a, b, c are the tuple's integer rows, mul the walk's product function
    (``_row_product``), p the characteristic, e the unity's integer row or
    None, and span the lazy span's constructor (``_lazy_span``).  Each
    product word in the tuple's letters has a local, None until it is made
    from its factors' locals, so a word is made once per tuple, whichever
    class names it first.  A nested generator per span yields the unity's
    row, if any, then the span's words, each made as it is taken.  The
    classes run in table order; each stops at its first violated text, and
    a text is skipped where the text ``_IMPLIED_BY`` maps it to held.

    At k = 2 the mask may hold the sufficient conditions' bits instead, for
    the (b, a) grid: the check then returns the rows ab, ba, aa and the left
    sides of each such condition's sandwich texts (``_forced_coefficients``
    reduces them).  Only the table's words, as locals, and int indices
    enter the source.
    """
    letters = "abc"[:k]
    texts = [text for name in IDENTITIES for text in _BY_ARITY[name, k]]
    spans = [name for name in SPANS if any(EQUATIONS[t].span == name for t in texts)]
    words = [_local(word) for word in sorted(_FACTORS) if set(word) <= set(letters + "()")]
    held = sorted(_TEXT_INDEX[t] for t in set(_IMPLIED_BY.values()) if t in texts)
    unmade = words + [f"s{_SPAN_INDEX[name]}" for name in spans]
    lines = [f"def check(mask, {', '.join(letters)}, mul, p, e, span):",
             f"    {' = '.join(unmade)} = None"]
    if held:
        lines.append(f"    {' = '.join(f'h{i}' for i in held)} = False")
    if k == 2:
        grid = [(_BIT[f"sufficient_condition_{v}"], sandwiches)
                for v, sandwiches in _SANDWICHES.items()]
        lines.append(f"    if mask & {sum(bit for bit, _ in grid)}:")
        lines += [line for word in ("ab", "ba", "aa") for line in _make(word, "        ")]
        lines.append("        rows = [w_ab, w_ba, w_aa]")
        for bit, sandwiches in grid:
            lines.append(f"        if mask & {bit}:")
            sides = [_side(EQUATIONS[t].lhs, "            ") for t in sandwiches]
            lines += [line for made, _ in sides for line in made]
            lines.append(f"            rows += [{', '.join(_sum(names) for _, names in sides)}]")
        lines.append("        return rows")
    for name in spans:
        i = _SPAN_INDEX[name]
        lines += [f"    def span{i}():", f"        nonlocal {', '.join(words)}",
                  "        if e is not None:", "            yield e"]
        for word in SPANS[name]:
            word = word.translate(_ABC)
            lines += _make(word, "        ") + [f"        yield {_local(word)}"]
    lines.append("    failed = []")
    for name in IDENTITIES:
        if _BY_ARITY[name, k]:
            lines.append(f"    if mask & {_BIT[name]}:")
            lines += _class_lines(_BY_ARITY[name, k], "        ")
    lines.append("    return failed")
    return lines


# arity k -> the check of a k-tuple (see _check_source), named
# ``<alglen tuple check, arity k>`` in profiles and tracebacks
_TUPLE_CHECKS = KernelCache(
    lambda k: compile_kernel(f"tuple check, arity {k}", "check", _check_source(k)))


class Witness:
    """A concrete violation: named elements and the equation they break."""

    def __init__(self, equation: str, elements: tuple):
        self.equation = equation
        self.elements = elements  # (name, coords) pairs, in order of quantification

    def as_dict(self, algebra):
        shown = {name: algebra.format_element(coords) for name, coords in self.elements}
        return {"equation": self.equation, "elements": shown}


class Verdict:
    def __init__(self, kind: str, samples: int = 0, witness: Witness | None = None,
                 note: str | None = None):
        self.kind = kind  # holds-exhaustive | holds-randomized | fails | inconclusive
        self.samples = samples
        self.witness = witness
        self.note = note

    @property
    def holds(self) -> bool:
        return self.kind.startswith("holds")

    def as_dict(self, algebra):
        out = {"kind": self.kind}
        if self.kind == "holds-randomized":
            out["samples"] = self.samples
        if self.witness is not None:
            out["witness"] = self.witness.as_dict(algebra)
        if self.note:
            out["note"] = self.note
        return out


def _fails(equation, names, elements) -> Verdict:
    return Verdict("fails", witness=Witness(equation, tuple(zip(names, elements))))


def random_element(algebra: Algebra, seed: int, index: int) -> Element:
    """Deterministic dense element derived from (seed, index), drawn once per algebra.

    The checks' salts overlap, so one ``classify`` asks for many elements
    more than once; each is kept in ``algebra.sample_draws``.
    """
    draws = algebra.sample_draws
    element = draws.get((seed, index))
    if element is None:
        rng = random.Random(seed * 1_000_003 + index)
        f = algebra.field
        if f.characteristic == 0:
            element = tuple(f.from_int(rng.randint(-2, 2)) for _ in range(algebra.dim))
        else:
            element = tuple(rng.randrange(f.characteristic) for _ in range(algebra.dim))
        draws[seed, index] = element
    return element


def sample_count(algebra: Algebra, samples: int) -> int:
    if samples < 1:
        raise DomainError(f"samples must be at least 1, got {samples}")
    # GF(2) has so few points that the default budget is inflated
    if algebra.field.characteristic == 2:
        return samples * CHAR2_SAMPLE_FACTOR
    return samples


def _char2_note(algebra: Algebra) -> str | None:
    if algebra.field.characteristic == 2:
        return ("characteristic 2: few sample points, budget inflated "
                f"{CHAR2_SAMPLE_FACTOR}x")
    return None


def _basis_tuples(algebra, arity):
    return product([algebra.basis_element(i) for i in range(1, algebra.dim + 1)], repeat=arity)


def _random_tuples(algebra, arity, n_random, seed, salt):
    for t in range(n_random):
        yield tuple(random_element(algebra, seed, arity * t + i + salt) for i in range(arity))


def _first_failures(algebra, names, tuples, mul) -> dict:
    """Each named class's failed verdict for the first tuple that breaks a text of its arity.

    A tuple is visited once for the classes still open, by the check of its
    arity (``_TUPLE_CHECKS``), so a product or span that several classes'
    texts name is made once per tuple; the check takes the classes in table
    order and skips a text where the text ``_IMPLIED_BY`` maps it to held.
    A span lives in the check's frame and dies when the tuple is done.
    """
    failures, mask = {}, sum(_BIT[name] for name in names)
    p = algebra.field.characteristic
    e = None if algebra.unity is None else _row(algebra.unity)[0]
    for elements in tuples:
        if not mask:
            break
        rows = [_row(x)[0] for x in elements]
        for i in _TUPLE_CHECKS[len(elements)](mask, *rows, mul, p, e, _lazy_span):
            name, text = _TEXTS[i]
            failures[name] = _fails(text, EQUATIONS[text].letters, elements)
            mask ^= _BIT[name]
    return failures


def _first_failure(algebra, name, tuples) -> Verdict | None:
    """A failed verdict for the first tuple that breaks a text of its arity."""
    return _first_failures(algebra, [name], tuples, _row_product(algebra)).get(name)


# -- sufficient condition ------------------------------------------------------


def _forced_coefficients(algebra, a, b, variants, mul):
    """Reduce aa and each sandwich product modulo Lin_1(a,b,ab,ba) plus the unity.

    Returns that span's rank and, per sandwich text of the variants, in
    order, whether its product lies in Lin_1(a,b,aa,ab,ba) and the
    aa-coefficient it forces there; None when aa lies in the smaller span,
    so nothing is forced.  The pair check makes the words (see
    _check_source).  The products are integer rows: over Q a product is
    D^2 d_a^2 d_b times the exact one and aa is D d_a^2 times it (see _row),
    so the coefficient is the ratio of their residues divided by D d_b.
    mul is the walk's product function (_row_product).
    """
    f, p = algebra.field, algebra.field.characteristic
    (a, _), (b, d_b) = _row(a), _row(b)
    mask = sum(_BIT[f"sufficient_condition_{v}"] for v in variants)
    ab, ba, aa, *products = _TUPLE_CHECKS[2](mask, a, b, mul, p, None, None)
    # the span's echelon rows, kept bare as _lazy_span keeps them
    rows, pivots = [], []
    spanning = [a, b, ab, ba]
    if algebra.unity is not None:
        spanning.insert(0, _row(algebra.unity)[0])
    for v in spanning:
        _insert(rows, pivots, p, v)
    aa_res, aa_s = _reduce(rows, pivots, p, aa)
    lead = next((i for i, x in enumerate(aa_res) if x), None)
    residues = [_reduce(rows, pivots, p, v) for v in products]
    if lead is None:  # aa adds nothing, so each product itself must be absorbed
        return len(pivots), [(not any(r), None) for r, _ in residues]
    scale = algebra.product_table[1] * d_b
    return len(pivots), [
        (_is_zero([x * aa_res[lead] - y * r[lead] for x, y in zip(r, aa_res)], p),
         f.div(r[lead] * aa_s, s * aa_res[lead] * scale))
        for r, s in residues]


# -- the walk ------------------------------------------------------------------
#
# Each class visits its tuples in one fixed order, its stream, and stops at
# its first failure, which is its witness:
#   flexible, alternative: basis pairs, random pairs, basis triples
#   left_sliding, right_sliding, mixing: basis triples, random triples
#   descendingly_*: basis pairs, basis triples, random pairs, random triples
#   sufficient_condition_*: the (b, a) grid of basis and random elements,
#     then, only if it held while its descending class failed, the pairs on
#     the line of that class's witness
# Each class draws its own random tuples, with its own salts.

# per sweep class, the salts of its random pairs and of its random triples
_SALTS = {
    "flexible": (0, None),
    "alternative": (1, None),
    "left_sliding": (None, 10),
    "right_sliding": (None, 11),
    "mixing": (None, 12),
    "descendingly_flexible": (20, 21),
    "descendingly_alternative": (22, 23),
}
# the equalities, which basis pairs plus linearized basis triples prove
_EXHAUSTIVE = ("flexible", "alternative")


def _random_stream(algebra, name, n, seed):
    """A sweep class's random tuples: its pairs, then its triples."""
    return chain.from_iterable(_random_tuples(algebra, arity, n, seed, salt)
                               for arity, salt in zip((2, 3), _SALTS[name]) if salt is not None)


def _holds(algebra, name, n) -> Verdict:
    if name in _EXHAUSTIVE:
        return Verdict("holds-exhaustive", samples=n)
    if name.startswith("descendingly_") and algebra.field.characteristic != 2:
        note = "pair memberships are implied by the symmetrized ones away from characteristic 2"
    else:
        note = _char2_note(algebra)
    return Verdict("holds-randomized", samples=n, note=note)


def _walk_pairs(algebra, a_values, b, variants, failures, mul) -> tuple:
    """Check the pairs (a, b), for a in a_values, for each variant not in failures.

    Each pair's sandwich products must lie in the span of (a, b, aa, ab,
    ba[, e]), and where aa sticks out of the span of the remaining
    monomials the aa-coefficient is forced and must stay constant while a
    varies with b fixed.  A variant's first failure goes into failures.
    Returns the number of pairs that had room for a failure and, per
    variant, the number of forced coefficients.  Each pair's products are
    reduced in one _forced_coefficients call over the open variants' texts.
    """
    informative, pinned = 0, Counter()
    seen = {}  # per variant, (a, coefficient) of its first forced coefficient at this b
    for a in a_values:
        todo = [v for v in variants if v not in failures]
        if not todo:
            break
        texts = [text for v in todo for text in _SANDWICHES[v]]
        rank, forced = _forced_coefficients(algebra, a, b, todo, mul)
        if 0 < rank < algebra.dim:
            informative += 1
        forced = dict(zip(texts, forced))
        for v in todo:
            for text in _SANDWICHES[v]:
                inside, g = forced[text]
                if not inside:
                    failures[v] = _fails(text.replace(" in ", " outside "), "ab", (a, b))
                    break
                if g is None:
                    continue
                pinned[v] += 1
                if v not in seen:
                    seen[v] = (a, g)
                elif g != seen[v][1]:
                    failures[v] = _fails(_clash(text), ("a1", "a2", "b"), (seen[v][0], a, b))
                    break
    return informative, pinned


def _grid_walk(algebra, seed, n, mul) -> dict:
    """Both sufficient conditions' verdicts from one walk of the (b, a) grid.

    A condition holds when some aa-coefficient depending on b alone
    represents its sandwich products; each row of the grid, one b with
    every a, is checked by _walk_pairs.  If no pair even had room for a
    failure (the remaining monomials span everything, as in dimension 1)
    the verdict is inconclusive.
    """
    n_b = max(1, int(n**0.5))
    n_a = max(1, (n + n_b - 1) // n_b)
    # one-element tuples: every basis element, then the seeded random ones
    b_values = chain(_basis_tuples(algebra, 1), _random_tuples(algebra, 1, n_b, seed, 7_000))
    a_values = [a for (a,) in chain(_basis_tuples(algebra, 1),
                                    _random_tuples(algebra, 1, n_a, seed, 8_000))]

    failures = {}
    informative, pinned = 0, Counter()
    for (b,) in b_values:
        if len(failures) == len(_SANDWICHES):
            break
        row_informative, row_pinned = _walk_pairs(algebra, a_values, b, _SANDWICHES, failures, mul)
        informative += row_informative
        pinned.update(row_pinned)

    verdicts = {}
    for v in _SANDWICHES:
        if v in failures:
            verdict = failures[v]
        elif informative == 0 and pinned[v] == 0:
            verdict = Verdict("inconclusive",
                              note="the remaining monomials span everything on every sampled pair")
        else:
            note = (None if pinned[v]
                    else "aa-coefficient never forced; any choice represents the products")
            verdict = Verdict("holds-randomized", samples=informative + pinned[v], note=note)
        verdicts[f"sufficient_condition_{v}"] = verdict
    return verdicts


def _fixed_letter(text) -> str:
    """The letter a three-letter descending text holds fixed: at one place in both its words."""
    u, w = EQUATIONS[text].lhs
    return next(x for x, y in zip(u, w) if x == y and x.isalpha())


def _line_walk(algebra, variant, witness, mul) -> Verdict | None:
    """The sufficient condition's failure on the line of its descending class's witness.

    Each three-letter descending text is the linearization of a sandwich
    text at (a, b) = (x, f), with f the letter it holds fixed and x, y the
    other two.  Had the condition held, with one aa-coefficient, at the
    pairs (x, f), (y, f) and (x + y, f), the text would hold at the triple;
    and a two-letter descending text is a sandwich text itself.  So the
    condition fails at one of those pairs where the witness is a triple,
    and at the witness's pair where it is a pair; _walk_pairs checks them
    as it checks a row of the grid.  None when no failure shows there.
    """
    values = dict(witness.elements)
    if len(values) == 2:
        a_values, b = [values["a"]], values["b"]
    else:
        f = _fixed_letter(witness.equation)
        x, y = (values[letter] for letter in "abc" if letter != f)
        # basis and random elements are integer rows, and so is their sum
        a_values, b = [x, y, tuple(algebra.field.from_int(s + t) for s, t in zip(x, y))], values[f]
    failures = {}
    _walk_pairs(algebra, a_values, b, (variant,), failures, mul)
    return failures.get(variant)


def _walk(algebra, seed, samples) -> dict:
    """Every class's verdict, each tuple stream the classes share walked once for all of them.

    The basis pairs, then the basis triples, are visited once for every
    sweep class still open (_first_failures), and the (b, a) grid once for
    both sufficient conditions (_grid_walk), with one product function.  A
    class's random tuples stay its own and go through _first_failure where
    its stream has them, so each verdict and witness is that of the class's
    stream walked alone.  Last, a sufficient condition that holds while
    its descending class fails walks that class's witness line (_line_walk).
    """
    n = sample_count(algebra, samples)
    mul = _row_product(algebra)
    failures = _first_failures(algebra, _SALTS,
                               chain(_basis_tuples(algebra, 2), _basis_tuples(algebra, 3)), mul)
    verdicts = {}
    for name in _SALTS:
        failure = failures.get(name)
        if name in _EXHAUSTIVE:
            # a random pair can fail only where a basis triple fails, and the
            # stream visits the random pairs before the basis triples
            if failure is not None and len(failure.witness.elements) == 3:
                failure = _first_failure(algebra, name, _random_stream(algebra, name, n, seed)) \
                    or failure
        elif failure is None:
            failure = _first_failure(algebra, name, _random_stream(algebra, name, n, seed))
        verdicts[name] = failure or _holds(algebra, name, n)
    verdicts.update(_grid_walk(algebra, seed, n, mul))
    # a sufficient condition implies its descending class; where the grid
    # missed the failure that the class's witness implies, find it on the
    # witness's line
    for v, name in _DESCENDING.items():
        suff = f"sufficient_condition_{v}"
        if verdicts[suff].holds and verdicts[name].kind == "fails":
            verdicts[suff] = _line_walk(algebra, v, verdicts[name].witness, mul) or verdicts[suff]
    return verdicts


# -- aggregation ---------------------------------------------------------------


class ClassificationReport:
    """Per-class verdicts for one algebra, plus consistency warnings."""

    def __init__(self, verdicts: dict, seed: int, samples: int, warnings: tuple):
        self.verdicts = verdicts
        self.seed = seed
        self.samples = samples
        self.warnings = warnings

    def verdict(self, name: str) -> Verdict:
        return self.verdicts[name]

    def as_dict(self, algebra):
        return {
            "verdicts": {k: v.as_dict(algebra) for k, v in self.verdicts.items()},
            "seed": self.seed,
            "samples": self.samples,
            "characteristic": algebra.field.characteristic,
            "warnings": list(self.warnings),
        }


def classify(algebra: Algebra, seed: int = 0,
             samples: int = DEFAULT_SAMPLES) -> ClassificationReport:
    """Run every class check and audit the implications between them."""
    found = _walk(algebra, seed, samples)
    verdicts = {name: found[name] for name in CLASS_NAMES}
    warnings = []
    for name in ("descendingly_flexible", "descendingly_alternative"):
        if verdicts[name].holds and verdicts["mixing"].kind == "fails":
            warnings.append(f"{name} holds but mixing fails; implication violated")
    for v, name in _DESCENDING.items():
        suff = f"sufficient_condition_{v}"
        if verdicts[suff].holds and verdicts[name].kind == "fails":
            warnings.append(f"{suff} holds but {name} fails; implication violated")
    return ClassificationReport(verdicts=verdicts, seed=seed, samples=samples,
                                warnings=tuple(warnings))

