"""Canonical word forms for the two degree-lowering identity classes.

Words from the restricted enumeration rewrite, up to sign and modulo
shorter words, into a signed two-block normal form (alternative-type
classes) or a signed three-block form with one of five shape types
(flexible-type classes).  Each rewrite step below is an instance of one of
the two letter-exchange equivalences

    (ab)c ~ -(ac)b,  a(bc) ~ -b(ac)      (alternative type)
    (ab)c ~ -(cb)a,  a(bc) ~ -c(ba)      (flexible type)

applied to subwords, so the output differs from the input by a sign and an
element of the span of shorter words; verify_equivalence checks exactly
that, numerically, in a concrete algebra.

Both sets of rules are closed under the mirror image, which swaps the
factors of every product, so each rule is stated once: the three-block
form keeps its blocks in one of two arrangements, form A ``((x y) z)`` and
form B, its mirror ``(z (y x))``, and each step reads the arrangement only
to tell which side of the word a letter is on.  A form-B tree is the
mirror (``_mirror``) of the form-A tree of the same blocks, except that the
two-factor OO shape has one tree in both.
"""

from __future__ import annotations

from .errors import NotRestrictedForm, WordTooShort
from .field import integer_row
from .spans import lin_span
from .words import Word, is_restricted, word_length, word_row

ALT_SHAPE = "ALT2"


class CanonicalWord:
    """Signed normal form with its block structure and letter partition.

    ``blocks`` maps role names to letter tuples listed innermost first;
    ``partition`` groups the letters (with multiplicity) into the pairwise
    exchangeable classes implied by the block structure.  ``form`` is "A"
    or "B", and a form-B word is the mirror image of the form-A word of the
    same blocks (the OO shape aside, whose one tree serves both): the
    exchange rules are closed under the mirror image.
    """

    def __init__(self, variant: str, sign: int, shape: str, form: str, blocks: dict,
                 partition: tuple):
        self.variant = variant  # "alt-two-block" | "flex-three-block"
        self.sign = sign
        self.shape = shape
        self.form = form  # "A": (xy)z / (x)(y);  "B": the mirrored arrangement
        self.blocks = blocks
        self.partition = partition

    def tree(self) -> Word:
        b = self.blocks
        if self.variant == "alt-two-block":
            return (_left_chain(b["x"]), _mirror(_left_chain(b["y"])))
        if self.shape == "OO":
            return (_block_tree(b["u"]), _mirror(_block_tree(b["v"])))
        if self.shape == "OE":
            t = (_block_tree(b["u"]), _block_tree(b["v"]))
        else:
            t = ((_block_tree(b["x"]), _mirror(_block_tree(b["y"]))),
                 _mirror(_block_tree(b["z"])))
        return t if self.form == "A" else _mirror(t)

    def as_dict(self):
        return {
            "variant": self.variant,
            "sign": self.sign,
            "shape": self.shape,
            "form": self.form,
            "blocks": {k: list(v) for k, v in self.blocks.items()},
            "partition": [list(c) for c in self.partition],
        }


# -- tree construction helpers ----------------------------------------------


def _left_chain(letters) -> Word:
    t = letters[0]
    for s in letters[1:]:
        t = (t, s)
    return t


def _mirror(w: Word) -> Word:
    """The mirror image of w: the factors of every product swapped."""
    return w if isinstance(w, int) else (_mirror(w[1]), _mirror(w[0]))


def _block_tree(letters) -> Word:
    """Alternating application tree of a left-swapping block, innermost first.

    The outermost application is on the left and the sides alternate
    inward; a right-swapping block is its mirror.
    """
    k = len(letters)
    t = letters[0]
    for i in range(1, k):
        t = (letters[i], t) if (k - i) % 2 else (t, letters[i])
    return t


def _application_chain(w: Word):
    """Peel a restricted word into (applications outermost-first, 3-letter core)."""
    apps = []
    t = w
    while word_length(t) > 3:
        left, right = t
        if isinstance(left, int):
            apps.append(("L", left))
            t = right
        else:
            apps.append(("R", right))
            t = left
    return apps, t


# -- two-block form (alternative type) ----------------------------------------


def canonical_alt_form(w: Word) -> CanonicalWord:
    """Signed two-block form: a left chain times a right-nested chain.

    Words of up to three letters already have the shape and keep sign +1;
    every outer application then either appends its letter to the left
    chain (right multiplications) or to the nest (left multiplications),
    flipping the sign each time.
    """
    if not is_restricted(w):
        raise NotRestrictedForm("two-block rewriting needs a restricted word")
    m = word_length(w)
    if m < 2:
        raise WordTooShort("two-block form needs at least 2 letters")
    sign, x, y = _alt_blocks(w)
    partition = (tuple([y[0]] + x[1:]), tuple([x[0]] + y[1:]))
    return CanonicalWord(
        variant="alt-two-block",
        sign=sign,
        shape=ALT_SHAPE,
        form="A",
        blocks={"x": tuple(x), "y": tuple(y)},
        partition=partition,
    )


def _alt_blocks(t: Word):
    """(sign, x, y) of the two-block form of a restricted word of 2 or more letters."""
    # module-level, not a closure: a self-recursive closure is a reference cycle
    if word_length(t) == 2:
        return 1, [t[0]], [t[1]]
    if word_length(t) == 3:
        left, right = t
        if isinstance(right, int):
            return 1, [left[0], left[1]], [right]
        return 1, [left], [right[1], right[0]]
    left, right = t
    if isinstance(right, int):
        sign, x, y = _alt_blocks(left)
        return -sign, x + [right], y
    sign, x, y = _alt_blocks(right)
    return -sign, x, y + [left]


# -- three-block form (flexible type) -----------------------------------------

# state: (sign, form, (x, y, z)) with role tuples listed innermost first.
# Form A renders as ((x y) z) with x left-swapping, y and z right-swapping;
# form B as its mirror (z (y x)).  Every transition below is a fixed chain
# of the two letter-exchange equivalences and flips the sign exactly once;
# it reads the form only to tell z's side, the right in form A and the
# left in form B.

_OTHER = {"A": "B", "B": "A"}


def _base_state(core: Word):
    left, right = core
    if isinstance(right, int):
        return (1, "A", ((left[0],), (left[1],), (right,)))
    return (1, "B", ((right[1],), (right[0],), (left,)))


def _push(state, side, letter):
    sign, form, (x, y, z) = state
    if (side == "R") == (form == "A"):  # the letter lands on z's side
        return (-sign, _OTHER[form], (y, x, z + (letter,)))
    return (-sign, _OTHER[form], (z, y + (letter,), x))


def _pull(state, role):
    """Take the outermost letter off role "y" or "z": the inverse of _push."""
    sign, form, (x, y, z) = state
    # the side of the push: for role z, z's side in the form it was pushed in
    side = "R" if (role == "y") == (form == "A") else "L"
    if role == "y":
        letter, rest = y[-1], (z, y[:-1], x)
    else:
        letter, rest = z[-1], (y, x, z[:-1])
    return (side, letter), (-sign, _OTHER[form], rest)


def _reduce_and_push(state):
    """Pull down to a minimal core, transform, push everything back.

    Returns the state with all letters restored, sized so that its role
    parities already decide the shape class.
    """
    wrappers = []
    st = state
    while True:
        sign, form, (x, y, z) = st
        role = "y" if len(y) >= 3 else "z" if len(z) >= 3 else None
        if role is not None:
            w1, st = _pull(st, role)
            w2, st = _pull(st, role)
            wrappers += [w1, w2]
            continue
        b, c = len(y), len(z)
        if (b, c) == (1, 1) or (b, c) == (2, 1) and len(x) == 1:
            break  # (2, 1): the two-factor shape with a single left letter
        if (b, c) == (1, 2):
            st = (-sign, _OTHER[form], (x + y, (z[0],), (z[1],)))
        elif (b, c) == (2, 1):
            st = (-sign, _OTHER[form], (x[:-1], (x[-1],), y + z))
        else:
            st = (-sign, form, (x, (z[0],), (y[1], y[0], z[1])))
    for side, letter in reversed(wrappers):
        st = _push(st, side, letter)
    return st


def _normalize(state):
    """Shape-normalize a three-block state; returns (state, shape)."""
    st = _reduce_and_push(state)
    _, _, (x, y, z) = st
    a, b, c = len(x), len(y), len(z)
    if a % 2 == 0:
        if not (b % 2 == 1 and c % 2 == 1):
            raise AssertionError("an even x block needs odd y and z blocks")
        return st, "EOO"
    if b % 2 == 0:
        if not (a == 1 and c % 2 == 1):
            raise AssertionError("an even y block needs a one-letter x and an odd z")
        return st, "OO"
    if b == 1 and c == 1:
        return st, "O11"

    # all-odd shape with a longer middle or outer block: move one letter
    # out, renormalize the rest, and put the letter back in
    for role in [r for r, k in (("y", b), ("z", c)) if k >= 3]:
        (side, letter), inner = _pull(st, role)
        inner, inner_shape = _normalize(inner)
        if inner_shape not in ("EOO", "OO"):
            raise AssertionError(f"a pulled letter left shape {inner_shape}, not EOO or OO")
        candidate = _push(inner, side, letter)
        _, _, (cx, cy, cz) = candidate
        ca, cb, cc = len(cx), len(cy), len(cz)
        if ca % 2 == 1 and cb % 2 == 0 and cc % 2 == 0:
            return candidate, "OEE"
        if ca % 2 == 1 and cb % 2 == 1 and cb >= 3 and cc == 1:
            return candidate, "OE"
    raise AssertionError("three-block normalization failed to reach a shape")


def _flex_blocks(state, shape):
    """Final block dictionary and sign for the classified shape."""
    sign, form, (x, y, z) = state
    if shape in ("EOO", "OEE", "O11"):
        return sign, form, {"x": x, "y": y, "z": z}
    if shape == "OO":
        # form A: u = x.y (single x letter below y); form B: u = z-role block
        if form == "A":
            return sign, form, {"u": y + (x[0],), "v": z}
        return sign, form, {"u": z, "v": y + (x[0],)}
    # OE: one extra root exchange merges the single outer letter into y
    return -sign, form, {"u": y + (z[0],), "v": x}


def _flex_partition(shape, blocks):
    def inner(block):
        return [block[0]]

    def outer(block):
        return list(block[1:])

    if shape in ("EOO", "O11"):
        x, y, z = blocks["x"], blocks["y"], blocks["z"]
        classes = [outer(z) + inner(x), outer(x) + inner(y), outer(y) + inner(z)]
    elif shape == "OEE":
        x, y, z = blocks["x"], blocks["y"], blocks["z"]
        classes = [outer(y) + inner(x), outer(z) + inner(y), outer(x) + inner(z)]
    else:
        u, v = blocks["u"], blocks["v"]
        classes = [outer(u) + inner(v), outer(v) + inner(u)]
    if shape == "O11" and len(blocks["x"]) == 1:
        # the three-letter word exchanges its two outer applications directly
        classes = [classes[0] + classes[2], classes[1]]
    return tuple(tuple(c) for c in classes if c)


def canonical_flex_form(w: Word) -> CanonicalWord:
    """Signed three-block form, shape-normalized to one of the five types."""
    if not is_restricted(w):
        raise NotRestrictedForm("three-block rewriting needs a restricted word")
    m = word_length(w)
    if m < 3:
        raise WordTooShort("three-block form needs at least 3 letters")
    apps, core = _application_chain(w)
    state = _base_state(core)
    for side, letter in reversed(apps):
        state = _push(state, side, letter)
    state, shape = _normalize(state)
    sign, form, blocks = _flex_blocks(state, shape)
    partition = _flex_partition(shape, blocks)
    return CanonicalWord(
        variant="flex-three-block",
        sign=sign,
        shape=shape,
        form=form,
        blocks=blocks,
        partition=partition,
    )


# -- numeric verification ------------------------------------------------------


def verify_equivalence(algebra, gens, w: Word, cw: CanonicalWord) -> bool:
    """True when w and its signed canonical form differ by shorter words.

    Both words are evaluated on integer rows (``words.word_row``).  A word
    and its canonical form hold the same letters, so over Q their rows are
    their values times the same positive factor, and the signed difference
    of the rows lies in the span exactly when that of the values does.
    """
    lower_span = lin_span(algebra, gens, word_length(w) - 1)
    rows = [integer_row(g)[0] for g in gens]
    lhs = word_row(algebra, rows, w)
    rhs = word_row(algebra, rows, cw.tree())
    return lower_span.contains([x - cw.sign * y for x, y in zip(lhs, rhs)])
