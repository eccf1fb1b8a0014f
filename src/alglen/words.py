"""Bracketed words over a generator list.

A word is either a 1-based letter index (a leaf) or a pair
``(left, right)`` of words; distinct bracketings are distinct words.
Words are enumerated in one regime, the restricted one: words grown one
left- or right-multiplication by a single letter at a time.  The full
regime (every bracket shape times every letter assignment) serves only
as a test oracle and lives with the tests.

A word is evaluated on integer rows (``word_row``), through the algebra's
product kernel, as the span ladder multiplies; the evaluation on exact
scalars is the tests' reference (``tests/oracles.py``).
"""

from __future__ import annotations

from itertools import product

from .errors import IndexOutOfRange, ParseError

Word = object  # int leaf or (Word, Word) pair

# parse_word refuses deeper brackets, well inside Python's recursion limit
MAX_WORD_DEPTH = 256


def word_length(w: Word) -> int:
    if isinstance(w, int):
        return 1
    return word_length(w[0]) + word_length(w[1])


def word_row(algebra, rows, w: Word):
    """The integer row of the word w, its letters' integer rows multiplied by its bracketing.

    Letter i names ``rows[i - 1]``, an integer row (``field.integer_row``).
    Each product is made by the algebra's ``product_kernel`` and reduced
    mod p over GF(p).  Over Q the row is the word's exact value times
    D^(m-1), D the structure constants' common denominator and m the word's
    length, and times d_i for each occurrence of letter i, d_i the
    denominator its row dropped: a positive factor that two words holding
    the same letters share, so a span compares their rows as it would their
    values.  Module-level, not a closure: a self-recursive closure would
    make each call a reference cycle that keeps the algebra and the rows
    until gc runs.
    """
    if isinstance(w, int):
        if not 1 <= w <= len(rows):
            raise IndexOutOfRange(f"letter {w} with {len(rows)} generators")
        return rows[w - 1]
    row = algebra.product_kernel(word_row(algebra, rows, w[0]), word_row(algebra, rows, w[1]))
    p = algebra.field.characteristic
    return [x % p for x in row] if p else row


def enumerate_restricted(s_size: int, m: int):
    """Words built by one single-letter multiplication (left or right) per step.

    Every word is a chain X_1 ... X_{m-1} applied to an innermost letter,
    each X_i a left or right multiplication by one letter.  The raw chain
    count is 2^(m-1) * s_size^m; chains describing the same labelled tree
    are collapsed, and each distinct tree is yielded once in first-seen
    order (letters lexicographic, then L-before-R patterns).
    """
    if m < 1:
        raise ValueError("word length must be >= 1")
    seen = set()
    for letters in product(range(1, s_size + 1), repeat=m):
        for pattern in product("LR", repeat=m - 1):
            w = letters[-1]
            for i in range(m - 2, -1, -1):
                w = (letters[i], w) if pattern[i] == "L" else (w, letters[i])
            if w not in seen:
                seen.add(w)
                yield w


def is_restricted(w: Word) -> bool:
    """True when some factor is a single letter at every level."""
    if isinstance(w, int):
        return True
    left, right = w
    if isinstance(left, int) and isinstance(right, int):
        return True
    if isinstance(left, int):
        return is_restricted(right)
    if isinstance(right, int):
        return is_restricted(left)
    return False


def format_word(w: Word) -> str:
    if isinstance(w, int):
        return str(w)
    return f"({format_word(w[0])} {format_word(w[1])})"


def parse_word(text: str) -> Word:
    """Parse parenthesized 1-based letter indices, e.g. ``((1 2) 3)``."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    depth = 0
    for tok in tokens:
        depth += (tok == "(") - (tok == ")")
        if depth > MAX_WORD_DEPTH:
            raise ParseError(f"word nested deeper than {MAX_WORD_DEPTH} brackets")
    w, pos = _parse_at(tokens, 0, text)
    if pos != len(tokens):
        raise ParseError(f"trailing tokens in word {text!r}")
    return w


def _parse_at(tokens, pos: int, text: str):
    """The word that starts at ``tokens[pos]`` and the position after it.

    Module-level, not a closure, for the reason given at ``word_row``.
    """
    if pos >= len(tokens):
        raise ParseError(f"unexpected end of word {text!r}")
    tok = tokens[pos]
    if tok == "(":
        left, pos = _parse_at(tokens, pos + 1, text)
        right, pos = _parse_at(tokens, pos, text)
        if pos >= len(tokens) or tokens[pos] != ")":
            raise ParseError(f"expected ')' in word {text!r}")
        return (left, right), pos + 1
    if tok.isdecimal() and int(tok) >= 1:
        return int(tok), pos + 1
    raise ParseError(f"bad token {tok!r} in word {text!r}")
