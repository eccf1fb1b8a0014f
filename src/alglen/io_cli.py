"""Algebra file format and the command-line interface.

The file grammar is line oriented with ``#`` comments:

    field rational | field gf <p>
    dim <n>
    unital <i> | unital none | unital vec <s1> ... <sn>
    labels <l1> ... <ln>            (optional)
    mul <i> <j> <k> <scalar>        (b_i * b_j gains <scalar> * b_k)

Omitted products are zero; duplicate (i, j, k) lines and repeated labels
are errors; the declared unity is verified against every basis vector.
``unital vec`` covers algebras whose identity is not a basis vector
(matrix algebras).

Each command imports its engine (``identities``, ``bounds``, ``canonical``,
``examples``) when it runs, so a fresh process loads only the engine its
command runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import islice

from .algebra import DEFAULT_SAMPLES, Algebra, make_algebra
from .errors import AlgLenError, ParseError
from .field import Field, PrimeField, Rationals
from .spans import (DEFAULT_SUBSPACE_BUDGET, diff_sequence, exact_algebra_length, find_unity,
                    lin_span)
from .words import enumerate_restricted, evaluate, format_word, parse_word, word_length


# -- algebra file format -------------------------------------------------------


def parse_algebra(text: str) -> Algebra:
    field: Field | None = None
    dim = None
    unity_decl = None  # ("none",) | ("index", i) | ("vec", [scalars])
    labels = None
    first = {}  # the line of each field, dim, unital and labels directive
    muls = {}
    mul_lines = {}

    def scalar(text, lineno):
        try:
            return field.parse(text)
        except AlgLenError as exc:
            raise ParseError(str(exc), lineno) from None

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head in ("field", "dim", "unital", "labels"):
            if head in first:
                raise ParseError(f"duplicate {head} directive", lineno)
            first[head] = lineno
        if head == "field":
            if parts[1:] == ["rational"]:
                field = Rationals()
            elif len(parts) == 3 and parts[1] == "gf":
                try:
                    p = int(parts[2])
                except ValueError:
                    raise ParseError(f"bad modulus {parts[2]!r}", lineno) from None
                try:
                    field = PrimeField(p)
                except ParseError as exc:
                    raise ParseError(str(exc), lineno) from None
            else:
                raise ParseError(f"bad field directive {line!r}", lineno)
        elif head == "dim":
            if len(parts) != 2 or not parts[1].isdecimal() or int(parts[1]) < 1:
                raise ParseError(f"bad dim directive {line!r}", lineno)
            dim = int(parts[1])
        elif head == "unital":
            if parts[1:] == ["none"]:
                unity_decl = ("none",)
            elif len(parts) == 2 and parts[1].isdecimal():
                unity_decl = ("index", int(parts[1]))
            elif len(parts) >= 3 and parts[1] == "vec":
                unity_decl = ("vec", parts[2:])
            else:
                raise ParseError(f"bad unital directive {line!r}", lineno)
        elif head == "labels":
            labels = parts[1:]
            seen = set()
            for label in labels:
                if label in seen:
                    raise ParseError(f"duplicate label {label!r}", lineno)
                seen.add(label)
        elif head == "mul":
            if field is None or dim is None:
                raise ParseError("mul before field/dim", lineno)
            if len(parts) != 5:
                raise ParseError(f"mul needs i j k scalar: {line!r}", lineno)
            try:
                i, j, k = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"bad indices in {line!r}", lineno) from None
            if not all(1 <= t <= dim for t in (i, j, k)):
                raise ParseError(f"index out of range in {line!r}", lineno)
            if (i, j, k) in mul_lines:
                raise ParseError(
                    f"duplicate product entry ({i},{j},{k}); first at line {mul_lines[(i, j, k)]}",
                    lineno)
            mul_lines[(i, j, k)] = lineno
            muls.setdefault((i, j), []).append((k, scalar(parts[4], lineno)))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)

    for head in ("field", "dim", "unital"):
        if head not in first:
            raise ParseError(f"missing {head} directive")

    unity = None
    if unity_decl[0] == "index":
        i = unity_decl[1]
        if not 1 <= i <= dim:
            raise ParseError(f"unity index {i} out of range", first["unital"])
        unity = tuple(field.one() if t == i - 1 else field.zero() for t in range(dim))
    elif unity_decl[0] == "vec":
        coords = unity_decl[1]
        if len(coords) != dim:
            raise ParseError("unity vector has wrong length", first["unital"])
        unity = tuple(scalar(c, first["unital"]) for c in coords)

    if labels is not None and len(labels) != dim:
        raise ParseError("labels list has wrong length", first["labels"])

    algebra = make_algebra(field, dim, muls, unity=unity, labels=labels)
    ok, bad = algebra.verify_unity()
    if not ok:
        raise ParseError(
            f"declared unity fails on basis vector {bad}", first["unital"])
    return algebra


def print_algebra(algebra: Algebra) -> str:
    f = algebra.field
    lines = []
    if isinstance(f, PrimeField):
        lines.append(f"field gf {f.p}")
    else:
        lines.append("field rational")
    lines.append(f"dim {algebra.dim}")
    if algebra.unity is None:
        lines.append("unital none")
    else:
        # the unity is b_i when its only coordinate other than zero is a one at i
        z, one = f.zero(), f.one()
        nonzero = [i for i, c in enumerate(algebra.unity) if c != z]
        if len(nonzero) == 1 and algebra.unity[nonzero[0]] == one:
            lines.append(f"unital {nonzero[0] + 1}")
        else:
            lines.append("unital vec " + " ".join(f.format(c) for c in algebra.unity))
    if algebra.labels is not None:
        lines.append("labels " + " ".join(algebra.labels))
    triples = []
    for (i, j), terms in algebra.sc.items():
        for k, c in terms:
            triples.append((i, j, k, c))
    for i, j, k, c in sorted(triples, key=lambda t: t[:3]):
        lines.append(f"mul {i} {j} {k} {f.format(c)}")
    return "\n".join(lines) + "\n"


def _read(path: str, what: str) -> str:
    """The text of a file; one that is not UTF-8 raises ParseError naming the file and line."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        line = exc.object[:exc.start].count(b"\n") + 1
        raise ParseError(f"{what} {path!r} is not UTF-8 text", line) from None


# -- generator sets --------------------------------------------------------------


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what} {text!r}") from None


def resolve_set(algebra: Algebra, set_spec: str | None, set_file: str | None) -> tuple:
    """The generator set of ``--set`` or ``--set-file`` as a tuple of elements.

    A bad line of a set file raises ParseError naming the file and the line.
    """
    if set_file is not None:
        elements = []
        for lineno, raw in enumerate(_read(set_file, "set file").split("\n"), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                coords = [algebra.field.parse(tok) for tok in line.split()]
                elements.append(algebra.element(coords))
            except AlgLenError as exc:
                raise ParseError(f"{exc} in set file {set_file!r}", lineno) from None
        if not elements:
            raise ParseError(f"set file {set_file!r} names no element")
        gens = tuple(elements)
    elif set_spec is None or set_spec == "basis":
        gens = tuple(algebra.basis_element(i) for i in range(1, algebra.dim + 1))
    else:
        indices = [_parse_int(tok, "basis index") for tok in set_spec.split(",")
                   if tok.strip()]
        if not indices:
            raise ParseError(f"set spec {set_spec!r} names no basis index")
        gens = tuple(algebra.basis_element(i) for i in indices)
    if len(set(gens)) < len(gens):
        sys.stderr.write("warning: generator set contains duplicate elements\n")
    return gens


# -- example generation -----------------------------------------------------------


def _resolve_field(spec: str) -> Field:
    if spec == "rational":
        return Rationals()
    if spec.startswith("gf:"):
        return PrimeField(_parse_int(spec.split(":", 1)[1], "modulus"))
    raise ParseError(f"bad field spec {spec!r}; use rational or gf:<p>")


def build_example(name: str, field_spec: str | None = None) -> Algebra:
    """Construct a named example; parametrized names use name:<param> syntax.

    Without a field spec, ``z2n:<n>`` is built over GF(2), the only field
    it is defined over, and every other example over the rationals.
    """
    from .examples import (make_a_alt, make_a_flex, make_cayley_dickson, make_chain3,
                           make_group_algebra_z2n, make_matrix_algebra, make_nilpotent3,
                           make_nonmixing7, make_spin_factor, make_unital_hull)

    base, _, param = name.partition(":")
    if base == "z2n":
        if field_spec is not None and _resolve_field(field_spec) != PrimeField(2):
            raise ParseError(f"{name} is defined over gf:2 only, not {field_spec}")
        return make_group_algebra_z2n(_parse_int(param or "2", f"{base} size"))
    field = _resolve_field(field_spec or "rational")
    if base == "aflex":
        return make_a_flex(field)
    if base == "aalt":
        return make_a_alt(field)
    if base == "spin":
        return make_spin_factor(_parse_int(param or "2", f"{base} size"), field)
    if base == "matrix":
        return make_matrix_algebra(_parse_int(param or "2", f"{base} size"), field)
    if base == "chain3":
        return make_chain3(field)
    if base == "nilpotent3":
        return make_nilpotent3(field)
    if base == "nonmix7":
        return make_nonmixing7(field)
    if base == "hull":
        return make_unital_hull(build_example(param, field_spec))
    if base == "cd":
        level_s, _, gamma_s = param.partition(":")
        gammas = [field.parse(tok) for tok in gamma_s.split(",")] if gamma_s else []
        return make_cayley_dickson(_parse_int(level_s, "Cayley-Dickson level"), gammas, field)
    raise ParseError(f"unknown example {name!r}")


# -- CLI ---------------------------------------------------------------------------


def _load(path: str) -> Algebra:
    return parse_algebra(_read(path, "algebra file"))


def _emit(payload: dict, as_json: bool, text_lines) -> None:
    if as_json:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _cmd_classify(args) -> int:
    from . import identities

    algebra = _load(args.algebra)
    report = identities.classify(algebra, seed=args.seed, samples=args.samples)
    lines = [f"classification of {args.algebra} (seed {args.seed})"]
    for name in identities.CLASS_NAMES:
        v = report.verdict(name)
        extra = ""
        if v.witness is not None:
            extra = f"  [{v.witness.equation} at {v.witness.as_dict(algebra)['elements']}]"
        lines.append(f"  {name}: {v.kind}{extra}")
    for w in report.warnings:
        lines.append(f"  WARNING: {w}")
    _emit({"algebra": args.algebra, "classification": report.as_dict(algebra)},
          args.json, lines)
    return 1 if report.warnings else 0


def _cmd_diffseq(args) -> int:
    algebra = _load(args.algebra)
    gens = resolve_set(algebra, args.set, args.set_file)
    seq = diff_sequence(algebra, gens, max_level=args.max_level)
    payload = {"algebra": args.algebra, "set_size": len(gens),
               "sequence": seq.as_dict()}
    _emit(payload, args.json, [
        f"d = {list(seq.d)}",
        f"l(S) = {seq.length_of_set}",
        f"stabilized by {seq.stabilized_by}",
        f"generating: {seq.generating}",
    ])
    return 0


def _cmd_length(args) -> int:
    algebra = _load(args.algebra)
    gens = resolve_set(algebra, args.set, args.set_file)
    seq = diff_sequence(algebra, gens, max_level=args.max_level)
    _emit({"algebra": args.algebra,
           "length_of_set": seq.length_of_set, "generating": seq.generating},
          args.json, [f"l(S) = {seq.length_of_set}"])
    return 0


def _cmd_exact_length(args) -> int:
    algebra = _load(args.algebra)
    length, witness = exact_algebra_length(algebra, budget=args.budget,
                                           max_level=args.max_level)
    shown = [algebra.format_element(e) for e in witness]
    _emit({"algebra": args.algebra, "length": length, "witness": shown},
          args.json, [f"l(A) = {length}", f"witness basis: {shown}"])
    return 0


def _find_surviving_word(algebra, gens, seq):
    """Among the first 4096 restricted words of top length, one outside the lower span."""
    m = seq.length_of_set
    if m < 3:
        return None
    lower = lin_span(algebra, gens, m - 1)
    for w in islice(enumerate_restricted(len(gens), m, cap=None), 4096):
        if not lower.contains(evaluate(algebra, gens, w)):
            return w
    return None


def _cmd_bounds(args) -> int:
    from . import identities
    from .bounds import audit

    algebra = _load(args.algebra)
    # the set and the field are checked first, so that bad input is refused before any work
    gens = resolve_set(algebra, args.set, args.set_file)
    exact = None
    if args.exact:
        exact, _ = exact_algebra_length(algebra, budget=args.budget,
                                        max_level=args.max_level)
    report = identities.classify(algebra, seed=args.seed, samples=args.samples)
    seq = diff_sequence(algebra, gens, max_level=args.max_level)
    surviving = None
    if report.verdict("descendingly_flexible").holds:
        w = _find_surviving_word(algebra, gens, seq)
        if w is not None:
            from .canonical import canonical_flex_form

            surviving = (word_length(w), canonical_flex_form(w))
    audit_report = audit(algebra, report, seq, algebra_length=exact, surviving=surviving)
    lines = [f"bounds audit of {args.algebra}"]
    for e in audit_report.entries:
        status = "pass" if e.passed else "FAIL"
        lines.append(f"  [{status}] {e.name}: {e.requirement} with {e.observed}")
    if exact is not None:
        lines.append(f"  exact length l(A) = {exact}")
    payload = {"algebra": args.algebra, "audit": audit_report.as_dict(),
               "exact_length": exact,
               "classification": report.as_dict(algebra)}
    _emit(payload, args.json, lines)
    return 0 if audit_report.all_passed else 1


def _cmd_canonical(args) -> int:
    from .canonical import canonical_alt_form, canonical_flex_form, verify_equivalence

    w = parse_word(args.word)
    cw = canonical_alt_form(w) if args.variant == "alt" else canonical_flex_form(w)
    payload = {"word": args.word, "variant": args.variant,
               "canonical": cw.as_dict(),
               "canonical_word": format_word(cw.tree())}
    lines = [
        f"canonical form: {'-' if cw.sign < 0 else '+'}{format_word(cw.tree())}",
        f"shape: {cw.shape}   arrangement: {cw.form}",
        f"blocks: {cw.as_dict()['blocks']}",
        f"letter classes: {[list(c) for c in cw.partition]}",
    ]
    code = 0
    if args.algebra is not None:
        algebra = _load(args.algebra)
        gens = resolve_set(algebra, args.set, args.set_file)
        ok = verify_equivalence(algebra, gens, w, cw)
        payload["verified"] = ok
        lines.append(f"numeric equivalence in {args.algebra}: {ok}")
        if not ok:
            code = 1
    _emit(payload, args.json, lines)
    return code


def _cmd_infer_unity(args) -> int:
    algebra = _load(args.algebra)
    candidate = find_unity(algebra)
    declared = algebra.unity
    payload = {
        "algebra": args.algebra,
        "declared": None if declared is None else algebra.format_element(declared),
        "identity_element": None if candidate is None
        else algebra.format_element(candidate),
    }
    lines = []
    if declared is not None:
        lines.append(f"declared unity: {algebra.format_element(declared)}")
    else:
        lines.append("no unity declared")
    if candidate is None:
        lines.append("no identity element exists")
    else:
        lines.append(f"identity element exists: {algebra.format_element(candidate)}")
        if declared is None:
            lines.append("note: diagnostics only; declare it in the file to use it")
    matches = declared is None or candidate == declared
    if not matches:
        lines.append("MISMATCH between declared unity and solved identity")
    payload["matches_declaration"] = matches
    _emit(payload, args.json, lines)
    return 0 if matches else 1


def _cmd_gen(args) -> int:
    algebra = build_example(args.name, args.field)
    text = print_algebra(algebra)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_search(args) -> int:
    from . import identities

    algebra = _load(args.algebra)
    size = args.set_size or algebra.dim
    best = None
    for t in range(args.samples):
        gens = tuple(identities.random_element(algebra, args.seed, 100_000 + t * size + i)
                     for i in range(size))
        seq = diff_sequence(algebra, gens, max_level=args.max_level)
        if not seq.generating:
            continue
        if best is None or seq.length_of_set > best[0]:
            best = (seq.length_of_set, t, [algebra.format_element(e) for e in gens])
    if best is None:
        _emit({"algebra": args.algebra, "found": False}, args.json,
              ["no generating set found; raise --samples or --set-size"])
        return 0
    length, index, shown = best
    _emit({"algebra": args.algebra, "found": True, "length_lower_bound": length,
           "sample_index": index, "witness": shown},
          args.json,
          [f"l(A) >= {length} (sample {index})", f"witness: {shown}"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alglen",
        description="Exact length functions and identity classes of "
                    "structure-constant algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_set=False, with_budget=False, with_samples=False, with_seed=False,
               with_level=False):
        if with_seed:
            p.add_argument("--seed", type=int, default=0)
        if with_samples:
            p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
        p.add_argument("--json", action="store_true")
        if with_level:
            p.add_argument("--max-level", type=int, default=None, dest="max_level")
        if with_set:
            p.add_argument("--set", default=None,
                           help="'basis', or comma-separated 1-based basis indices")
            p.add_argument("--set-file", default=None, dest="set_file",
                           help="file with one coordinate vector per line")
        if with_budget:
            p.add_argument("--budget", type=int, default=DEFAULT_SUBSPACE_BUDGET)

    p = sub.add_parser("classify", help="run every identity-class check")
    p.add_argument("algebra")
    common(p, with_seed=True, with_samples=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("diffseq", help="difference sequence of a generator set")
    p.add_argument("algebra")
    common(p, with_set=True, with_level=True)
    p.set_defaults(func=_cmd_diffseq)

    p = sub.add_parser("length", help="length of a generator set")
    p.add_argument("algebra")
    common(p, with_set=True, with_level=True)
    p.set_defaults(func=_cmd_length)

    p = sub.add_parser("exact-length", help="exact algebra length over a prime field")
    p.add_argument("algebra")
    # nothing reads --seed here; it stays while perfbench/workloads.py passes it to every job
    common(p, with_budget=True, with_seed=True, with_level=True)
    p.set_defaults(func=_cmd_exact_length)

    p = sub.add_parser("bounds", help="audit computed lengths against the bound formulas")
    p.add_argument("algebra")
    p.add_argument("--exact", action="store_true",
                   help="include the exact algebra length (prime fields)")
    common(p, with_set=True, with_budget=True, with_samples=True, with_seed=True,
           with_level=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("canonical", help="canonical two- or three-block form of a word")
    p.add_argument("--class", dest="variant", choices=("alt", "flex"), required=True)
    p.add_argument("--word", required=True, help="e.g. '((1 2) 3)'")
    p.add_argument("algebra", nargs="?", default=None,
                   help="optional algebra file for numeric verification")
    common(p, with_set=True)
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("infer-unity",
                       help="diagnose whether an identity element exists "
                            "(never auto-applied)")
    p.add_argument("algebra")
    common(p)
    p.set_defaults(func=_cmd_infer_unity)

    p = sub.add_parser("gen", help="emit a named example algebra file")
    p.add_argument("name",
                   help="z2n:<n>, aflex, aalt, spin:<n>, matrix:<n>, chain3, "
                        "nilpotent3, nonmix7, hull:<name>, cd:<level>:<g1,g2,..>")
    p.add_argument("--field", default=None,
                   help="rational or gf:<p>; default gf:2 for z2n:<n>, else rational")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("search", help="randomized lower-bound search for l(A)")
    p.add_argument("algebra")
    p.add_argument("--set-size", type=int, default=None, dest="set_size")
    common(p, with_samples=True, with_seed=True, with_level=True)
    p.set_defaults(func=_cmd_search)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: building it costs more than a small job."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # caps and counts are checked before any work; 0 is a valid cap
        for flag, dest, least in (("--max-level", "max_level", 0), ("--budget", "budget", 0),
                                  ("--samples", "samples", 1), ("--set-size", "set_size", 1)):
            value = getattr(args, dest, None)
            if value is not None and value < least:
                raise ParseError(f"{flag} must be at least {least}, got {value}")
        return args.func(args)
    except (AlgLenError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
