"""Algebra file format and the command-line interface.

The file grammar is line oriented with ``#`` comments:

    field rational | field gf <p>
    dim <n>
    unital <i> | unital none | unital vec <s1> ... <sn>
    labels <l1> ... <ln>            (optional)
    mul <i> <j> <k> <scalar>        (b_i * b_j gains <scalar> * b_k)

Omitted products are zero; duplicate (i, j, k) lines are an error; the
declared unity is verified against every basis vector.  ``unital vec``
covers algebras whose identity is not a basis vector (matrix algebras).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds as bounds_mod
from . import identities
from .algebra import Algebra, make_algebra
from .canonical import canonical_alt_form, canonical_flex_form, verify_equivalence
from .errors import AlgLenError, ParseError
from .examples import (make_a_alt, make_a_flex, make_cayley_dickson, make_chain3,
                       make_group_algebra_z2n, make_matrix_algebra, make_nilpotent3,
                       make_nonmixing7, make_spin_factor, make_unital_hull)
from .field import Field, PrimeField, Rationals
from .spans import diff_sequence, exact_algebra_length, span_ladder_up_to
from .words import (enumerate_restricted, evaluate, format_word, generator_set,
                    parse_word, word_length)


# -- algebra file format -------------------------------------------------------


def parse_algebra(text: str) -> Algebra:
    field: Field | None = None
    dim = None
    unity_decl = None  # ("none",) | ("index", i) | ("vec", [scalars])
    labels = None
    muls = {}
    mul_lines = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head == "field":
            if field is not None:
                raise ParseError("duplicate field directive", lineno)
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
            if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) < 1:
                raise ParseError(f"bad dim directive {line!r}", lineno)
            dim = int(parts[1])
        elif head == "unital":
            if parts[1:] == ["none"]:
                unity_decl = ("none", lineno)
            elif len(parts) == 2 and parts[1].isdigit():
                unity_decl = ("index", int(parts[1]), lineno)
            elif len(parts) >= 3 and parts[1] == "vec":
                unity_decl = ("vec", parts[2:], lineno)
            else:
                raise ParseError(f"bad unital directive {line!r}", lineno)
        elif head == "labels":
            labels = parts[1:]
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
            try:
                c = field.parse(parts[4])
            except AlgLenError as exc:
                raise ParseError(str(exc), lineno) from None
            muls.setdefault((i, j), []).append((k, c))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)

    if field is None:
        raise ParseError("missing field directive")
    if dim is None:
        raise ParseError("missing dim directive")
    if unity_decl is None:
        raise ParseError("missing unital directive")

    unity = None
    if unity_decl[0] == "index":
        i = unity_decl[1]
        if not 1 <= i <= dim:
            raise ParseError(f"unity index {i} out of range", unity_decl[2])
        unity = tuple(field.one() if t == i - 1 else field.zero() for t in range(dim))
    elif unity_decl[0] == "vec":
        coords = unity_decl[1]
        if len(coords) != dim:
            raise ParseError("unity vector has wrong length", unity_decl[2])
        unity = tuple(field.parse(c) for c in coords)

    if labels is not None and len(labels) != dim:
        raise ParseError("labels list has wrong length")

    algebra = make_algebra(field, dim, muls, unity=unity, labels=labels)
    ok, bad = algebra.verify_unity()
    if not ok:
        raise ParseError(
            f"declared unity fails on basis vector {bad}", unity_decl[-1])
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
        ones = [i for i in range(algebra.dim)
                if algebra.unity == algebra.basis_element(i + 1)]
        if ones:
            lines.append(f"unital {ones[0] + 1}")
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


# -- generator sets --------------------------------------------------------------


def resolve_set(algebra: Algebra, set_spec: str | None, set_file: str | None):
    if set_file is not None:
        elements = []
        with open(set_file, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                coords = [algebra.field.parse(tok) for tok in line.split()]
                elements.append(algebra.element(coords))
        gens = generator_set(elements)
    elif set_spec is None or set_spec == "basis":
        gens = generator_set([algebra.basis_element(i)
                              for i in range(1, algebra.dim + 1)])
    else:
        indices = [int(tok) for tok in set_spec.split(",") if tok.strip()]
        gens = generator_set([algebra.basis_element(i) for i in indices],
                             labels=[algebra.label(i) for i in indices])
    if gens.has_duplicates:
        sys.stderr.write("warning: generator set contains duplicate elements\n")
    return gens


# -- example generation -----------------------------------------------------------


def _resolve_field(spec: str) -> Field:
    if spec == "rational":
        return Rationals()
    if spec.startswith("gf:"):
        return PrimeField(int(spec.split(":", 1)[1]))
    raise ParseError(f"bad field spec {spec!r}; use rational or gf:<p>")


def build_example(name: str, field_spec: str = "rational") -> Algebra:
    """Construct a named example; parametrized names use name:<param> syntax."""
    field = _resolve_field(field_spec)
    base, _, param = name.partition(":")
    if base == "z2n":
        return make_group_algebra_z2n(int(param or 2))
    if base == "aflex":
        return make_a_flex(field)
    if base == "aalt":
        return make_a_alt(field)
    if base == "spin":
        return make_spin_factor(int(param or 2), field)
    if base == "matrix":
        return make_matrix_algebra(int(param or 2), field)
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
        return make_cayley_dickson(int(level_s), gammas, field)
    raise ParseError(f"unknown example {name!r}")


# -- CLI ---------------------------------------------------------------------------


def _load(path: str) -> Algebra:
    with open(path, encoding="utf-8") as fh:
        return parse_algebra(fh.read())


def _emit(payload: dict, as_json: bool, text_lines) -> None:
    if as_json:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _verified_fast_mode(algebra: Algebra, seed: int, samples: int) -> bool:
    """Mixing or sliding verified (at the stated assurance) for this algebra."""
    for check in (identities.check_mixing, identities.check_left_sliding,
                  identities.check_right_sliding):
        if check(algebra, seed, samples).holds:
            return True
    return False


def _pick_mode(algebra, args):
    if args.mode == "general":
        return "general"
    verified = _verified_fast_mode(algebra, args.seed, args.samples)
    if args.mode == "mixing" and not verified:
        raise ParseError("mixing mode requested but no mixing/sliding identity verified")
    return "mixing" if verified else "general"


def _cmd_classify(args) -> int:
    algebra = _load(args.algebra)
    report = identities.classify(algebra, seed=args.seed, samples=args.samples)
    lines = [f"classification of {args.algebra} (seed {args.seed})"]
    for name in identities.CLASS_NAMES:
        v = report.verdict(name)
        extra = ""
        if v.witness is not None:
            shown = {k: algebra.format_element(c) for k, c in v.witness.elements}
            extra = f"  [{v.witness.equation} at {shown}]"
        lines.append(f"  {name}: {v.kind}{extra}")
    for w in report.warnings:
        lines.append(f"  WARNING: {w}")
    _emit({"algebra": args.algebra, "classification": report.as_dict(algebra)},
          args.json, lines)
    return 1 if report.warnings else 0


def _cmd_diffseq(args) -> int:
    algebra = _load(args.algebra)
    gens = resolve_set(algebra, args.set, args.set_file)
    mode = _pick_mode(algebra, args)
    seq = diff_sequence(algebra, gens, mode=mode, max_level=args.max_level)
    payload = {"algebra": args.algebra, "mode": mode, "set_size": len(gens),
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
    mode = _pick_mode(algebra, args)
    seq = diff_sequence(algebra, gens, mode=mode, max_level=args.max_level)
    _emit({"algebra": args.algebra, "mode": mode,
           "length_of_set": seq.length_of_set, "generating": seq.generating},
          args.json, [f"l(S) = {seq.length_of_set}"])
    return 0


def _cmd_exact_length(args) -> int:
    algebra = _load(args.algebra)
    mode = _pick_mode(algebra, args)
    length, witness = exact_algebra_length(
        algebra, mode=mode, budget=args.budget, threads=args.threads,
        max_level=args.max_level)
    shown = [algebra.format_element(e) for e in witness.elements]
    _emit({"algebra": args.algebra, "mode": mode, "length": length,
           "witness": shown},
          args.json, [f"l(A) = {length}", f"witness basis: {shown}"])
    return 0


def _find_surviving_word(algebra, gens, seq, cap=4096):
    """A restricted word of top length evaluating outside the lower span."""
    m = seq.length_of_set
    if m < 3:
        return None
    lower = span_ladder_up_to(algebra, gens, m - 1).lin_basis()
    count = 0
    for w in enumerate_restricted(len(gens), m, cap=None):
        count += 1
        if count > cap:
            return None
        if not lower.contains(evaluate(algebra, gens, w)):
            return w
    return None


def _cmd_bounds(args) -> int:
    algebra = _load(args.algebra)
    report = identities.classify(algebra, seed=args.seed, samples=args.samples)
    gens = resolve_set(algebra, args.set, args.set_file)
    seq = diff_sequence(algebra, gens, max_level=args.max_level)
    set_results = [("S", seq)]
    shapes = []
    if report.verdict("descendingly_flexible").holds:
        w = _find_surviving_word(algebra, gens, seq)
        if w is not None:
            cw = canonical_flex_form(w)
            if cw.shape in ("EOO", "OEE", "O11"):
                sizes = tuple(len(cw.blocks[r]) for r in ("x", "y", "z"))
                shapes.append(("S", word_length(w), sizes))
    exact = None
    if args.exact and isinstance(algebra.field, PrimeField):
        # classify already ran the checks _verified_fast_mode would repeat,
        # with the same seed and samples
        fast = any(report.verdict(name).holds
                   for name in ("mixing", "left_sliding", "right_sliding"))
        exact, _ = exact_algebra_length(algebra, mode="mixing" if fast else "general",
                                        budget=args.budget, threads=args.threads,
                                        max_level=args.max_level)
    audit_report = bounds_mod.audit(algebra, report, set_results,
                                    algebra_length=exact, canonical_shapes=shapes)
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
    from .algebra import find_unity

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
    code = 0
    if declared is not None and candidate != tuple(declared):
        lines.append("MISMATCH between declared unity and solved identity")
        code = 1
    payload["matches_declaration"] = declared is None or candidate == tuple(declared)
    _emit(payload, args.json, lines)
    return code


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
    algebra = _load(args.algebra)
    size = args.set_size or algebra.dim
    best = None
    for t in range(args.samples):
        elements = [identities.random_element(algebra, args.seed, 100_000 + t * size + i)
                    for i in range(size)]
        gens = generator_set(elements)
        seq = diff_sequence(algebra, gens, max_level=args.max_level)
        if not seq.generating:
            continue
        if best is None or seq.length_of_set > best[0]:
            best = (seq.length_of_set, t, [algebra.format_element(e) for e in elements])
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

    def common(p, with_set=False, with_threads=False, with_budget=False):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=identities.DEFAULT_SAMPLES)
        p.add_argument("--json", action="store_true")
        p.add_argument("--max-level", type=int, default=None, dest="max_level")
        if with_set:
            p.add_argument("--set", default=None,
                           help="'basis', or comma-separated 1-based basis indices")
            p.add_argument("--set-file", default=None, dest="set_file",
                           help="file with one coordinate vector per line")
        if with_threads:
            p.add_argument("--threads", type=int, default=1)
        if with_budget:
            p.add_argument("--budget", type=int, default=2_000_000)

    p = sub.add_parser("classify", help="run every identity-class check")
    p.add_argument("algebra")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("diffseq", help="difference sequence of a generator set")
    p.add_argument("algebra")
    p.add_argument("--mode", choices=("general", "mixing", "auto"), default="general")
    common(p, with_set=True)
    p.set_defaults(func=_cmd_diffseq)

    p = sub.add_parser("length", help="length of a generator set")
    p.add_argument("algebra")
    p.add_argument("--mode", choices=("general", "mixing", "auto"), default="general")
    common(p, with_set=True)
    p.set_defaults(func=_cmd_length)

    p = sub.add_parser("exact-length", help="exact algebra length over a prime field")
    p.add_argument("algebra")
    p.add_argument("--mode", choices=("general", "mixing", "auto"), default="auto")
    common(p, with_threads=True, with_budget=True)
    p.set_defaults(func=_cmd_exact_length)

    p = sub.add_parser("bounds", help="audit computed lengths against the bound formulas")
    p.add_argument("algebra")
    p.add_argument("--exact", action="store_true",
                   help="include the exact algebra length (prime fields)")
    common(p, with_set=True, with_threads=True, with_budget=True)
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
    p.add_argument("--field", default="rational", help="rational or gf:<p>")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("search", help="randomized lower-bound search for l(A)")
    p.add_argument("algebra")
    p.add_argument("--set-size", type=int, default=None, dest="set_size")
    common(p)
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AlgLenError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
