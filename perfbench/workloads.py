"""Workloads of the alglen benchmark: fixed lists of CLI jobs and their answers.

A job is one ``alglen`` command line run in-process through
``alglen.io_cli.main([..., "--json"])``.  Each workload is a fixed list of
jobs (one *pass*); the benchmark repeats whole passes, so every pass of a
workload does the same work, whatever the seed.

The answer checks only read fields that the planned refactors keep:
``length`` of ``exact-length`` (not the witness or ``mode``), the
holds/fails boolean of each ``classify`` verdict (not its kind string), the
exit code and ``all_passed`` of ``bounds``, and for ``search`` the reported
bound, which is re-verified through the ``length`` command after timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CLASSES = (
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


class SourceMissing(RuntimeError):
    """The checkout holds no alglen sources to benchmark."""


def load_alglen():
    """Import ``alglen.io_cli`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "alglen" / "io_cli.py").is_file():
        raise SourceMissing(f"no alglen sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from alglen import io_cli

    if Path(io_cli.__file__).resolve().parent != (SRC / "alglen").resolve():
        raise SourceMissing(f"alglen imported from {io_cli.__file__}, not {SRC}")
    return io_cli


@dataclass(frozen=True)
class Job:
    """One CLI job: ``alglen <command> <file of example over field> <flags>``."""

    command: str
    example: str
    field: str
    flags: tuple = ()
    expect: object = None  # command-specific answer, see check()

    @property
    def label(self) -> str:
        return " ".join((self.command, self.example, self.field, *self.flags))

    @property
    def file_name(self) -> str:
        stem = f"{self.example}__{self.field}"
        return "".join(c if c.isalnum() or c in "-_." else "_" for c in stem) + ".alg"

    def argv(self, path: str, seed: int) -> list:
        return [self.command, path, *self.flags, "--seed", str(seed), "--json"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple
    # the workload's commands on the smallest algebra each accepts: measure
    # the fixed cost of an invocation, and warm up lazy imports in-process
    setup_jobs: tuple


def _holding(*names):
    unknown = set(names) - set(CLASSES)
    if unknown:
        raise ValueError(f"unknown classes {sorted(unknown)}")
    return frozenset(names)


ALL_CLASSES = _holding(*CLASSES)

# Exact lengths: each equals the paper's class-implied cap for dim - d0 = 5
# (ceil(log2 5) = 3 for the alternative tables, the flexible cap is also 3).
EXACT_GF = Workload(
    name="exact-gf",
    why="exact-length over GF(3) and GF(2): the only workload that runs "
        "subspace enumeration, the unity filter and the sweep kernel",
    jobs=(
        Job("exact-length", "aalt", "gf:3", expect=3),
        Job("exact-length", "aflex", "gf:3", expect=3),
        Job("exact-length", "hull:aalt", "gf:3", expect=3),
        Job("exact-length", "hull:aflex", "gf:3", expect=3),
        Job("exact-length", "aalt", "gf:2", expect=3),
        Job("exact-length", "hull:aflex", "gf:2", expect=3),
    ),
    setup_jobs=(
        Job("exact-length", "cd:0", "gf:3"),
        Job("exact-length", "cd:0", "gf:2"),
    ),
)

CLASSIFY_Q = Workload(
    name="classify-q",
    why="classify and bounds over Q: identities, Fraction arithmetic, "
        "multiply and tiny span membership tests; never enumerates or sweeps",
    jobs=(
        # associative, hence alternative; the matrix-unit triple breaks
        # descending flexibility
        Job("classify", "matrix:3", "rational",
            expect=_holding("flexible", "alternative", "left_sliding",
                            "right_sliding", "mixing")),
        # octonions: alternative, and every class the paper derives from it
        Job("classify", "cd:3:-1,-1,-1", "rational", expect=ALL_CLASSES),
        # spin factor: a Jordan algebra, flexible but not alternative
        Job("classify", "spin:3", "rational", expect=ALL_CLASSES - {"alternative"}),
        Job("classify", "aflex", "rational",
            expect=_holding("flexible", "left_sliding", "mixing",
                            "descendingly_flexible", "sufficient_condition_flex")),
        Job("classify", "aalt", "rational",
            expect=_holding("left_sliding", "mixing", "descendingly_alternative",
                            "sufficient_condition_alt")),
        Job("bounds", "aflex", "rational", ("--set", "1,2")),
        Job("bounds", "aalt", "rational", ("--set", "1,2")),
    ),
    setup_jobs=(
        Job("classify", "cd:0", "rational"),
        Job("bounds", "cd:1:-1", "rational", ("--set", "1,2")),
    ),
)

# search expects found/not found; a found bound is re-verified after timing.
# Two octonions generate an associative subalgebra of dimension <= 4
# (Artin's theorem), so no 2-element set generates cd:3.
SEARCH_LADDER = Workload(
    name="search-ladder",
    why="search with 2-element sets on dense 16-dim vectors over Q and "
        "GF(3): few long general-mode ladders ended by the closure check",
    jobs=(
        Job("search", "cd:4:-1,-1,-1,-1", "rational",
            ("--set-size", "2", "--samples", "4"), expect=True),
        Job("search", "cd:4:-1,-1,-1,-1", "gf:3", ("--set-size", "2"), expect=True),
        Job("search", "matrix:3", "rational", ("--set-size", "2"), expect=True),
        Job("search", "cd:3:-1,-1,-1", "rational", ("--set-size", "2"), expect=False),
    ),
    setup_jobs=(
        Job("search", "cd:0", "rational", ("--set-size", "2", "--samples", "4")),
        Job("search", "cd:0", "gf:3", ("--set-size", "2")),
    ),
)

WORKLOADS = {w.name: w for w in (EXACT_GF, CLASSIFY_Q, SEARCH_LADDER)}


def write_algebras(io_cli, jobs, directory: Path) -> dict:
    """Generate each job's algebra file with ``alglen gen``; {file name: path}."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for job in jobs:
        path = directory / job.file_name
        if job.file_name not in paths:
            rc = io_cli.main(["gen", job.example, "--field", job.field, "-o", str(path)])
            if rc != 0:
                raise RuntimeError(f"alglen gen {job.example} --field {job.field} exited {rc}")
            paths[job.file_name] = str(path)
    return paths


# -- answer checks -----------------------------------------------------------


def check(job: Job, rc, stdout: str, verify_witness):
    """None when the job's answer is right, else a one-line reason.

    A ``search`` that found a set hands its bound and witness to
    ``verify_witness(bound, witness)``, which gives the reason or None.
    """
    if rc != 0:
        return f"exit code {rc}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    if job.command == "exact-length":
        if out.get("length") != job.expect:
            return f"length {out.get('length')} != {job.expect}"
    elif job.command == "classify":
        verdicts = out.get("classification", {}).get("verdicts", {})
        missing = [name for name in CLASSES if name not in verdicts]
        if missing:
            return f"no verdict for {missing}"
        holding = {name for name in CLASSES
                   if verdicts[name]["kind"].startswith("holds")}
        if holding != job.expect:
            return (f"holds {sorted(holding)}, expected {sorted(job.expect)}")
    elif job.command == "bounds":
        if out.get("audit", {}).get("all_passed") is not True:
            return "bounds audit did not pass"
    elif job.command == "search":
        if out.get("found") is not job.expect:
            return f"found {out.get('found')}, expected {job.expect}"
        if job.expect:
            return verify_witness(out["length_lower_bound"], out["witness"])
    return None


def parse_element(text: str, labels: list) -> list:
    """Coordinates of an element printed by ``Algebra.format_element``."""
    coords = ["0"] * len(labels)
    if text == "0":
        return coords
    for term in text.replace(" - ", " + -").split(" + "):
        coef, star, label = term.rpartition("*")
        if not star:
            coef, label = ("-1", term[1:]) if term.startswith("-") else ("1", term)
        coords[labels.index(label)] = coef
    return coords


def file_labels(path: str) -> list:
    """Basis labels declared in an algebra file (default ``b1..bn``)."""
    dim, labels = None, None
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            parts = raw.split("#", 1)[0].split()
            if parts[:1] == ["dim"]:
                dim = int(parts[1])
            elif parts[:1] == ["labels"]:
                labels = parts[1:]
    return labels or [f"b{i}" for i in range(1, dim + 1)]


def verify_search(io_cli, path: str, bound: int, witness: list, set_file: Path):
    """None when ``length --set-file <witness>`` gives l(S) = bound and S generates."""
    labels = file_labels(path)
    set_file.write_text("".join(" ".join(parse_element(e, labels)) + "\n"
                                for e in witness), encoding="utf-8")
    rc, stdout = run_quiet(io_cli, ["length", path, "--set-file", str(set_file), "--json"])
    if rc != 0:
        return f"length re-check exited {rc}"
    out = json.loads(stdout)
    if out.get("length_of_set") != bound or out.get("generating") is not True:
        return (f"witness re-check gives l(S) = {out.get('length_of_set')}, "
                f"generating {out.get('generating')}; search reported {bound}")
    return None


def run_quiet(io_cli, argv):
    """Run one CLI call in-process with its stdout captured; (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = io_cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
    return rc, buf.getvalue()
