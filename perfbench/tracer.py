"""Per-layer tracing of alglen from outside the package.

``installed`` wraps public functions and methods of alglen's modules for the
duration of a traced pass, and restores them afterwards.  Every wrapped call
is a span (name, start, end, parent).  Spans of phase-level functions are
kept whole, tagged with the job that caused them; the high-frequency calls
(``Algebra.multiply``, ``SpanBasis.*`` and the ladder) are aggregated as
count, inclusive time and self time per (name, parent).  Self time is a
span's duration minus the time its child spans cover.

Only attributes that exist are wrapped, so a layer that a refactor removes
reports 0.  A module-level function is replaced under every name an alglen
module binds it to (``io_cli`` imports ``diff_sequence`` and friends by
name at import time).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "alglen"
EXACT = "spans.exact_algebra_length"
MAIN = "io_cli.main"

CHECKERS = (
    "check_flexible",
    "check_alternative",
    "check_left_sliding",
    "check_right_sliding",
    "check_mixing",
    "check_descendingly_flexible",
    "check_descendingly_alternative",
    "check_sufficient_condition",
)


class Tracer:
    """Span stack with aggregation per (name, parent) and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # open frames: [name, start, child seconds, span index]
        self.calls = defaultdict(int)  # (name, parent name) -> calls
        self.total = defaultdict(float)  # (name, parent name) -> inclusive s
        self.own = defaultdict(float)  # (name, parent name) -> self s
        self.counts = defaultdict(int)  # counters fed by result hooks
        self.spans = []  # recorded spans, see enter()
        self.job = None  # id of the job now running, stamped on recorded spans

    def parent(self):
        return self.stack[-1][0] if self.stack else None

    def enter(self, name: str, record: bool = False) -> None:
        index = None
        if record:
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
            index = len(self.spans)
            self.spans.append({"name": name, "start": None, "end": None,
                               "parent": parent, "job": self.job})
        start = self.clock()
        if index is not None:
            self.spans[index]["start"] = start
        self.stack.append([name, start, 0.0, index])

    def exit(self) -> None:
        end = self.clock()
        name, start, child, index = self.stack.pop()
        duration = end - start
        parent = self.parent()
        key = (name, parent)
        self.calls[key] += 1
        self.total[key] += duration
        self.own[key] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if index is not None:
            self.spans[index]["end"] = end

    def sum(self, table, name, parent=...):
        """Sum a per-(name, parent) table over parents, or for one parent."""
        return sum(v for (n, p), v in table.items()
                   if n == name and (parent is ... or p == parent))

    def aggregate(self) -> list:
        return [{"name": n, "parent": p, "calls": self.calls[(n, p)],
                 "total_s": self.total[(n, p)], "self_s": self.own[(n, p)]}
                for (n, p) in sorted(self.calls, key=lambda k: (k[0], str(k[1])))]


# -- result hooks: counters that depend on what a call returned ---------------


def _insert_hook(tracer, parent, args, result):
    added = result[0] if isinstance(result, tuple) else result
    tracer.counts["spans.SpanBasis.insert.added"] += bool(added)


def _contains_hook(tracer, parent, args, result):
    if parent == EXACT and not result:
        tracer.counts["spans.unity_filter.rejected"] += 1


def _batch_hook(tracer, parent, args, result):
    tracer.counts["kernels.batch_subspace_lengths.subspaces"] += len(args[1])


# (module, attribute or Class.method, span name, record whole spans, hook)
TARGETS = [
    ("io_cli", "main", MAIN, True, None),
    ("io_cli", "parse_algebra", "io_cli.parse_algebra", True, None),
    ("spans", "exact_algebra_length", EXACT, True, None),
    ("spans", "enumerate_subspace_rows", "spans.enumerate_subspace_rows", False, None),
    ("kernels", "batch_subspace_lengths", "kernels.batch_subspace_lengths", True,
     _batch_hook),
    ("spans", "diff_sequence", "spans.diff_sequence", False, None),
    ("spans", "SpanLadder.step_general", "spans.SpanLadder.step_general", False, None),
    ("spans", "SpanLadder.step_mixing", "spans.SpanLadder.step_mixing", False, None),
    ("spans", "SpanLadder.is_closed", "spans.SpanLadder.is_closed", False, None),
    ("spans", "SpanBasis.insert", "spans.SpanBasis.insert", False, _insert_hook),
    ("spans", "SpanBasis.reduce", "spans.SpanBasis.reduce", False, None),
    ("spans", "SpanBasis.contains", "spans.SpanBasis.contains", False, _contains_hook),
    ("algebra", "Algebra.multiply", "algebra.Algebra.multiply", False, None),
    ("identities", "classify", "identities.classify", True, None),
    *[("identities", c, f"identities.{c}", True, None) for c in CHECKERS],
    ("identities", "span_of", "identities.span_of", False, None),
    ("bounds", "audit", "bounds.audit", True, None),
    ("canonical", "canonical_flex_form", "canonical.canonical_flex_form", False, None),
    ("words", "evaluate", "words.evaluate", False, None),
]


def _wrap(tracer, fn, name, record, hook):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                tracer.enter(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                tracer.counts[name + ".items"] += 1
                yield item
        return traced_generator

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        parent = tracer.parent()
        tracer.enter(name, record)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if hook is not None:
            hook(tracer, parent, args, result)
        return result
    return traced


@contextmanager
def installed(tracer):
    """Wrap every target that exists; restore the originals on exit."""
    undo = []
    try:
        for module_name, path, name, record, hook in TARGETS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                continue
            class_name, _, attr = path.rpartition(".")
            owner = getattr(module, class_name, None) if class_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                continue
            wrapped = _wrap(tracer, original, name, record, hook)
            if class_name:
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# -- per-layer metrics ---------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, untraced_jobs_per_s: float,
                  traced_jobs_per_s: float) -> dict:
    """{metric name: (value, unit)} for every per-layer metric."""
    calls = functools.partial(tracer.sum, tracer.calls)
    own = functools.partial(tracer.sum, tracer.own)
    total = functools.partial(tracer.sum, tracer.total)
    counts = tracer.counts
    m = {}

    def put_calls_s(prefix, name, parent=...):
        m[f"{prefix}.calls"] = (calls(name, parent), "count")
        m[f"{prefix}.s"] = (own(name, parent), "s")

    for name in (MAIN, "io_cli.parse_algebra"):
        put_calls_s(name, name)

    enumerated = counts["spans.enumerate_subspace_rows.items"]
    m["spans.enumerate_subspace_rows.items"] = (enumerated, "count")
    m["spans.enumerate_subspace_rows.s"] = (own("spans.enumerate_subspace_rows"), "s")
    # the filter is the membership tests exact_algebra_length makes itself;
    # its time includes the reduce calls they make
    m["spans.unity_filter.calls"] = (calls("spans.SpanBasis.contains", EXACT), "count")
    m["spans.unity_filter.s"] = (total("spans.SpanBasis.contains", EXACT), "s")
    kept = enumerated - counts["spans.unity_filter.rejected"]
    m["spans.unity_filter.kept_ratio"] = (_ratio(kept, enumerated), "ratio")

    batch = "kernels.batch_subspace_lengths"
    m[f"{batch}.subspaces"] = (counts[f"{batch}.subspaces"], "count")
    m[f"{batch}.s"] = (own(batch), "s")
    # the sweep is the kernel, or the per-subspace ladders when there is none
    swept = counts[f"{batch}.subspaces"] + calls("spans.diff_sequence", EXACT)
    sweep_s = total(batch) + total("spans.diff_sequence", EXACT)
    m["sweep.subspaces_per_s"] = (_ratio(swept, sweep_s), "1/s")
    m[f"{EXACT}.calls"] = (calls(EXACT), "count")
    m[f"{EXACT}.s"] = (total(EXACT), "s")  # inclusive

    put_calls_s("spans.diff_sequence", "spans.diff_sequence")
    put_calls_s("spans.diff_sequence.in_cli", "spans.diff_sequence", MAIN)
    put_calls_s("spans.diff_sequence.in_sweep", "spans.diff_sequence", EXACT)
    for step in ("step_general", "step_mixing", "is_closed"):
        put_calls_s(f"spans.SpanLadder.{step}", f"spans.SpanLadder.{step}")
    put_calls_s("spans.SpanBasis.insert", "spans.SpanBasis.insert")
    m["spans.SpanBasis.insert.added_ratio"] = (
        _ratio(counts["spans.SpanBasis.insert.added"], calls("spans.SpanBasis.insert")),
        "ratio")
    put_calls_s("spans.SpanBasis.reduce", "spans.SpanBasis.reduce")
    put_calls_s("spans.SpanBasis.contains", "spans.SpanBasis.contains")

    put_calls_s("algebra.Algebra.multiply", "algebra.Algebra.multiply")

    m["identities.classify.s"] = (own("identities.classify"), "s")
    for checker in CHECKERS:
        m[f"identities.{checker}.s"] = (own(f"identities.{checker}"), "s")
    m["identities.span_of.calls"] = (calls("identities.span_of"), "count")

    m["bounds.audit.s"] = (own("bounds.audit"), "s")
    m["canonical.canonical_flex_form.calls"] = (
        calls("canonical.canonical_flex_form"), "count")
    m["words.evaluate.calls"] = (calls("words.evaluate"), "count")

    m["trace.overhead_ratio"] = (_ratio(untraced_jobs_per_s, traced_jobs_per_s), "ratio")
    return m
