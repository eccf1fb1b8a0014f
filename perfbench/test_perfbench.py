"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

import json
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import run
import tracer as tracing
from workloads import ROOT, WORKLOADS, Job, Workload, load_alglen

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_short_pass_prints_every_end_to_end_metric(name):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == len(WORKLOADS[name].jobs)
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_self_time_subtracts_child_spans():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])
    # job [0, 10] > main [1, 9] > {parse [2, 3], classify [4, 8] > multiply [5, 7]};
    # (time, name, record) opens a span, (time, None, None) closes the last one
    events = [(0, "job", True), (1, "main", True), (2, "parse", False), (3, None, None),
              (4, "classify", True), (5, "multiply", False), (7, None, None),
              (8, None, None), (9, None, None), (10, None, None)]
    for t, name, record in events:
        now[0] = t
        if name is None:
            tracer.exit()
        else:
            tracer.enter(name, record)

    assert tracer.own[("job", None)] == 2
    assert tracer.own[("main", "job")] == 3
    assert tracer.own[("parse", "main")] == 1
    assert tracer.own[("classify", "main")] == 2
    assert tracer.own[("multiply", "classify")] == 2
    assert tracer.total[("main", "job")] == 8
    assert [(s["name"], s["start"], s["end"], s["parent"]) for s in tracer.spans] == [
        ("job", 0, 10, None), ("main", 1, 9, 0), ("classify", 4, 8, 1)]
    assert not tracer.stack


def test_scale_to_the_reference_host():
    assert run.scale(2.0, [run.REF_S, run.REF_S]) == 2.0
    # a host that ran the loop twice as slow for the whole measurement
    assert run.scale(2.0, [2 * run.REF_S] * 3) == 1.0


def test_host_clock_samples_during_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with run.HostClock() as clock:
        # the handler runs during the sleep, which ends on time all the same
        time.sleep(10 * run.SAMPLE_S)
    assert len(clock.samples) >= 2 + 5
    assert 0 < clock.spent < clock.seconds
    assert clock.seconds + clock.spent >= 10 * run.SAMPLE_S
    assert clock.scaled > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# one cheap job per layer: enumeration with and without the unity filter,
# the sweep, identities, bounds and the search ladder
MINI = Workload(
    name="mini", why="",
    jobs=(
        Job("exact-length", "aalt", "gf:2", expect=3),
        Job("exact-length", "hull:aflex", "gf:2", expect=3),
        Job("bounds", "aflex", "rational", ("--set", "1,2")),
        Job("search", "cd:3:-1,-1,-1", "rational", ("--set-size", "2"), expect=False),
    ),
    setup_jobs=(Job("exact-length", "cd:0", "gf:2"),),
)


def test_traced_counts_repeat_for_a_seed():
    io_cli = load_alglen()
    runs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as work_dir:
            metrics, attempted, failures, _ = run.run_workload(
                io_cli, MINI, 3, 1, trace=True, work_dir=Path(work_dir))
        assert not failures and attempted == 2 * len(MINI.jobs)
        runs.append(metrics)
    assert {k: u for k, (_, u) in runs[0].items()} == _units("per_layer")
    counts = [{k: v for k, (v, u) in m.items()
               if u in ("count", "ratio") and k != "trace.overhead_ratio"} for m in runs]
    assert counts[0] == counts[1]
    for layer in ("spans.unity_filter.calls", "kernels.batch_subspace_lengths.subspaces",
                  "identities.span_of.calls", "spans.SpanLadder.is_closed.calls",
                  "algebra.Algebra.multiply.calls"):
        assert counts[0][layer] > 0, layer
    # the originals are back once the traced pass ends
    assert not hasattr(io_cli.main, "__wrapped__")
