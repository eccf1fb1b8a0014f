#!/usr/bin/env python3
"""alglen benchmark: fixed lists of CLI jobs, timed end to end, answers checked.

One client waits for each answer (a closed loop with one client): every job
is one ``alglen.io_cli.main([..., "--json"])`` call made in this process,
on algebra files written by ``alglen gen``.  A run repeats whole passes of
its workload's job list for about ``--seconds``.  A shared host runs the
same job at speeds up to 1.5 times apart and switches between them within a
second, so a short fixed pure-Python reference loop is timed before, during
(every ``SAMPLE_S``, from a timer signal) and after every job, and the job's
time is scaled to a host that runs the loop in ``REF_S``.  Each job's time
is then its median over the passes, and the timings are taken from those
medians and from the median pass.  The seed is forwarded to every job as
``--seed``.

    python3 perfbench/run.py --workload exact-gf --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics, writing the
spans to ``.perfbench_out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracer as tracing
from workloads import ROOT, SRC, WORKLOADS, SourceMissing, check, load_alglen, \
    run_quiet, verify_search, write_algebras

OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 11
REF_ITERS = 15_000
REF_S = 0.0025  # the reference loop on a quiet 2-core Xeon VM at 2.1 GHz, Python 3.11
SAMPLE_S = 0.05  # the reference loop's period during a job: about 5 % of the job's time
BURST = 8  # reference loops before and after each setup interpreter

# A fresh interpreter running one workload's setup commands.
SETUP_CHILD = """\
import contextlib, io, json, sys
from alglen import io_cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = io_cli.main(argv)
    if rc != 0:
        sys.exit(f"{argv[0]} exited {rc}")
"""


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": importlib.util.find_spec("numba") is not None,
        "cpu": cpu,
    }


def reference_loop() -> float:
    """Wall time of a fixed loop of int arithmetic and dict stores.

    It uses nothing of alglen and allocates one small dict, so neither the
    program nor its heap changes it: it follows only the host's speed.
    """
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(REF_ITERS):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return time.perf_counter() - t0


def scale(seconds: float, samples: list) -> float:
    """``seconds`` on a host that runs the reference loop in ``REF_S``, given
    reference times taken at even intervals over the measurement."""
    return seconds * statistics.fmean(REF_S / t for t in samples)


def burst() -> list:
    """Reference times of ``BURST`` loops in a row (about 20 ms)."""
    return [reference_loop() for _ in range(BURST)]


class HostClock:
    """Times a block, and samples the reference loop before, during and after it.

    During the block a SIGALRM handler runs the loop every ``SAMPLE_S``; the
    handler's time is left out of ``seconds``.  ``scaled`` is ``scale()`` of
    ``seconds`` over all the samples.
    """

    def __enter__(self):
        self.samples, self.spent, self.busy = [reference_loop()], 0.0, False
        self.handler = signal.signal(signal.SIGALRM, self._sample)
        self.t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def _sample(self, signum, frame):
        # Python runs a handler between bytecodes, so a tick that arrives
        # during the loop would start a nested one and count its time twice
        if self.busy:
            return
        self.busy = True
        t0 = time.perf_counter()
        self.samples.append(reference_loop())
        self.spent += time.perf_counter() - t0
        self.busy = False

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = time.perf_counter() - self.t0 - self.spent
        signal.signal(signal.SIGALRM, self.handler)
        self.samples.append(reference_loop())
        self.scaled = scale(self.seconds, self.samples)
        return False


class Run:
    """Jobs of one workload run in-process; outcomes collected for checking."""

    def __init__(self, io_cli, workload, seed: int, work_dir):
        self.io_cli = io_cli
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.paths = write_algebras(io_cli, workload.jobs + workload.setup_jobs, work_dir)
        self.outcomes = []  # (job, seconds, exit code, stdout, error)
        self.scaled = []  # each outcome's seconds, scaled to the reference host

    def argv(self, job):
        return job.argv(self.paths[job.file_name], self.seed)

    def warm_up(self) -> None:
        """Run the setup commands once so lazy imports finish before timing."""
        for job in self.workload.setup_jobs:
            rc, _ = run_quiet(self.io_cli, self.argv(job))
            if rc != 0:
                raise RuntimeError(f"warm-up {job.label} exited {rc}")

    def run_pass(self, tracer=None) -> tuple:
        """Run the job list once; returns the jobs' total (wall, scaled) seconds."""
        start = len(self.outcomes)
        for job in self.workload.jobs:
            self.run_job(job, tracer)
        return (sum(seconds for _, seconds, *_ in self.outcomes[start:]),
                sum(self.scaled[start:]))

    def timed_passes(self, seconds: int) -> list:
        """(wall, scaled) times of the whole passes whose wall total comes
        nearest ``seconds`` (at least one)."""
        times = []
        while not times or sum(w for w, _ in times) + \
                statistics.median(w for w, _ in times) / 2 < seconds:
            times.append(self.run_pass())
        return times

    def job_medians(self) -> list:
        """(label, median over the passes of its scaled time) of each job."""
        n = len(self.workload.jobs)
        return [(job.label, statistics.median(self.scaled[j::n]))
                for j, job in enumerate(self.workload.jobs)]

    def run_job(self, job, tracer) -> None:
        argv = self.argv(job)
        error = None
        rc, stdout = None, ""
        with HostClock() as clock:
            if tracer is not None:
                tracer.job = len(self.outcomes)
                tracer.enter("job", record=True)
            try:
                rc, stdout = run_quiet(self.io_cli, argv)
            except Exception:  # the job failed; count it and keep measuring
                error = traceback.format_exc(limit=3)
            finally:
                if tracer is not None:
                    tracer.exit()
        self.outcomes.append((job, clock.seconds, rc, stdout, error))
        self.scaled.append(clock.scaled)

    def failures(self) -> list:
        """(job label, reason) for every wrong answer; checks run untimed."""
        failed = []
        set_file = self.work_dir / "witness.txt"
        for job, _, rc, stdout, error in self.outcomes:
            path = self.paths[job.file_name]

            def verify(bound, witness):
                return verify_search(self.io_cli, path, bound, witness, set_file)

            try:
                reason = error or check(job, rc, stdout, verify)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:  # output changed shape
                reason = f"unexpected output: {exc!r}"
            if reason is not None:
                failed.append((job.label, reason.strip().splitlines()[-1]))
        return failed


def measure_setup(workload, paths, seed) -> list:
    """(wall, scaled) times of fresh interpreters running the workload's
    setup commands, bursts of the reference loop timed between them.  The
    loop does not run during them: it would compete with the child for the CPU."""
    argvs = [job.argv(paths[job.file_name], seed) for job in workload.setup_jobs]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    times, before = [], burst()
    for _ in range(SETUP_REPEATS + 1):  # the first one is not kept: it warms caches
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, json.dumps(argvs)],
                              cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup interpreter failed: {proc.stderr.strip()}")
        after = burst()
        times.append((wall, scale(wall, before + after)))
        before = after
    return times[1:]


def run_workload(io_cli, workload, seed: int, seconds: int, trace: bool, work_dir):
    """(metrics {name: (value, unit)}, attempted, failures, notes)."""
    run = Run(io_cli, workload, seed, work_dir)
    notes = {}
    if not trace:
        setup = measure_setup(workload, run.paths, seed)
        run.warm_up()
        passes = run.timed_passes(seconds)
        medians = run.job_medians()
        slowest, tail_s = max(medians, key=lambda m: m[1])
        metrics = {
            "jobs_per_s": (len(workload.jobs) / statistics.median(s for _, s in passes),
                           "1/s"),
            "job_s.p50": (statistics.median(t for _, t in medians), "s"),
            "job_s.tail": (tail_s, "s"),
            "setup_s": (statistics.median(s for _, s in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
        notes["passes"] = " ".join(f"{w:.3f}s->{s:.3f}s" for w, s in passes)
        notes["jobs"] = "  ".join(f"{label}: {t:.3f}" for label, t in medians)
        notes["job_s.tail"] = (f"slowest of {len(medians)} jobs, median of "
                               f"{len(passes)} passes: {slowest}")
        notes["setup_s"] = f"median of {SETUP_REPEATS}: " + \
            " ".join(f"{w:.3f}->{s:.3f}" for w, s in setup)
        unscaled_jps = len(workload.jobs) / statistics.median(w for w, _ in passes)
        notes["unscaled"] = (f"jobs_per_s={unscaled_jps:.4f} "
                             f"setup_s={statistics.median(w for w, _ in setup):.4f}")
    else:
        run.warm_up()
        untraced = len(workload.jobs) / run.run_pass()[1]
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = len(workload.jobs) / run.run_pass(tracer)[1]
        metrics = tracing.layer_metrics(tracer, untraced, traced)
        write_trace(tracer, workload, seed, run)
    failures = run.failures()
    notes["fail_ratio"] = f"{len(failures) / len(run.outcomes):.4f}"
    return metrics, len(run.outcomes), failures, notes


def write_trace(tracer, workload, seed, run) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    jobs = [job.label for job, *_ in run.outcomes]
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload.name, "seed": seed, "jobs": jobs,
                                "spans": tracer.spans, "aggregate": tracer.aggregate()},
                               indent=1), encoding="utf-8")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40,
                        help="measure about this long, in whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        io_cli = load_alglen()
    except SourceMissing as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    facts = machine_facts()
    results = {}
    attempted, failed = 0, []
    for name in names:
        load_before = os.getloadavg()
        OUT.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as work_dir:
            metrics, tried, failures, notes = run_workload(
                io_cli, WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                Path(work_dir))
        facts_run = dict(facts, loadavg_before=load_before, loadavg_after=os.getloadavg())
        attempted += tried
        failed += failures
        results[name] = metrics
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "attempted": tried,
                  "failures": failures, "notes": notes, "machine": facts_run,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8")
        print(f"[{name}] " + "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items()))
        print(f"[{name}] " + "  ".join(f"{k}: {v}" for k, v in notes.items()))
        print(f"[{name}] machine " + json.dumps(facts_run))
        for label, reason in failures:
            print(f"[{name}] FAILED {label}: {reason}")
    if len(names) == 1:
        flat = results[names[0]]
    else:
        flat = {f"{w}.{k}": v for w, metrics in results.items() for k, v in metrics.items()}
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in flat.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
