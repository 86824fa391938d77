#!/usr/bin/env python3
"""curvlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload check_zoo --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; curvlab is imported from ``src/``.
Each job is one ``curvlab`` command executed in-process through
``curvlab.cli.run(argv)`` with stdout and stderr captured, so the cli,
serialization, conditions, frames, tensors and flow modules all run as the
``curvlab`` command runs them.  The loop is closed with a single caller:
the next job starts when the previous one returns, and no threads are
started beyond what numpy's BLAS starts on its own.  BLAS threads are left
as the environment sets them and recorded with the machine facts.

Set-up (import of curvlab, input tensor files written, one untimed warm-up
job) is repeated ``SETUPS`` times and ``setup_s`` is the median.  The timed
phase then makes passes (rounds) over the workload's job list until the
next pass would end after ``--seconds``; at least two, so every job's
output is compared with a repetition of itself.

``pass_ref``, the end-to-end time of one pass, is measured in units of a
fixed reference computation that uses no curvlab code (``reference_work``).
In untraced rounds the reference runs between consecutive jobs; each job's
time is divided by the mean of the reference times just before and just
after it, the median of that ratio over the job's repetitions is taken,
and the medians are summed over the jobs.  On a shared host the speed of
interpreter-bound code drifts by 15-30 % over minutes, so the seconds a
pass takes spread by up to a quarter across runs of the same code; the
reference, timed around each job, moves with that drift and the ratio
does not.  The pass time in seconds is printed as ``wall_s`` with every
result and reported by ``--trace 1``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics: span times and counts from traced rounds, job-time sums
per command from untraced rounds, the tracing overhead between the two,
and probes of single layers timed after the timed phase.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
machine facts.  A job fails when it raises, exits with an unexpected code,
fails its output check, or differs from an earlier repetition.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 9
MIN_ROUNDS = 2
MIN_COVERAGE = 0.9  # share of a traced round inside top-level cli.run spans
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("tensors", "frames", "conditions", "flow", "serialization", "cli")
GROUP_METRICS = {
    "nic": "check_nic_s",
    "pic2": "check_pic2_s",
    "quarter_pinch": "check_quarter_pinch_s",
    "flow": "flow_s",
}


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_ref"):
        return "ref"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("trace_bytes"):
        return "bytes"
    for suffix, unit in (("ms", "ms"), ("us", "us"), ("_s", "s"), (".s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# Set-up


def load_curvlab() -> SimpleNamespace:
    """(Re-)import curvlab from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "curvlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no curvlab package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for key in [k for k in sys.modules if k == "curvlab" or k.startswith("curvlab.")]:
        del sys.modules[key]
    lab = SimpleNamespace(**{m: importlib.import_module(f"curvlab.{m}") for m in MODULES})
    if not Path(lab.cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: imported curvlab from {lab.cli.__file__}, not from {src}")
    return lab


def machine_facts() -> dict:
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    max_threads = re.search(r"MAX_THREADS=(\d+)", blas.get("openblas configuration", ""))
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_max_threads": int(max_threads.group(1)) if max_threads else None,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# Jobs and rounds


_REF_A = np.random.default_rng(0).standard_normal((6, 6))
_REF_B = np.random.default_rng(1).standard_normal((6, 4))


def reference_work() -> float:
    """Time of a fixed computation that uses no curvlab code: small matrix
    products, QR factorizations and a Python loop, the mix the frame descent
    runs.  It changes only with the host's speed, so it is the unit of
    ``pass_ref``."""
    t0 = time.perf_counter()
    x = _REF_B.copy()
    for _ in range(400):
        y = _REF_A @ x
        x = np.linalg.qr(y)[0] + 0.001 * _REF_B
        float(np.einsum("ij,ij->", x, y)) + sum(i * 0.5 for i in range(20))
    return time.perf_counter() - t0


def run_job(lab, job: workloads.Job):
    """Run one job; returns (seconds, canonical output or None, problems)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lab.cli.run(job.argv)
    except Exception as exc:  # a raising job is a failed operation, not a crash
        return time.perf_counter() - t0, None, [f"raised {type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - t0
    file_text = None
    try:
        if job.out is not None and os.path.exists(job.out):
            file_text = Path(job.out).read_text()
        problems = workloads.check_output(job, code, out.getvalue(), file_text)
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    if err.getvalue() and not problems and code == 0:
        problems = [f"unexpected stderr: {err.getvalue().strip()[:200]}"]
    return seconds, workloads.canonical(out.getvalue(), file_text), problems


class Runner:
    """Runs rounds over a job list, comparing each job's output with its
    first repetition and counting attempts and failures."""

    def __init__(self, lab, jobs):
        self.lab = lab
        self.jobs = jobs
        self.first_output = [None] * len(jobs)
        self.times = [[] for _ in jobs]  # seconds per untraced run of each job
        self.ratios = [[] for _ in jobs]  # the same over the adjacent reference times
        self.last_ref = None  # reference time just before the next job, if it ran
        self.ref_seconds = 0.0  # total time spent in reference computations
        self.attempted = 0
        self.failed = 0

    def record(self, job, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"perfbench: FAIL {job.name}: {'; '.join(problems)}", file=sys.stderr)

    def run(self, i: int, traced: bool = False) -> float:
        """Run job i, check it, and return its time.  Untraced, the job runs
        between two reference computations and its time is recorded."""
        job = self.jobs[i]
        if traced:
            self.last_ref = None
        elif self.last_ref is None:
            self.last_ref = self.time_reference()
        seconds, canon, problems = run_job(self.lab, job)
        if not traced:
            before, self.last_ref = self.last_ref, self.time_reference()
            self.times[i].append(seconds)
            self.ratios[i].append(2.0 * seconds / (before + self.last_ref))
        if canon is not None:
            if self.first_output[i] is None:
                self.first_output[i] = canon
            elif canon != self.first_output[i]:
                problems = problems + ["output differs from its first repetition"]
        self.record(job, problems)
        return seconds

    def time_reference(self) -> float:
        seconds = reference_work()
        self.ref_seconds += seconds
        return seconds

    def round(self, traced: bool = False) -> dict:
        """One pass over the jobs; its wall time leaves out the references."""
        groups = dict.fromkeys(GROUP_METRICS, 0.0)
        t0, ref0 = time.perf_counter(), self.ref_seconds
        for i, job in enumerate(self.jobs):
            seconds = self.run(i, traced)
            if job.group in groups:
                groups[job.group] += seconds
        return {"wall": time.perf_counter() - t0 - (self.ref_seconds - ref0), "groups": groups}

    def fill(self, deadline: float) -> None:
        """Untraced jobs in round order until the next one would end after
        ``deadline``: more repetitions for ``pass_ref`` from the time a whole
        round no longer fits in."""
        for i in range(len(self.jobs)):
            if time.perf_counter() + statistics.median(self.times[i]) > deadline:
                return
            self.run(i)


def median_of(rounds, key):
    return statistics.median(key(r) for r in rounds)


def set_up(workload: str, seed: int, workdir: Path, quick: bool):
    """One set-up: import curvlab, write the inputs, run the warm-up job.
    Returns (lab, jobs, warm-up job, warm-up problems)."""
    lab = load_curvlab()
    jobs = workloads.build(lab, workload, seed, str(workdir), quick)
    warm = workloads.warmup_job(lab, str(workdir))
    return lab, jobs, warm, run_job(lab, warm)[2]


def timed_phase(runner: Runner, seconds: float, tracer: spans.Tracer | None) -> list[dict]:
    """Rounds until the next one would end after ``seconds`` (at least
    MIN_ROUNDS).  With a tracer, every second round is traced; without,
    single jobs fill the time left."""
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
            try:
                rnd = runner.round(traced=True)
            finally:
                tracer.uninstall()
            rnd["layers"] = tracer.snapshot()
            rnd["coverage"] = tracer.top_level / rnd["wall"]
        else:
            rnd = runner.round()
        rnd["traced"] = traced
        rounds.append(rnd)
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + median_of(rounds, lambda r: r["wall"]) > seconds:
            if tracer is None:
                runner.fill(start + seconds)
            return rounds


def per_layer(rounds: list[dict], runner: Runner) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    metrics = {}
    for k in traced[0]["layers"]:
        # Counts repeat exactly across rounds; keep them integers.
        med = statistics.median_low if unit_of(k) in ("count", "bytes") else statistics.median
        metrics[k] = med(r["layers"][k] for r in traced)
    metrics.update({m: median_of(plain, lambda r, g=g: r["groups"][g]) for g, m in GROUP_METRICS.items()})
    metrics["wall_s"] = median_of(plain, lambda r: r["wall"])
    metrics["ops_failed_frac"] = runner.failed / runner.attempted
    metrics["trace_overhead_frac"] = median_of(traced, lambda r: r["wall"]) / median_of(plain, lambda r: r["wall"]) - 1.0
    metrics["trace.coverage_frac"] = median_of(traced, lambda r: r["coverage"])
    return metrics


def benchmark(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    workroot = ROOT / ".bench_work"
    workroot.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=workroot))
    try:
        setup_times, warmups = [], []
        for i in range(SETUPS):
            workdir = tmp / f"setup{i}"
            workdir.mkdir()
            t0 = time.perf_counter()
            lab, jobs, warm, problems = set_up(workload, seed, workdir, quick)
            setup_times.append(time.perf_counter() - t0)
            warmups.append((warm, problems))
        runner = Runner(lab, jobs)
        for warm, problems in warmups:
            runner.record(warm, problems)
        rounds = timed_phase(runner, seconds, spans.Tracer() if trace else None)
        correct = True
        if trace:
            metrics = per_layer(rounds, runner)
            if metrics["trace.coverage_frac"] < MIN_COVERAGE:
                correct = False
                print(f"perfbench: top-level spans cover only {metrics['trace.coverage_frac']:.3f} "
                      f"of the traced rounds (< {MIN_COVERAGE})", file=sys.stderr)
            metrics.update(spans.probes(lab, seed))
            info = {}
        else:
            metrics = {
                "pass_ref": sum(statistics.median(r) for r in runner.ratios),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            info = {"wall_s": median_of(rounds, lambda r: r["wall"])}
            info.update({m: median_of(rounds, lambda r, g=g: r["groups"][g]) for g, m in GROUP_METRICS.items()})
        info["rounds"] = len(rounds)
        info["jobs_per_round"] = len(jobs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            workroot.rmdir()

    for name, value in {**metrics, **info}.items():
        print(f"{name} {value!r} {unit_of(name)}")
    print("round_walls_s " + " ".join(f"{r['wall']:.4f}{'t' if r['traced'] else ''}" for r in rounds))
    print(json.dumps({"machine": machine_facts()}, sort_keys=True))
    return {
        "correct": correct and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
