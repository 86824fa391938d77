#!/usr/bin/env python3
"""Fast self-check of the benchmark harness (about half a minute).

    python3 perfbench/selfcheck.py

Runs every workload at minimal size, untraced and traced, and requires a
correct result that reports exactly the metrics BENCHMARK.json names, with
their units.  Then gives the output checks deliberately wrong expected
values and a tampered repetition, and requires each to be caught.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from dataclasses import replace

import run
import workloads


def _jobs(lab, workload, workdir):
    return {job.name: job for job in workloads.build(lab, workload, 1, workdir, quick=True)}


def _caught(lab, job, expect_update) -> bool:
    """True if the job fails its check once ``expect`` is made wrong."""
    _, _, problems = run.run_job(lab, replace(job, expect={**job.expect, **expect_update}))
    return bool(problems)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    results = []

    def check(label: str, ok: bool) -> None:
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {label}")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            with contextlib.redirect_stdout(io.StringIO()):
                res = run.benchmark(workload, 1, 0.1, trace, quick=True)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(f"{workload} trace={int(trace)} correct", res["correct"] and res["failed"] == 0)
            check(f"{workload} trace={int(trace)} reports exactly the {section} metrics", got == want)

    lab = run.load_curvlab()
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=run.ROOT / ".bench_work")
    try:
        zoo = _jobs(lab, "check_zoo", workdir)
        sanity = [zoo["check:nic:s4"], zoo["check:pic2:cp2"]]
        check("unaltered expectations pass", all(not run.run_job(lab, j)[2] for j in sanity))
        check("wrong S^4 nic minimum is caught", _caught(lab, zoo["check:nic:s4"], {"min_value": 5.0}))
        check("wrong CP^2 Kmax is caught", _caught(lab, zoo["check:quarter-pinch:cp2"], {"kmax": 3.0}))
        check("wrong CP^2 boundary flag is caught", _caught(lab, zoo["check:nic:cp2"], {"boundary": False}))
        check("wrong random verdict is caught",
              _caught(lab, zoo["check:nic:random5"], {"decision": True, "code": 0}))

        ray = _jobs(lab, "flow_reaction", workdir)["flow:s10"]
        check("wrong sphere-ray curvature is caught", _caught(lab, ray, {"final_kappa": ray.expect["final_kappa"] * 1.01}))
        diag = _jobs(lab, "flow_diagnostics", workdir)
        check("min_pic2 above a positive floor is caught", _caught(lab, diag["flow:s4"], {"min_pic2_floor": 1.0}))
        report = diag["report:s4"]
        run.run_job(lab, diag["flow:s4"])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lab.cli.run(report.argv)
        summary = dict(json.loads(out.getvalue()), rows=0)
        with open(report.out) as fh:
            problems = workloads.check_output(report, code, json.dumps(summary), fh.read())
        check("report disagreeing with its trace is caught", bool(problems))

        runner = run.Runner(lab, sanity)
        runner.round()
        runner.first_output[0] = runner.first_output[0].replace("4", "5", 1)
        with contextlib.redirect_stderr(io.StringIO()):
            runner.round()
        check("output differing from its repetition is caught", runner.failed == 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (run.ROOT / ".bench_work").rmdir()

    print(f"{sum(results)}/{len(results)} checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
