"""Workload definitions: seeded input tensors, the curvlab jobs run on them,
and the checks each job's output must pass.

A job is one ``curvlab`` invocation (argv for ``curvlab.cli.run``) with the
exit code and output values it must produce.  Closed-form models carry
their known extremal values; seeded random tensors carry only verdicts.

Random tensors are seeded rotations of one fixed random tensor per
dimension.  Every curvlab quantity is rotation invariant (Q is
equivariant), so the work a job does is the same across seeds up to which
basins the fixed multistart frames land in, while the inputs the program
sees still change with the seed.  Drawing a fresh random tensor per seed
instead moves the cost of ``check`` by about 50 % from seed to seed, which
would hide the program's own run-to-run changes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

MARGIN = 1e-7  # the CLI's default decision margin
VALUE_TOL = 1e-7  # closed-form extremal values, absolute
RAY_TOL = 1e-6  # sphere-ray curvature against the closed form, relative
BASE_SEED = 20070  # fixed base of the random tensors (see module docstring)
FLOW_SCALE = 0.1  # max |component| of the random flow inputs

CONDITIONS = ("nic", "pic2", "quarter-pinch")
TRACE_HEADER = ["t", "kmin", "kmax", "min_iso", "min_pic2", "scalar", "dt", "err_est"]
_TIMESTAMP_LINE = re.compile(r'^\s*"timestamp": .*\n', re.MULTILINE)


@dataclass
class Job:
    """One curvlab invocation and what its output must satisfy.

    ``group`` names the metric the job's time is summed into.  ``expect``
    holds the values checked against the output; ``out`` is the trace file
    a flow job writes and a report job reads.
    """

    name: str
    group: str
    argv: list[str]
    expect: dict = field(default_factory=dict)
    out: str | None = None


WORKLOADS = ("check_zoo", "flow_reaction", "flow_diagnostics")


# ---------------------------------------------------------------------------
# Inputs


def rotation(seed, n: int) -> np.ndarray:
    """Seeded Haar-distributed orthogonal n x n matrix."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def rotate(lab, r, g: np.ndarray):
    """The tensor R(g^T x, g^T y, g^T z, g^T w) as a CurvatureTensor."""
    arr = np.einsum("ia,jb,kc,ld,abcd->ijkl", g, g, g, g, r.array, optimize=True)
    return lab.tensors.CurvatureTensor(n=r.n, comps=arr.reshape(-1))


def random_input(lab, seed: int, n: int, scale: float | None = None):
    """Seeded rotation of the fixed random tensor of dimension n."""
    base = lab.tensors.random_tensor([BASE_SEED, n], n)
    if scale is not None:
        base = lab.tensors.CurvatureTensor(n=n, comps=base.comps * (scale / base.max_abs()))
    return rotate(lab, base, rotation([seed, n], n))


def zoo_models(lab) -> dict:
    t = lab.tensors
    s4 = t.sphere(4, 1.0)
    cp2 = t.fubini_study(2, 4.0)
    return {
        "s4": s4,
        "cp2": cp2,
        "s2xs2": t.product(t.sphere(2, 1.0), t.sphere(2, 1.0)),
        "s2xs3": t.product(t.sphere(2, 1.0), t.sphere(3, 1.0)),
        "s4+0.3cp2": t.combine(1.0, s4, 0.3, cp2),
    }


# Closed-form outcomes per model and condition.  pic2 (absent below) holds
# with minimum 0 on every model: the two flat directions carry isotropic
# zeros.  For quarter-pinch, min_value is Kmin.
PIC2_EXPECT = {"decision": True, "min_value": 0.0}
ZOO_EXPECT = {
    "s4": {
        "nic": {"decision": True, "min_value": 4.0},
        "quarter-pinch": {"decision": True, "min_value": 1.0, "kmax": 1.0},
    },
    "cp2": {
        "nic": {"decision": True, "min_value": 0.0, "boundary": True},
        "quarter-pinch": {"decision": True, "min_value": 1.0, "kmax": 4.0},
    },
    "s2xs2": {"nic": {"decision": True, "min_value": 0.0}, "quarter-pinch": {"decision": False}},
    "s2xs3": {"nic": {"decision": True, "min_value": 0.0}, "quarter-pinch": {"decision": False}},
    "s4+0.3cp2": {
        "nic": {"decision": True, "min_value": 4.0},
        "quarter-pinch": {"decision": True, "min_value": 1.3, "kmax": 2.2},
    },
}


def _write(lab, workdir: str, name: str, r) -> str:
    path = os.path.join(workdir, name + ".json")
    lab.serialization.write_tensor(path, r)
    return path


def _check_job(path: str, tag: str, cond: str, expect: dict, restarts: int | None) -> Job:
    argv = ["check", "--condition", cond, "--tensor", path, "--seed", "0"]
    if restarts is not None:
        argv += ["--restarts", str(restarts)]
    expect = dict(expect, code=0 if expect["decision"] else 1)
    return Job(f"check:{cond}:{tag}", cond.replace("-", "_"), argv, expect)


def _flow_jobs(path: str, tag: str, workdir: str, t_end: float, dt: float, stride: int | None,
               restarts: int | None, expect: dict) -> list[Job]:
    out = os.path.join(workdir, tag + ".csv")
    argv = ["flow", "--tensor", path, "--t-end", repr(t_end), "--dt", repr(dt), "--seed", "0", "--out", out]
    if stride is not None:
        argv += ["--stride", str(stride)]
    if restarts is not None:
        argv += ["--restarts", str(restarts)]
    return [
        Job(f"flow:{tag}", "flow", argv, dict(expect, code=0, t_end=t_end), out),
        Job(f"report:{tag}", "report", ["report", "--trace", out], {"code": 0}, out),
    ]


def build(lab, workload: str, seed: int, workdir: str, quick: bool = False) -> list[Job]:
    """Write the workload's input tensors into ``workdir`` and return its jobs.

    ``quick`` shrinks every workload to a few cheap jobs for the harness
    self-check; the measured workloads never set it.
    """
    if workload == "check_zoo":
        restarts = 8 if quick else None
        jobs = []
        models = zoo_models(lab)
        if quick:
            models = {k: models[k] for k in ("s4", "cp2")}
        for tag, r in models.items():
            path = _write(lab, workdir, tag, r)
            for cond in CONDITIONS:
                jobs.append(_check_job(path, tag, cond, ZOO_EXPECT[tag].get(cond, PIC2_EXPECT), restarts))
        randoms = [(5, CONDITIONS)] if quick else [(6, CONDITIONS), (9, ("nic",))]
        for n, conds in randoms:
            tag = f"random{n}"
            path = _write(lab, workdir, tag, random_input(lab, seed, n))
            jobs += [_check_job(path, tag, c, {"decision": False}, restarts) for c in conds]
        return jobs

    if workload == "flow_reaction":
        # --stride past the last step: diagnostics only on the first and last rows.
        t_end, dt = (0.05, 0.01) if quick else (0.5, 0.01)
        jobs = []
        for n in (5,) if quick else (9, 10, 12):
            tag = f"random{n}"
            path = _write(lab, workdir, tag, random_input(lab, seed, n, FLOW_SCALE))
            jobs += _flow_jobs(path, tag, workdir, t_end, dt, 10**9, 1, {"rows": 2})
        ray_t = 0.002 if quick else 0.02
        path = _write(lab, workdir, "s10", lab.tensors.sphere(10, 1.0))
        kappa = lab.flow.sphere_kappa(10, 1.0, ray_t)
        jobs += _flow_jobs(path, "s10", workdir, ray_t, 0.002, 10**9, 1, {"rows": 2, "final_kappa": kappa})
        return jobs

    if workload == "flow_diagnostics":
        # The cone-margin cases of demos/reaction_flow.py: dt = t_end / 5 and a
        # diagnostics row after every step.  The inputs do not depend on the
        # seed: with few restarts per row, the cost of a rotated copy of a
        # boundary model moves by up to 25 % with the rotation.
        t = lab.tensors
        cases = [
            ("s4", t.sphere(4, 1.0), 0.05),
            ("cp2", t.fubini_study(2, 4.0), 0.02),
            ("s2xs2", t.product(t.sphere(2, 1.0), t.sphere(2, 1.0)), 0.05),
        ]
        if quick:
            cases = cases[:1]
        jobs = []
        for tag, r, t_end in cases:
            path = _write(lab, workdir, tag, r)
            expect = {"min_rows": 6, "min_pic2_floor": -MARGIN}
            if tag == "s4":
                expect["final_kappa"] = lab.flow.sphere_kappa(4, 1.0, t_end)
            jobs += _flow_jobs(path, tag, workdir, t_end, t_end / 5.0, None, 2 if quick else None, expect)
        return jobs

    raise ValueError(f"unknown workload {workload!r}")


def warmup_job(lab, workdir: str) -> Job:
    """One small flow with diagnostics: touches every curvlab module once."""
    path = _write(lab, workdir, "warmup", lab.tensors.sphere(4, 1.0))
    return _flow_jobs(path, "warmup", workdir, 0.01, 0.01, None, 1, {"min_rows": 2})[0]


# ---------------------------------------------------------------------------
# Output checks


def canonical(stdout: str, file_text: str | None) -> str:
    """The output that must repeat byte for byte: stdout without the
    timestamp line, followed by the trace file a flow job wrote."""
    return _TIMESTAMP_LINE.sub("", stdout) + "\n--\n" + (file_text or "")


def parse_trace(text: str) -> list[list[float]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != TRACE_HEADER:
        raise ValueError("trace CSV header mismatch")
    return [[float(x) for x in row] for row in rows[1:] if row]


def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


def check_output(job: Job, code: int, stdout: str, file_text: str | None) -> list[str]:
    """Problems with one job's result; an empty list means it passed."""
    exp = job.expect
    if code != exp["code"]:
        return [f"exit code {code}, expected {exp['code']}"]
    kind = job.argv[0]
    problems = []
    if kind == "check":
        rep = json.loads(stdout)
        for key in ("decision", "boundary"):
            if key in exp and rep[key] is not exp[key]:
                problems.append(f"{key} {rep[key]}, expected {exp[key]}")
        for key in ("min_value", "kmax"):
            if key in exp and not _close(rep[key], exp[key], VALUE_TOL):
                problems.append(f"{key} {rep[key]!r}, expected {exp[key]!r}")
        return problems

    rows = parse_trace(file_text or "")
    if not rows:
        return ["empty trace"]
    cols = {name: [row[i] for row in rows] for i, name in enumerate(TRACE_HEADER)}
    if kind == "report":
        rep = json.loads(stdout)
        want = {
            "rows": len(rows),
            "t_first": cols["t"][0],
            "t_last": cols["t"][-1],
            "kmin_min": min(cols["kmin"]),
            "kmax_max": max(cols["kmax"]),
            "min_iso": min(cols["min_iso"]),
            "min_pic2": min(cols["min_pic2"]),
            "scalar_first": cols["scalar"][0],
            "scalar_last": cols["scalar"][-1],
            "max_err_est": max(cols["err_est"]),
        }
        return [f"report {k} {rep.get(k)!r}, trace gives {v!r}" for k, v in want.items() if rep.get(k) != v]

    if not all(math.isfinite(x) for row in rows for x in row):
        problems.append("non-finite trace entry")
    if not _close(cols["t"][-1], exp["t_end"], 1e-12 * exp["t_end"]):
        problems.append(f"last row t={cols['t'][-1]!r}, expected {exp['t_end']!r}")
    if "rows" in exp and len(rows) != exp["rows"]:
        problems.append(f"{len(rows)} rows, expected {exp['rows']}")
    if "min_rows" in exp and len(rows) < exp["min_rows"]:
        problems.append(f"{len(rows)} rows, expected at least {exp['min_rows']}")
    if "final_kappa" in exp:
        k = exp["final_kappa"]
        for col in ("kmin", "kmax"):
            if not _close(cols[col][-1], k, RAY_TOL * k):
                problems.append(f"final {col} {cols[col][-1]!r}, closed form {k!r}")
    if "min_pic2_floor" in exp:
        worst = min(cols["min_pic2"])
        if worst < exp["min_pic2_floor"]:
            problems.append(f"min_pic2 {worst!r} below {exp['min_pic2_floor']!r}")
    return problems
