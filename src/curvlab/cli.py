"""Command-line front end.

Subcommands: model, check, minimize, identity, flow, report.  Exit codes:
0 on success, 1 when a condition is violated or an identity battery fails,
2 on usage or I/O errors.  Seeds default to --seed, then the CURVLAB_SEED
environment variable, then 0, and are echoed in every report.  Reports are
JSON on stdout with floats at 17 significant digits; apart from the
timestamp field they are byte-identical for identical argv.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import serialization as ser
from .conditions import (
    MinimizeOpts,
    Weights,
    check_nic,
    check_pic2,
    cyclic_sum_identity,
    lift_identity_residual,
    minimize_frame,
    quarter_pinch_reports,
)
from .flow import FlowOpts, decomposition_residual, integrate
from .frames import random_frame
from .tensors import fubini_study, pad_euclidean, product, random_tensor, sphere

__all__ = ["run", "main", "identity_battery"]

IDENTITY_TOLS = {"lift": 1e-12, "cyclic": 1e-11, "decomposition": 1e-10}


class _CliError(Exception):
    """Usage-level error: reported on stderr, exit code 2."""


def _resolve_seed(value: int | None) -> int:
    name = "--seed"
    if value is None:
        name, env = "CURVLAB_SEED", os.environ.get("CURVLAB_SEED", "0")
        try:
            value = int(env)
        except ValueError:
            raise _CliError(f"CURVLAB_SEED must be an integer, got {env!r}") from None
    if value < 0:
        raise _CliError(f"{name} must be a nonnegative integer, got {value}")
    return value


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_model(args) -> int:
    kind = args.kind
    if kind == "sphere":
        r = sphere(args.n, args.kappa)
    elif kind == "cpm":
        r = fubini_study(args.m, args.c)
    elif kind == "product":
        if len(args.factor or []) != 2:
            raise _CliError("--kind product needs exactly two --factor files")
        r = product(ser.read_tensor(args.factor[0]), ser.read_tensor(args.factor[1]))
    elif kind == "pad":
        if args.tensor is None:
            raise _CliError("--kind pad needs --tensor")
        r = pad_euclidean(ser.read_tensor(args.tensor), args.k)
    elif kind == "random":
        r = random_tensor(_resolve_seed(args.seed), args.n)
    else:  # pragma: no cover - argparse restricts choices
        raise _CliError(f"unknown model kind {kind!r}")
    ser.write_tensor(args.out, r)
    return 0


def _cmd_check(args) -> int:
    r = ser.read_tensor(args.tensor)
    seed = _resolve_seed(args.seed)
    opts = MinimizeOpts(restarts=args.restarts, seed=seed, margin=args.margin)
    if args.condition == "quarter-pinch":
        ok, rep, kmax_rep = quarter_pinch_reports(r, opts)
        extra = {
            "kmax": -kmax_rep.min_value,
            "kmax_upper_bound": -kmax_rep.lower_bound,
            "restarts": rep.restarts + kmax_rep.restarts,
            "converged": rep.converged and kmax_rep.converged,
            "certified": rep.certified and kmax_rep.certified,
        }
    else:
        ok, rep = (check_nic if args.condition == "nic" else check_pic2)(r, opts)
        extra = {
            "restarts": rep.restarts,
            "grad_norm": rep.grad_norm,
            "converged": rep.converged,
            "certified": rep.certified,
        }
    report = {
        "condition": args.condition,
        "margin": opts.margin,
        "n": r.n,
        "seed": seed,
        "timestamp": _timestamp(),
        "decision": ok,
        "min_value": rep.min_value,
        "lower_bound": rep.lower_bound,
        "boundary": rep.boundary,
        "frame": rep.argmin_frame.vectors.tolist(),
        **extra,
    }
    sys.stdout.write(ser.dumps_json(report))
    return 0 if ok else 1


def _cmd_minimize(args) -> int:
    r = ser.read_tensor(args.tensor)
    seed = _resolve_seed(args.seed)
    opts = MinimizeOpts(restarts=args.restarts, seed=seed)
    objective = args.objective.replace("-", "_")
    weights = payload = None
    if objective == "lambda_mu":
        if args.lam is None or args.mu is None:
            raise _CliError("--objective lambda-mu needs --lambda and --mu")
        weights = Weights(args.lam, args.mu)
        payload = {"lam": args.lam, "mu": args.mu}
    elif args.lam is not None or args.mu is not None:
        raise _CliError(f"--lambda and --mu apply only to --objective lambda-mu, not {args.objective}")
    rep = minimize_frame(r, objective, opts, weights=weights)
    report = {
        "objective": args.objective,
        "min_value": rep.min_value,
        "lower_bound": rep.lower_bound,
        "certified": rep.certified,
        "frame": rep.argmin_frame.vectors.tolist(),
        "weights": payload,
        "restarts": rep.restarts,
        "iterations": rep.iterations,
        "grad_norm": rep.grad_norm,
        "converged": rep.converged,
        "n": r.n,
        "seed": seed,
        "timestamp": _timestamp(),
    }
    sys.stdout.write(ser.dumps_json(report))
    return 0


def identity_battery(suite: str, trials: int, seed: int) -> dict:
    """Run one of the identity batteries over random inputs.

    Dimensions cycle through 4..8; weights are sampled uniformly from
    [-1, 1]^2.  Returns a summary dict with the max residual and verdict.
    At least one trial is required, so that a pass always means something.
    """
    if suite not in IDENTITY_TOLS:
        raise _CliError(f"unknown identity suite {suite!r}")
    if trials < 1:
        raise _CliError(f"--trials must be at least 1, got {trials}")
    tol = IDENTITY_TOLS[suite]
    worst = 0.0
    for i in range(trials):
        n = 4 + (i % 5)
        r = random_tensor([seed, i, 0], n)
        f = random_frame([seed, i, 1], n)
        if suite == "decomposition":
            res = decomposition_residual(r, f)
        else:
            rng = np.random.default_rng([seed, i, 2])
            lam, mu = rng.uniform(-1.0, 1.0, size=2)
            w = Weights(float(lam), float(mu))
            if suite == "lift":
                res = lift_identity_residual(r, f, w)
            else:
                _, _, res = cyclic_sum_identity(r, f, w)
        worst = max(worst, res)
    return {
        "suite": suite,
        "trials": trials,
        "max_residual": worst,
        "tolerance": tol,
        "passed": bool(worst < tol),
        "seed": seed,
    }


def _cmd_identity(args) -> int:
    seed = _resolve_seed(args.seed)
    summary = identity_battery(args.suite, args.trials, seed)
    summary["timestamp"] = _timestamp()
    sys.stdout.write(ser.dumps_json(summary))
    return 0 if summary["passed"] else 1


def _cmd_flow(args) -> int:
    r = ser.read_tensor(args.tensor)
    seed = _resolve_seed(args.seed)
    opts = FlowOpts(
        dt=args.dt,
        ode_tol=None if args.fixed_step else FlowOpts.ode_tol,
        normalize=args.normalize,
        stride=args.stride,
        minimize=MinimizeOpts(restarts=args.restarts, seed=seed),
    )
    trace = integrate(r, args.t_end, opts)
    if args.out is None:
        sys.stdout.write(ser.trace_to_csv(trace))
    else:
        ser.write_trace(args.out, trace)
    return 0


def _cmd_report(args) -> int:
    trace = ser.read_trace(args.trace)
    rows = trace.rows
    summary = {
        "rows": len(rows),
        "t_first": rows[0].t,
        "t_last": rows[-1].t,
        "kmin_min": min(r.kmin for r in rows),
        "kmax_max": max(r.kmax for r in rows),
        "min_iso": min(r.min_iso for r in rows),
        "min_pic2": min(r.min_pic2 for r in rows),
        "scalar_first": rows[0].scalar,
        "scalar_last": rows[-1].scalar,
        "max_err_est": max(r.err_est for r in rows),
        "timestamp": _timestamp(),
    }
    sys.stdout.write(ser.dumps_json(summary))
    return 0


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser unchanged, and
    # rebuilding it on every in-process run churned the allocator enough to
    # raise resident memory by about 1.7 MB over the first ~1500 runs.
    parser = argparse.ArgumentParser(prog="curvlab", description="Curvature-operator laboratory.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="build a model tensor and write it as JSON")
    p.add_argument("--kind", required=True, choices=["sphere", "cpm", "product", "pad", "random"])
    p.add_argument("--n", type=int, default=4, help="dimension (sphere, random)")
    p.add_argument("--kappa", type=float, default=1.0, help="curvature scale (sphere)")
    p.add_argument("--m", type=int, default=2, help="complex dimension (cpm)")
    p.add_argument("--c", type=float, default=4.0, help="holomorphic curvature scale (cpm)")
    p.add_argument("--factor", action="append", help="factor tensor file (product, twice)")
    p.add_argument("--tensor", help="base tensor file (pad)")
    p.add_argument("--k", type=int, default=2, help="flat directions to append (pad)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output tensor file")
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("check", help="decide a curvature condition")
    p.add_argument("--condition", required=True, choices=["nic", "pic2", "quarter-pinch"])
    p.add_argument("--tensor", required=True)
    p.add_argument("--restarts", type=int, default=MinimizeOpts.restarts)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--margin", type=float, default=MinimizeOpts.margin)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("minimize", help="minimize a frame functional")
    p.add_argument("--objective", required=True, choices=["isotropic", "sectional", "lambda-mu"])
    p.add_argument("--tensor", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--restarts", type=int, default=MinimizeOpts.restarts)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("identity", help="run an identity battery on random inputs")
    p.add_argument("--suite", required=True, choices=["lift", "cyclic", "decomposition"])
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("flow", help="integrate the reaction ODE and write a trace CSV")
    p.add_argument("--tensor", required=True)
    p.add_argument("--t-end", dest="t_end", type=float, required=True)
    p.add_argument("--dt", type=float, default=FlowOpts.dt, help="largest step (every step with --fixed-step)")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--fixed-step", action="store_true", help="disable step-size control and use --dt exactly")
    p.add_argument("--out", default=None, help="trace CSV file (default stdout)")
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--restarts", type=int, default=FlowOpts.minimize.restarts, help="restarts per diagnostic row")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("report", help="summarize a trace CSV")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def run(argv: list[str]) -> int:
    """Execute one CLI invocation; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except RuntimeError as exc:  # FlowBlowupError among them
        print(f"curvlab: {exc}", file=sys.stderr)
        return 1
    except (_CliError, ValueError, OSError) as exc:
        print(f"curvlab: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
