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
from .flow import FlowBlowupError, FlowOpts, decomposition_residual, integrate
from .frames import Frame, random_frame
from .tensors import fubini_study, pad_euclidean, product, random_tensor, sphere

__all__ = ["run", "main", "identity_battery"]

IDENTITY_TOLS = {"lift": 1e-12, "cyclic": 1e-11, "decomposition": 1e-10}


class _CliError(Exception):
    """Usage-level error: reported on stderr, exit code 2."""


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("CURVLAB_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise _CliError(f"CURVLAB_SEED must be an integer, got {env!r}") from None


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _frame_payload(f: Frame) -> list[list[float]]:
    return [[float(x) for x in row] for row in f.vectors]


def _weights_payload(w: Weights | None):
    if w is None:
        return None
    return {"lam": w.lam, "mu": w.mu}


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
    report = {
        "condition": args.condition,
        "margin": opts.margin,
        "n": r.n,
        "restarts": opts.restarts,
        "seed": seed,
        "timestamp": _timestamp(),
    }
    if args.condition == "nic":
        ok, rep = check_nic(r, opts)
    elif args.condition == "pic2":
        ok, rep = check_pic2(r, opts)
    else:
        ok, kmin_rep, kmax_rep = quarter_pinch_reports(r, opts)
        report.update(
            {
                "decision": ok,
                "min_value": kmin_rep.min_value,
                "kmax": -kmax_rep.min_value,
                "boundary": kmin_rep.boundary,
                "frame": _frame_payload(kmin_rep.argmin_frame),
                "weights": None,
                "restarts": kmin_rep.restarts + kmax_rep.restarts,
                "converged": kmin_rep.converged and kmax_rep.converged,
            }
        )
        sys.stdout.write(ser.dumps_json(report))
        return 0 if ok else 1
    report.update(
        {
            "decision": ok,
            "min_value": rep.min_value,
            "boundary": rep.boundary,
            "frame": _frame_payload(rep.argmin_frame),
            "weights": _weights_payload(rep.argmin_weights),
            "restarts": rep.restarts,
            "grad_norm": rep.grad_norm,
            "converged": rep.converged,
        }
    )
    sys.stdout.write(ser.dumps_json(report))
    return 0 if ok else 1


def _cmd_minimize(args) -> int:
    r = ser.read_tensor(args.tensor)
    seed = _resolve_seed(args.seed)
    opts = MinimizeOpts(restarts=args.restarts, seed=seed)
    objective = args.objective.replace("-", "_")
    weights = None
    if objective == "lambda_mu":
        if args.lam is None or args.mu is None:
            raise _CliError("--objective lambda-mu needs --lambda and --mu")
        weights = Weights(args.lam, args.mu)
    rep = minimize_frame(r, objective, opts, weights=weights)
    report = {
        "objective": args.objective,
        "min_value": rep.min_value,
        "frame": _frame_payload(rep.argmin_frame),
        "weights": _weights_payload(rep.argmin_weights),
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
    """
    if suite not in IDENTITY_TOLS:
        raise _CliError(f"unknown identity suite {suite!r}")
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
    kwargs = dict(
        dt=args.dt,
        normalize=args.normalize,
        stride=args.stride,
        minimize=MinimizeOpts(restarts=args.restarts, seed=seed),
    )
    if args.fixed_step:
        kwargs["ode_tol"] = None
    opts = FlowOpts(**kwargs)
    trace = integrate(r, args.t_end, opts)
    text = ser.trace_to_csv(trace)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
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


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--margin", type=float, default=1e-7)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("minimize", help="minimize a frame functional")
    p.add_argument("--objective", required=True, choices=["isotropic", "sectional", "lambda-mu"])
    p.add_argument("--tensor", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--restarts", type=int, default=64)
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
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--fixed-step", action="store_true", help="disable step halving and use --dt exactly")
    p.add_argument("--out", default=None, help="trace CSV file (default stdout)")
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--restarts", type=int, default=8, help="restarts per diagnostic row")
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
    except (FlowBlowupError, RuntimeError) as exc:
        print(f"curvlab: {exc}", file=sys.stderr)
        return 1
    except (_CliError, ValueError, OSError) as exc:
        print(f"curvlab: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
