"""Acceptance suite: one test per criterion, each printing a verdict line."""

import functools
import json
import time

import numpy as np
from scipy.linalg import expm

from curvlab.cli import identity_battery, run
from curvlab.conditions import (
    MinimizeOpts,
    frame_objective,
    holonomy_orbit_invariance,
    isotropic_curvature,
    minimize_frame,
    quarter_pinch_reports,
)
from curvlab.flow import FlowOpts, cone_margin_experiment, integrate, sphere_kappa
from curvlab.frames import Frame, random_block_rotation, random_frame, random_unitary
from curvlab.serialization import read_tensor, trace_from_csv, write_tensor
from curvlab.tensors import fubini_study, product, random_tensor, sphere


def _mixed_product_frame():
    e = np.eye(4)
    return Frame(n=4, vectors=np.array([e[0], e[1], e[2], e[3]]))


def _cp2_zero_frame():
    e = np.eye(4)
    return Frame(n=4, vectors=np.array([e[0], e[2], e[1], e[3]]))


def test_acceptance_01_lift_identity(acceptance):
    t0 = time.perf_counter()
    summary = identity_battery("lift", 1000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = summary["max_residual"] < 1e-12 and elapsed < 10.0
    acceptance(
        1,
        "lift identity battery (1000 random inputs, residual < 1e-12)",
        ok,
        f"max={summary['max_residual']:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_02_cyclic_sum_identity(acceptance):
    t0 = time.perf_counter()
    summary = identity_battery("cyclic", 1000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = summary["max_residual"] < 1e-11 and elapsed < 10.0
    acceptance(
        2,
        "cyclic-sum identity battery (1000 random inputs, residual < 1e-11)",
        ok,
        f"max={summary['max_residual']:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_03_decomposition_identity(acceptance):
    summary = identity_battery("decomposition", 200, seed=0)
    ok = summary["max_residual"] < 1e-10
    acceptance(
        3,
        "reaction decomposition identity (200 random pairs, residual < 1e-10)",
        ok,
        f"max={summary['max_residual']:.2e}",
    )


def test_acceptance_04_borderline_zero_sets(acceptance):
    cp2 = minimize_frame(fubini_study(2, 4.0), "isotropic", MinimizeOpts(restarts=64, seed=0))
    prod_val = isotropic_curvature(product(sphere(2, 1.0), sphere(2, 1.0)), _mixed_product_frame())
    sphere_dev = 0.0
    for n, kappa in ((4, 1.0), (5, 0.5), (6, 2.0)):
        rep = minimize_frame(sphere(n, kappa), "isotropic", MinimizeOpts(restarts=8, seed=0))
        sphere_dev = max(sphere_dev, abs(rep.min_value - 4.0 * kappa))
    ok = abs(cp2.min_value) <= 1e-6 and abs(prod_val) <= 1e-10 and sphere_dev <= 1e-8
    acceptance(
        4,
        "borderline zero sets (CP^2 minimum, product mixed frame, sphere 4*kappa)",
        ok,
        f"cp2={cp2.min_value:.2e}, product={prod_val:.2e}, sphere_dev={sphere_dev:.2e}",
    )


def test_acceptance_05_pinching_checker(acceptance):
    opts = MinimizeOpts(restarts=8, seed=0)
    ok_sphere, _, _ = quarter_pinch_reports(sphere(4, 1.0), opts)
    ok_prod, _, _ = quarter_pinch_reports(product(sphere(2, 1.0), sphere(2, 1.0)), opts)
    ok_cp2, kmin_rep, kmax_rep = quarter_pinch_reports(fubini_study(2, 4.0), opts)
    kmin, kmax = kmin_rep.min_value, -kmax_rep.min_value
    ok = (
        ok_sphere
        and not ok_prod
        and ok_cp2
        and abs(kmin - 1.0) <= 1e-6
        and abs(kmax - 4.0) <= 1e-6
    )
    acceptance(
        5,
        "pinching checker (sphere true, product false, CP^2 range (1, 4))",
        ok,
        f"cp2 range=({kmin:.8f}, {kmax:.8f})",
    )


def test_acceptance_06_holonomy_invariance(acceptance):
    prod = product(sphere(2, 1.0), sphere(2, 1.0))
    worst_prod = holonomy_orbit_invariance(
        prod, _mixed_product_frame(), functools.partial(random_block_rotation, dims=(2, 2)), samples=200, seed=0
    )
    fs = fubini_study(2, 4.0)
    worst_cp2 = holonomy_orbit_invariance(fs, _cp2_zero_frame(), functools.partial(random_unitary, m=2), samples=200, seed=0)

    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4))
    moved = Frame(n=4, vectors=_mixed_product_frame().vectors @ expm(a - a.T).T)
    control = abs(isotropic_curvature(prod, moved))

    ok = worst_prod < 1e-8 and worst_cp2 < 1e-8 and control > 0.1
    acceptance(
        6,
        "holonomy-orbit invariance at zero frames (200 samples, control moves off)",
        ok,
        f"cp2={worst_cp2:.2e}, product={worst_prod:.2e}, control={control:.2f}",
    )


def test_acceptance_07_ode_correctness(acceptance):
    light = MinimizeOpts(restarts=1, seed=0)
    trace = integrate(sphere(4, 1.0), 0.05, FlowOpts(dt=0.01, ode_tol=1e-9, stride=10**9, minimize=light))
    err_closed = abs(trace.final.array[0, 1, 0, 1] - sphere_kappa(4, 1.0, 0.05))

    errs = []
    for dt in (0.02, 0.01):
        t = integrate(sphere(4, 1.0), 0.08, FlowOpts(dt=dt, ode_tol=None, stride=10**9, minimize=light))
        errs.append(abs(t.final.array[0, 1, 0, 1] - sphere_kappa(4, 1.0, 0.08)))
    order = float(np.log2(errs[0] / errs[1]))

    ok = err_closed < 1e-8 and 3.7 <= order <= 4.3
    acceptance(
        7,
        "reaction ODE tracks the closed-form sphere solution at order four",
        ok,
        f"err={err_closed:.2e}, order={order:.2f}",
    )


def test_acceptance_08_cone_margins(acceptance):
    t0 = time.perf_counter()
    mopts = MinimizeOpts(restarts=6, seed=0)
    cases = (
        ("sphere", sphere(4, 1.0), 0.05),
        ("cp2", fubini_study(2, 4.0), 0.02),
        ("product", product(sphere(2, 1.0), sphere(2, 1.0)), 0.05),
    )
    worst = {}
    verdicts = []
    for name, r0, t_end in cases:
        res = cone_margin_experiment(r0, t_end, FlowOpts(dt=t_end / 5.0, minimize=mopts))
        worst[name] = res.worst_pic2
        verdicts.append(res.verdict)
    elapsed = time.perf_counter() - t0
    ok = all(verdicts) and elapsed < 120.0
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    acceptance(8, "cone margins stay nonnegative along model trajectories", ok, f"{detail}, {elapsed:.0f}s")


def test_acceptance_09_gradient_check(acceptance):
    worst = 0.0
    h = 1e-5
    for i in range(100):
        n = 4 + (i % 5)
        r = random_tensor([7, i], n)
        obj = frame_objective(r, "isotropic")
        v = random_frame([8, i], n).vectors.copy()
        _, g = obj.value_grad(v)
        num = np.zeros_like(g)
        for a in range(v.shape[0]):
            for b in range(v.shape[1]):
                vp = v.copy()
                vp[a, b] += h
                vm = v.copy()
                vm[a, b] -= h
                num[a, b] = (obj.value(vp) - obj.value(vm)) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(g))))
        worst = max(worst, float(np.max(np.abs(g - num))) / scale)
    ok = worst < 1e-5
    acceptance(9, "analytic frame gradients match central differences (100 points)", ok, f"max_rel={worst:.2e}")


def test_acceptance_10_cli_contracts(acceptance, tmp_path, capsys):
    checks = []

    s_path = tmp_path / "sphere.json"
    checks.append(run(["model", "--kind", "sphere", "--n", "4", "--kappa", "1.0", "--out", str(s_path)]) == 0)
    checks.append(np.array_equal(read_tensor(str(s_path)).comps, sphere(4, 1.0).comps))

    f1, f2 = tmp_path / "f1.json", tmp_path / "f2.json"
    write_tensor(str(f1), sphere(2, 1.0))
    write_tensor(str(f2), sphere(2, 1.0))
    p_path = tmp_path / "prod.json"
    checks.append(
        run(["model", "--kind", "product", "--factor", str(f1), "--factor", str(f2), "--out", str(p_path)]) == 0
    )
    c_path = tmp_path / "cp2.json"
    checks.append(run(["model", "--kind", "cpm", "--m", "2", "--c", "4.0", "--out", str(c_path)]) == 0)
    capsys.readouterr()

    argv = ["check", "--condition", "nic", "--tensor", str(s_path), "--restarts", "4", "--seed", "0"]
    checks.append(run(argv) == 0)
    first = capsys.readouterr().out
    report = json.loads(first)
    checks.append(report["decision"] is True and abs(report["min_value"] - 4.0) < 1e-6)
    checks.append(run(argv) == 0)
    second = capsys.readouterr().out
    strip = lambda text: [l for l in text.splitlines() if '"timestamp"' not in l]
    checks.append(strip(first) == strip(second))

    checks.append(run(["check", "--condition", "quarter-pinch", "--tensor", str(p_path), "--restarts", "8"]) == 1)
    checks.append(run(["check", "--condition", "pic2", "--tensor", str(c_path), "--restarts", "8"]) == 0)
    capsys.readouterr()

    checks.append(run(["minimize", "--objective", "isotropic", "--tensor", str(s_path), "--restarts", "4"]) == 0)
    report = json.loads(capsys.readouterr().out)
    checks.append(abs(report["min_value"] - 4.0) < 1e-6)

    checks.append(run(["identity", "--suite", "lift", "--trials", "50"]) == 0)
    capsys.readouterr()

    trace_path = tmp_path / "trace.csv"
    checks.append(
        run(["flow", "--tensor", str(s_path), "--t-end", "0.02", "--restarts", "2", "--out", str(trace_path)]) == 0
    )
    trace = trace_from_csv(trace_path.read_text())
    checks.append(run(["report", "--trace", str(trace_path)]) == 0)
    summary = json.loads(capsys.readouterr().out)
    checks.append(summary["rows"] == len(trace.rows))

    checks.append(run(["check"]) == 2)
    checks.append(run(["check", "--condition", "nic", "--tensor", str(tmp_path / "missing.json")]) == 2)
    capsys.readouterr()

    ok = all(checks)
    acceptance(10, "CLI round-trip and exit-code contracts", ok, f"{sum(checks)}/{len(checks)} checks")
