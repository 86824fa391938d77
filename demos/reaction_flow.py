#!/usr/bin/env python3
"""Integrate the curvature reaction ODE dR/dt = Q(R) on model data.

The round sphere has the closed-form solution
kappa(t) = kappa0 / (1 - 2 (n-1) kappa0 t), which the adaptive
integrator should track to high accuracy.  The cone-margin experiment
then shows the padded nonnegativity condition surviving along the
trajectories of the boundary models.
"""

from curvlab import (
    FlowOpts,
    MinimizeOpts,
    cone_margin_experiment,
    fubini_study,
    integrate,
    product,
    sphere,
    sphere_kappa,
)

light = MinimizeOpts(restarts=4, seed=0)


def sphere_accuracy():
    print("sphere trajectory vs closed form (n=4, kappa0=1)")
    trace = integrate(sphere(4, 1.0), 0.1, FlowOpts(dt=0.01, minimize=light))
    for row in trace.rows[:: max(1, len(trace.rows) // 5)]:
        exact = sphere_kappa(4, 1.0, row.t)
        print(f"  t={row.t:5.3f}  kmin={row.kmin:.8f}  exact={exact:.8f}  err_est={row.err_est:.1e}")
    final = trace.final.operator[0, 0]  # R_0101
    print(f"  final |kappa - exact| = {abs(final - sphere_kappa(4, 1.0, 0.1)):.2e}")
    print()


def cone_margins():
    print("padded-cone margin along trajectories (min over frames per row)")
    cases = [
        ("sphere S^4", sphere(4, 1.0), 0.05),
        ("CP^2", fubini_study(2, 4.0), 0.02),
        ("S^2 x S^2", product(sphere(2, 1.0), sphere(2, 1.0)), 0.05),
    ]
    for name, r0, t_end in cases:
        res = cone_margin_experiment(r0, t_end, FlowOpts(dt=t_end / 5.0, minimize=light))
        print(f"  {name:12s} verdict={res.verdict}  worst margin={res.worst_pic2:+.2e}")
    print()
    print("the two boundary models ride the edge of the cone: the margin")
    print("stays at numerical zero instead of drifting negative")


if __name__ == "__main__":
    sphere_accuracy()
    cone_margins()
