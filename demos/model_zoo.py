"""
Model zoo tour
==============

Builds the bundled model tensors and prints their basic invariants:
sectional curvature range, Ricci eigenvalues, scalar curvature.
"""

import numpy as np

from curvlab import (
    MinimizeOpts,
    fubini_study,
    pad_euclidean,
    product,
    quarter_pinch_reports,
    ricci,
    scalar_curvature,
    sphere,
)

opts = MinimizeOpts(restarts=8, seed=0)

zoo = [
    ("round sphere S^4, kappa=1", sphere(4, 1.0)),
    ("complex projective plane, c=4", fubini_study(2, 4.0)),
    ("S^2(1) x S^2(1)", product(sphere(2, 1.0), sphere(2, 1.0))),
    ("S^4 x R (one flat direction)", pad_euclidean(sphere(4, 1.0), 1)),
]

for name, r in zoo:
    ok, kmin_rep, kmax_rep = quarter_pinch_reports(r, opts)
    kmin, kmax = kmin_rep.min_value, -kmax_rep.min_value
    ric = np.linalg.eigvalsh(ricci(r))
    print(name)
    print(f"  dimension          n = {r.n}")
    print(f"  sectional range    [{kmin:.6f}, {kmax:.6f}]")
    print(f"  weakly 1/4-pinched {ok}")
    print(f"  Ricci eigenvalues  {np.round(ric, 6)}")
    print(f"  scalar curvature   {scalar_curvature(r):.6f}")
    print()
