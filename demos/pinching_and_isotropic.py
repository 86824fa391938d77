#!/usr/bin/env python3
"""Decide the curvature conditions on the model zoo.

For each model we run the frame minimizers behind the three checkers and
print the decision, the minimum value, and whether the model sits on the
boundary of the cone (a zero frame exists).
"""

from curvlab import (
    MinimizeOpts,
    check_nic,
    check_pic2,
    combine,
    fubini_study,
    product,
    quarter_pinch_reports,
    sphere,
)


def describe(name, r, opts):
    nic_ok, nic_rep = check_nic(r, opts)
    pic2_ok, pic2_rep = check_pic2(r, opts)
    qp_ok, kmin_rep, kmax_rep = quarter_pinch_reports(r, opts)
    kmin, kmax = kmin_rep.min_value, -kmax_rep.min_value
    print(name)
    print(f"  isotropic min        {nic_rep.min_value:+.3e}  nonneg={nic_ok}  boundary={nic_rep.boundary}")
    print(f"  padded isotropic min {pic2_rep.min_value:+.3e}  nonneg={pic2_ok}  boundary={pic2_rep.boundary}")
    print(f"  quarter pinching     K in [{kmin:.4f}, {kmax:.4f}]  holds={qp_ok}")
    print()


def main():
    opts = MinimizeOpts(restarts=16, seed=0)
    describe("sphere S^4", sphere(4, 1.0), opts)
    describe("CP^2 (boundary of the padded cone)", fubini_study(2, 4.0), opts)
    describe("S^2 x S^2 (boundary, not pinched)", product(sphere(2, 1.0), sphere(2, 1.0)), opts)
    describe("negatively curved sphere (violates everything)", sphere(4, -1.0), opts)
    # perturbing the sphere toward CP^2 keeps the padded condition
    mix = combine(1.0, sphere(4, 1.0), -0.5, fubini_study(2, 1.0))
    describe("sphere minus half a CP^2", mix, opts)


if __name__ == "__main__":
    main()
