import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from curvlab import blas, conditions, flow, lambda2
from curvlab.conditions import MinimizeOpts, isotropic_curvature
from curvlab.flow import (
    FlowBlowupError,
    FlowOpts,
    FlowTrace,
    TraceRow,
    cone_margin_experiment,
    decomposition_residual,
    integrate,
    quadratic_reaction,
    sphere_kappa,
)
from curvlab.frames import complete_basis, random_frame
from curvlab.serialization import write_tensor
from curvlab.stiefel import descend
from curvlab.tensors import (
    CurvatureTensor,
    combine,
    fubini_study,
    product,
    project_curvature,
    random_tensor,
    sphere,
    symmetry_residuals,
)

LIGHT = MinimizeOpts(restarts=2, seed=0)


def _zero(n):
    return CurvatureTensor(n=n, comps=np.zeros(n**4))


def test_reaction_zero_and_sphere_regression():
    q = quadratic_reaction(_zero(4))
    assert q.max_abs() == 0.0
    # frozen regression: Q(sphere(n, kappa)) = sphere(n, 2 (n-1) kappa^2)
    for n, kappa in ((3, 0.8), (4, 1.0), (5, 0.5), (6, -1.0), (7, 1.3), (8, 0.9), (9, 1.0), (10, -0.6), (11, 1.1), (12, 0.7)):
        q = quadratic_reaction(sphere(n, kappa))
        expect = sphere(n, 2.0 * (n - 1) * kappa**2)
        assert np.max(np.abs(q.comps - expect.comps)) < 1e-12
    q4 = quadratic_reaction(sphere(4, 1.0))
    assert q4.array[0, 1, 0, 1] == pytest.approx(6.0, abs=1e-13)  # c(4) = 6


def _reaction_oracle(r4):
    # The index formula of Q on the dense array, one einsum per term.
    def term(spec):
        return np.einsum(spec, r4, r4, optimize=True)

    return term("ijpq,klpq->ijkl") + 2.0 * (term("ipkq,jplq->ijkl") - term("iplq,jpkq->ijkl"))


def test_reaction_kernel_matches_index_formula():
    for n in range(2, 17):
        r = random_tensor([n, 6], n)
        expect = _reaction_oracle(r.array)
        scale = np.abs(expect).max()
        raw = lambda2.reaction(lambda2.operator(r.array))
        assert raw.shape == (n * (n - 1) // 2,) * 2
        assert np.abs(raw - lambda2.operator(expect)).max() <= 1e-13 * scale
        assert np.abs(quadratic_reaction(r).array - expect).max() <= 1e-13 * scale


def test_lambda2_round_trip_is_exact():
    rng = np.random.default_rng(11)
    for n in range(2, 13):
        big = n * (n - 1) // 2
        m = rng.standard_normal((big, big))
        full = lambda2.expand(m, n)
        assert np.array_equal(lambda2.operator(full), m)
        assert np.array_equal(full, -full.transpose(1, 0, 2, 3))
        assert np.array_equal(full, -full.transpose(0, 1, 3, 2))
        r = sphere(n, 0.7)
        assert np.array_equal(lambda2.expand(lambda2.operator(r.array), n), r.array)


def test_reaction_preserves_symmetry_class():
    for trial in range(100):
        n = 4 + trial % 5
        r = random_tensor(trial, n)
        q = quadratic_reaction(r)
        again = project_curvature(q.array, n)
        assert np.max(np.abs(again.comps - q.comps)) < 1e-10


def _r2_minus_sharp(r):
    # R^2 - R# is 4 M M - Q, projected, as the R^2 term of the raw reaction
    # is 2 M M
    m = r.operator
    return CurvatureTensor.from_operator(r.n, lambda2.project(4.0 * m @ m - quadratic_reaction(r).operator))


def _tangency(r, seed, reaction=quadratic_reaction):
    """Shift R along the sphere onto the NIC boundary, R_b = R - (nu / 4)
    S^4 with nu the multistart isotropic minimum at the frame F, and return
    the isotropic value of reaction(R_b) at F over max(1, its max |entry|)."""
    rep = conditions.minimize_frame(r, "isotropic", MinimizeOpts(restarts=16, seed=seed))
    assert rep.certified  # the Micallef-Moore bound is exact at n = 4, so nu is the minimum
    q = reaction(combine(1.0, r, -rep.min_value / 4.0, sphere(4, 1.0)))
    return isotropic_curvature(q, rep.argmin_frame) / max(1.0, np.abs(q.operator).max())


def test_reaction_is_inward_on_the_nic_boundary_at_n4():
    # Hamilton: at n = 4 the ODE dR/dt = Q(R) preserves NIC, so at a null
    # frame of a tensor on the boundary Q's isotropic value is nonnegative;
    # R^2 - R# is not inward, and fails on some of the same tensors
    s4, cp2 = sphere(4, 1.0), fubini_study(2, 4.0)
    zoo = [s4, cp2, product(sphere(2, 1.0), sphere(2, 1.0)), combine(1.0, s4, 0.3, cp2)]
    cases = [(random_tensor([i, 4], 4), i) for i in range(200)] + [(r, 0) for r in zoo]
    assert all(_tangency(r, seed) >= -1e-9 for r, seed in cases)
    assert any(_tangency(r, seed, _r2_minus_sharp) < -1e-9 for r, seed in cases)


def _sums_oracle(r, frame):
    # Naive translation of the three displayed block sums: an einsum change
    # of basis, then plain Python loops over (p, q).
    b = complete_basis(frame)
    n = r.n
    s = np.einsum("ijkl,ai,bj,ck,dl->abcd", r.array, b, b, b, b)

    def summand(p, q):
        return (
            (s[0, p, 0, q] + s[1, p, 1, q]) * (s[2, p, 2, q] + s[3, p, 3, q])
            - s[0, 1, p, q] * s[2, 3, p, q]
            - (s[0, p, 2, q] + s[1, p, 3, q]) * (s[2, p, 0, q] + s[3, p, 1, q])
            - (s[0, p, 3, q] - s[1, p, 2, q]) * (s[3, p, 0, q] - s[2, p, 1, q])
        )

    i1 = sum(summand(p, q) for p in range(4) for q in range(4))
    i2 = sum(summand(p, q) for p in range(4) for q in range(4, n))
    i3 = sum(summand(p, q) for p in range(4, n) for q in range(4, n))
    return i1, i2, i3


def _frame_block_sums(r, frame):
    return flow._block_sums(flow._frame_components(r, frame))


def test_decomposition_sums_against_loop_oracle():
    # The identity weights I1 and I3 both by 2, so the residual battery
    # alone would not catch a swap of the two blocks.
    for seed in range(5):
        r = random_tensor(seed, 6)
        f = random_frame(seed, 6)
        got = _frame_block_sums(r, f)
        expect = _sums_oracle(r, f)
        for g, e in zip(got, expect):
            assert abs(g - e) < 1e-12


def test_decomposition_sums_edge_cases():
    f = random_frame(0, 4)
    i1, i2, i3 = _frame_block_sums(sphere(4, 1.0), f)
    assert i2 == 0.0 and i3 == 0.0  # empty index ranges at n = 4
    assert i1 == pytest.approx(8.0, abs=1e-12)
    assert _frame_block_sums(_zero(5), random_frame(0, 5)) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="tensor n=5, frame n=4"):
        decomposition_residual(sphere(5, 1.0), random_frame(0, 4))


def test_decomposition_identity_battery():
    worst = 0.0
    for i in range(60):
        n = 4 + i % 5
        r = random_tensor([i, 4], n)
        f = random_frame([i, 5], n)
        worst = max(worst, decomposition_residual(r, f))
    assert worst < 1e-10


def test_decomposition_identity_sphere():
    f = random_frame(3, 4)
    res = decomposition_residual(sphere(4, 1.0), f)
    assert res < 1e-12
    # both sides strictly positive: the frame combination of Q is 4 * 6
    val = isotropic_curvature(quadratic_reaction(sphere(4, 1.0)), f)
    assert val == pytest.approx(24.0, abs=1e-11)
    assert decomposition_residual(_zero(4), f) == 0.0


def test_integrate_sphere_matches_closed_form():
    opts = FlowOpts(dt=0.01, ode_tol=1e-9, stride=10**9, minimize=LIGHT)
    trace = integrate(sphere(4, 1.0), 0.05, opts)
    k = trace.final.array[0, 1, 0, 1]
    assert abs(k - sphere_kappa(4, 1.0, 0.05)) < 1e-8
    assert trace.rows[0].t == 0.0
    assert trace.rows[-1].t == pytest.approx(0.05)


def test_row_tensors_are_exact_on_the_pair_symmetries(monkeypatch):
    tensors = []
    row = flow._Diagnostics.row

    def keep(self, t, r, dt, err):
        tensors.append(r)
        return row(self, t, r, dt, err)

    monkeypatch.setattr(flow._Diagnostics, "row", keep)
    r0 = CurvatureTensor(n=6, comps=random_tensor(4, 6).comps * 0.1)
    trace = integrate(r0, 0.05, FlowOpts(dt=0.01, minimize=LIGHT))
    assert len(tensors) == len(trace.rows) >= 6 and tensors[-1] is trace.final
    for r in tensors[1:]:
        anti, pair, bianchi = symmetry_residuals(r.array)
        assert anti == 0.0 and pair == 0.0
        assert bianchi < 1e-15


def _counting_reaction(monkeypatch) -> list:
    # records the argument of every Q evaluation of the integrator
    args = []
    raw = flow._reaction_raw

    def counting(y):
        args.append(y)
        return raw(y)

    monkeypatch.setattr(flow, "_reaction_raw", counting)
    return args


def test_integrate_shares_first_stage(monkeypatch):
    # k5 = Q(y_{n+1}) of the error estimate is the next step's k1, so three
    # steps cost the first k1 and 4 evaluations each: 1 + 3 * 4 = 13
    calls = _counting_reaction(monkeypatch)
    trace = integrate(sphere(4, 1.0), 0.03, FlowOpts(dt=0.01, ode_tol=None, stride=10**9, minimize=LIGHT))
    assert len(calls) == trace.q_evals == 1 + 3 * 4


def test_step_size_is_kept_between_steps(monkeypatch):
    # CP^2 (c = 4) needs steps well below dt = 0.01; restarting each step at
    # dt and halving down made 1326 Q evaluations here, Richardson halving
    # with a kept step 256 at an error of 1.3e-7
    calls = _counting_reaction(monkeypatch)
    accepted = []
    growth = flow._growth
    monkeypatch.setattr(flow, "_growth", lambda err, tol: accepted.append(err) or growth(err, tol))
    trace = integrate(fubini_study(2, 4.0), 0.05, FlowOpts())
    assert trace.q_evals == len(calls) <= 470
    assert trace.q_evals == 4 * (len(accepted) + trace.halvings) + 1
    assert trace.rows[-1].t == 0.05
    assert all(row.dt <= 0.01 for row in trace.rows)
    monkeypatch.undo()
    ref = integrate(fubini_study(2, 4.0), 0.05, FlowOpts(ode_tol=1e-12, stride=10**9, minimize=LIGHT))
    assert np.abs(trace.final.operator - ref.final.operator).max() < 1e-8


def test_err_est_is_in_the_unit_of_ode_tol():
    # CP^2 (c = 4) grows to max |R| of about 100 by t = 0.08, where the
    # absolute estimate of an accepted step exceeds ode_tol; the row
    # reports it over max(1, max |y|), the scale its tolerance had
    opts = FlowOpts(stride=20)
    trace = integrate(fubini_study(2, 4.0), 0.08, opts)
    assert trace.final.max_abs() > 10.0
    assert all(row.err_est <= opts.ode_tol for row in trace.rows)
    assert max(row.err_est for row in trace.rows) > 0.0


def test_no_sliver_step_before_t_end(monkeypatch):
    # with every step accepted at dt, a row at 0.03 would leave 1e-4
    # before t_end; it gives way to the t_end row, and the last two steps
    # share what is left, so no step is shorter than half the controller's
    steps = []
    toward = flow._step_toward
    monkeypatch.setattr(flow, "_step_toward", lambda left, h, near: steps.append((toward(left, h, near), h)) or steps[-1][0])
    opts = FlowOpts(dt=0.01, ode_tol=1.0, minimize=LIGHT)
    trace = integrate(sphere(4, 1.0), 0.0301, opts)
    assert [row.t for row in trace.rows] == [0.0, 0.01, 0.02, 0.0301]
    assert [step for step, _ in steps] == pytest.approx([0.01, 0.01, 0.00505, 0.00505], rel=1e-12)
    assert all(step >= 0.5 * h for step, h in steps)
    assert [row.dt for row in trace.rows[1:]] == pytest.approx([0.01, 0.01, 0.00505], rel=1e-12)
    # the fixed-step path keeps dt, a row after every step, and ends with
    # the short step
    fixed = integrate(sphere(4, 1.0), 0.0301, FlowOpts(dt=0.01, ode_tol=None, minimize=LIGHT))
    assert [row.t for row in fixed.rows] == [0.0, 0.01, 0.02, 0.03, 0.0301]
    assert [row.dt for row in fixed.rows[1:]] == pytest.approx([0.01, 0.01, 0.01, 0.0001])
    assert fixed.halvings == 0


@pytest.mark.parametrize("ode_tol", [1e-9, None])
def test_rows_lie_on_the_time_grid(ode_tol):
    # S^4 to 0.05 at dt 0.01 takes steps near 1e-3 at the default
    # tolerance; its rows are still the six grid times
    trace = integrate(sphere(4, 1.0), 0.05, FlowOpts(dt=0.01, ode_tol=ode_tol, minimize=LIGHT))
    assert [row.t for row in trace.rows] == [j * 0.01 for j in range(6)]
    # CP^2 (c = 4) is error-limited far below dt; rows every 3 * dt, then
    # t_end, 2e-3 after the last grid time
    trace = integrate(fubini_study(2, 4.0), 0.05, FlowOpts(dt=0.004, ode_tol=ode_tol, stride=3, minimize=LIGHT))
    assert [row.t for row in trace.rows] == [j * 3 * 0.004 for j in range(5)] + [0.05]
    assert all(row.dt < 0.004 for row in trace.rows[1:]) == (ode_tol is not None)
    # 11 * 0.03 rounds to 4e-17 below 0.33: that grid time is t_end's row
    trace = integrate(sphere(4, 0.1), 0.33, FlowOpts(dt=0.03, ode_tol=ode_tol, minimize=LIGHT))
    assert [row.t for row in trace.rows] == [j * 0.03 for j in range(11)] + [0.33]
    # far from 0 a grid difference rounds by more than 1e-15, which must
    # not split a step of dt in two
    trace = integrate(_zero(4), 100.0, FlowOpts(dt=0.7, ode_tol=ode_tol, minimize=LIGHT))
    assert [row.t for row in trace.rows] == [j * 0.7 for j in range(143)] + [100.0]
    assert [row.dt for row in trace.rows[1:]] == pytest.approx([0.7] * 142 + [0.6])


def _plain_rk4(r, dt, steps, normalize=False):
    # Classical RK4 on the operator with a fresh k1 every step, rescaled to
    # the initial scalar curvature after each step if ``normalize``.
    y = r.operator
    scalar0 = np.trace(y)
    for _ in range(steps):
        k1 = lambda2.reaction(y)
        k2 = lambda2.reaction(y + 0.5 * dt * k1)
        k3 = lambda2.reaction(y + 0.5 * dt * k2)
        k4 = lambda2.reaction(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if normalize:
            y = y * (scalar0 / np.trace(y))
    return lambda2.project(y)


def test_fixed_step_is_a_plain_rk4_loop():
    r = combine(1.0, fubini_study(2, 1.0), 0.3, random_tensor(5, 4))
    trace = integrate(r, 0.08, FlowOpts(dt=0.01, ode_tol=None, stride=3, minimize=LIGHT))
    assert np.array_equal(trace.final.operator, _plain_rk4(r, 0.01, 8))


def test_normalize_rescales_the_first_stage(monkeypatch):
    # after a rescale of y by c, k1 is c^2 k5 (Q is homogeneous of degree
    # 2): no Q beyond the shared first stage, and the result is a plain
    # normalized RK4 loop up to round-off
    r = combine(1.0, fubini_study(2, 1.0), 0.3, random_tensor(5, 4))
    calls = _counting_reaction(monkeypatch)
    trace = integrate(r, 0.04, FlowOpts(dt=0.01, ode_tol=None, normalize=True, minimize=LIGHT))
    assert trace.q_evals == len(calls) == 1 + 4 * 4
    plain = _plain_rk4(r, 0.01, 4, normalize=True)
    assert np.max(np.abs(trace.final.operator - plain)) <= 1e-14 * np.max(np.abs(plain))


def test_embedded_weights_are_third_order():
    # RK4 with the FSAL stage k5 = Q(y_{n+1}): the weights
    # (1/6, 1/3, 1/3, 0, 1/6) meet the four third-order conditions, and the
    # row's err_est is the difference of the two solutions
    f = Fraction
    a = [[0] * 5, [f(1, 2), 0, 0, 0, 0], [0, f(1, 2), 0, 0, 0], [0, 0, 1, 0, 0], [f(1, 6), f(1, 3), f(1, 3), f(1, 6), 0]]
    c = [sum(row) for row in a]
    b3 = [f(1, 6), f(1, 3), f(1, 3), 0, f(1, 6)]
    assert sum(b3) == 1
    assert sum(b * ci for b, ci in zip(b3, c)) == f(1, 2)
    assert sum(b * ci**2 for b, ci in zip(b3, c)) == f(1, 3)
    assert sum(b3[i] * a[i][j] * c[j] for i in range(5) for j in range(5)) == f(1, 6)
    r = CurvatureTensor(n=5, comps=random_tensor(8, 5).comps * 0.5)
    h = 0.01
    y = r.operator
    k = []
    for row in a:
        k.append(lambda2.reaction(y + h * sum(float(w) * kj for w, kj in zip(row, k))))
    b4 = [f(1, 6), f(1, 3), f(1, 3), f(1, 6), 0]
    diff = h * sum(float(p - q) * kj for p, q, kj in zip(b4, b3, k))
    trace = integrate(r, h, FlowOpts(dt=h, ode_tol=None, minimize=LIGHT))
    scale = max(1.0, r.max_abs())
    assert trace.rows[1].err_est == pytest.approx(np.abs(diff).max() / scale, rel=1e-10)


def test_integrator_order_is_four():
    errs = []
    for dt in (0.02, 0.01):
        opts = FlowOpts(dt=dt, ode_tol=None, stride=10**9, minimize=MinimizeOpts(restarts=1, seed=0))
        trace = integrate(sphere(4, 1.0), 0.08, opts)
        k = trace.final.array[0, 1, 0, 1]
        errs.append(abs(k - sphere_kappa(4, 1.0, 0.08)))
    order = np.log2(errs[0] / errs[1])
    assert 3.7 <= order <= 4.3


def test_constant_curvature_ray_invariant():
    opts = FlowOpts(dt=0.01, ode_tol=1e-9, stride=10**9, minimize=LIGHT)
    trace = integrate(sphere(5, 0.8), 0.05, opts)
    r_end = trace.final
    kappa_hat = r_end.array[0, 1, 0, 1]
    drift = np.max(np.abs(r_end.comps - sphere(5, kappa_hat).comps))
    assert drift < 1e-9


def test_normalized_sphere_is_fixed():
    opts = FlowOpts(dt=0.01, normalize=True, stride=2, minimize=LIGHT)
    trace = integrate(sphere(4, 1.0), 0.06, opts)
    assert np.max(np.abs(trace.final.comps - sphere(4, 1.0).comps)) < 1e-9
    for row in trace.rows:
        assert row.kmin == pytest.approx(1.0, abs=1e-9)
        assert row.kmax == pytest.approx(1.0, abs=1e-9)
        assert row.min_iso == pytest.approx(4.0, abs=1e-9)
        assert row.scalar == pytest.approx(12.0, abs=1e-9)


def test_normalize_rejects_scalar_flat():
    with pytest.raises(ValueError, match="normalize"):
        integrate(_zero(4), 0.01, FlowOpts(dt=0.01, normalize=True, minimize=LIGHT))
    # the scalar curvature of S^2 x S^2(-1.01) changes sign within the first step
    with pytest.raises(ValueError, match="normalization failed at t = 0.005"):
        integrate(product(sphere(2, 1.0), sphere(2, -1.01)), 0.1, FlowOpts(dt=0.01, normalize=True, minimize=LIGHT))


def test_zero_is_fixed_point():
    opts = FlowOpts(dt=0.01, stride=10**9, minimize=LIGHT)
    trace = integrate(_zero(4), 0.03, opts)
    assert trace.final.max_abs() == 0.0
    assert all(row.min_iso == 0.0 for row in trace.rows)


def test_blowup_guard():
    opts = FlowOpts(dt=0.02, ode_tol=None, stride=10**9, minimize=MinimizeOpts(restarts=1, seed=0))
    with pytest.raises(FlowBlowupError) as err:
        integrate(sphere(4, 1.0), 0.5, opts)
    assert err.value.t < 0.5


def test_blowup_guard_on_a_non_finite_step():
    # one fixed step of S^4 at curvature 1e100 overflows to non-finite
    # entries, which are a blow-up of size inf at the end of that step
    opts = FlowOpts(dt=1.0, ode_tol=None, stride=10**9, minimize=MinimizeOpts(restarts=1))
    with pytest.raises(FlowBlowupError) as err:
        integrate(sphere(4, 1e100), 1.0, opts)
    assert err.value.t == 1.0 and err.value.size == np.inf and err.value.cap == flow.BLOWUP_CAP


def test_step_halving_underflow(monkeypatch):
    # With the default MAX_HALVINGS this run takes minutes: once the steps
    # are small enough, error estimates of exactly 0 pass the tolerance and
    # it creeps on without underflowing.
    monkeypatch.setattr(flow, "MAX_HALVINGS", 3)
    opts = FlowOpts(dt=0.05, ode_tol=1e-30, stride=10**9, minimize=MinimizeOpts(restarts=1, seed=0))
    with pytest.raises(RuntimeError, match="underflow"):
        integrate(sphere(4, 1.0), 0.5, opts)


def test_trace_validation():
    row = TraceRow(t=0.0, kmin=1.0, kmax=1.0, min_iso=4.0, min_pic2=0.0, scalar=12.0, dt=0.0, err_est=0.0)
    later = TraceRow(t=-1.0, kmin=1.0, kmax=1.0, min_iso=4.0, min_pic2=0.0, scalar=12.0, dt=0.0, err_est=0.0)
    with pytest.raises(ValueError, match="increasing"):
        FlowTrace(rows=(row, later))
    with pytest.raises(ValueError, match="at least one"):
        FlowTrace(rows=())
    bad = TraceRow(t=1.0, kmin=np.nan, kmax=1.0, min_iso=4.0, min_pic2=0.0, scalar=12.0, dt=0.0, err_est=0.0)
    with pytest.raises(ValueError, match="finite"):
        FlowTrace(rows=(row, bad))


def test_cone_margin_experiment():
    opts = FlowOpts(dt=0.01, stride=2, minimize=MinimizeOpts(restarts=4, seed=0))
    result = cone_margin_experiment(product(sphere(2, 1.0), sphere(2, 1.0)), 0.04, opts)
    assert result.verdict
    assert result.worst_pic2 >= -1e-7
    # the explicit zero frame keeps u essentially zero along the ray
    assert all(abs(row.min_iso) < 1e-8 for row in result.trace.rows)

    with pytest.raises(ValueError, match="fails the padded"):
        cone_margin_experiment(sphere(4, -1.0), 0.01, opts)


def test_sphere_kappa_pole():
    with pytest.raises(ValueError, match="blows up"):
        sphere_kappa(4, 1.0, 1.0)
    assert sphere_kappa(4, 1.0, 0.0) == 1.0


def test_flow_opts_validation():
    with pytest.raises(ValueError):
        FlowOpts(dt=0.0)
    for tol in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="ode_tol"):
            FlowOpts(ode_tol=tol)
    with pytest.raises(ValueError):
        FlowOpts(stride=0)
    with pytest.raises(ValueError):
        integrate(sphere(4, 1.0), -1.0, FlowOpts(minimize=LIGHT))


def test_single_threaded_pins_and_restores():
    controls = blas.thread_controls()
    if controls is None:
        pytest.skip("numpy's bundled OpenBLAS exports no thread control")
    get, set_ = controls
    inner = blas.single_threaded(get)
    outer = blas.single_threaded(lambda: (get(), inner(), get()))
    before = get()
    set_(2)
    try:
        assert outer() == (1, 1, 1)
        assert get() == 2
    finally:
        set_(before)


def test_entry_points_run_on_one_blas_thread(monkeypatch):
    # with the process on two BLAS threads, every descent and every Q of
    # the checkers, the minimizer, Q itself and the flow runs on one, and
    # the two threads are back after each call
    controls = blas.thread_controls()
    if controls is None:
        pytest.skip("numpy's bundled OpenBLAS exports no thread control")
    get, set_ = controls
    seen = []

    def recording(fn):
        def wrapped(*args, **kwargs):
            seen.append(get())
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(conditions, "descend", recording(conditions.descend))
    monkeypatch.setattr(flow, "_reaction_raw", recording(flow._reaction_raw))
    r = random_tensor(171, 5)
    calls = {
        "check_nic": lambda: conditions.check_nic(r, LIGHT),
        "check_pic2": lambda: conditions.check_pic2(r, LIGHT),
        "quarter_pinch_reports": lambda: conditions.quarter_pinch_reports(r, LIGHT),
        "minimize_frame": lambda: conditions.minimize_frame(r, "sectional", LIGHT),
        "quadratic_reaction": lambda: quadratic_reaction(r),
        "integrate": lambda: integrate(r, 0.02, FlowOpts(dt=0.01, minimize=LIGHT)),
    }
    before = get()
    set_(2)
    try:
        for name, call in calls.items():
            seen.clear()
            call()
            assert seen and set(seen) == {1}, name
            assert get() == 2, name
    finally:
        set_(before)


def test_missing_thread_control_is_reported(monkeypatch, capsys):
    monkeypatch.setattr(blas, "_LIB_DIRS", ("no-such-dir",))
    assert blas.thread_controls.__wrapped__() is None
    assert "cannot pin BLAS threads" in capsys.readouterr().err


def _scaled_random(tmp_path, n: int) -> str:
    r = random_tensor([20070, n], n)
    path = tmp_path / "r.json"
    write_tensor(str(path), CurvatureTensor(n=n, comps=r.comps * (0.1 / r.max_abs())))
    return str(path)


def _under_threads(argv: list[str], threads: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    return subprocess.run([sys.executable, "-m", "curvlab", *argv], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("n", [10, 14])
def test_flow_bytes_do_not_depend_on_blas_threads(tmp_path, n):
    # Unpinned, n = 14 prints different last digits under 1 and 2 threads:
    # its N x N products are past OpenBLAS's threading threshold.
    path = _scaled_random(tmp_path, n)
    traces = []
    for threads in ("1", "2"):
        out = tmp_path / f"trace{threads}.csv"
        argv = ["flow", "--tensor", path, "--t-end", "0.1", "--stride", "5", "--restarts", "4", "--seed", "3", "--out", str(out)]
        proc = _under_threads(argv, threads)
        assert proc.returncode == 0, proc.stderr
        traces.append(out.read_bytes())
    assert traces[0] == traces[1]


def test_quarter_pinch_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the Kmin/Kmax stack and its eigenvalue bounds run pinned as well
    argv = ["check", "--condition", "quarter-pinch", "--tensor", _scaled_random(tmp_path, 14), "--restarts", "16", "--seed", "3"]
    reports = []
    for threads in ("1", "2"):
        proc = _under_threads(argv, threads)
        assert proc.returncode == 1, proc.stderr  # a random tensor is not pinched
        reports.append([line for line in proc.stdout.splitlines() if '"timestamp"' not in line])
    assert reports[0] == reports[1]


def test_trace_row_makes_two_descents(monkeypatch):
    # Kmin/Kmax as one signed stack on R, NIC/PIC2 as one stack on the
    # padded tensor
    sizes = []

    def counting(obj, v0, *args):
        sizes.append(v0.shape)
        return descend(obj, v0, *args)

    monkeypatch.setattr(conditions, "descend", counting)
    trace = integrate(random_tensor(151, 5), 0.02, FlowOpts(dt=0.01, minimize=LIGHT))
    # warm starts from the second row on
    assert sizes == [(4, 2, 5), (4, 4, 7)] + [(6, 2, 5), (6, 4, 7)] * (len(trace.rows) - 1)
