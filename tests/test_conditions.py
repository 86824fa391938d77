import numpy as np
import pytest

from curvlab import conditions
from curvlab.conditions import (
    MinimizeOpts,
    ProductBlockGroup,
    UnitaryGroup,
    Weights,
    _descend,
    check_nic,
    check_pic2,
    cyclic_sum_identity,
    frame_objective,
    holonomy_orbit_invariance,
    isotropic_curvature,
    lift_identity_residual,
    minimize_frame,
    quarter_pinch_reports,
    weighted_isotropic_curvature,
)
from curvlab.frames import Frame, lift_frame, random_frame
from curvlab.tensors import (
    CurvatureTensor,
    combine,
    fubini_study,
    pad_euclidean,
    product,
    random_tensor,
    sectional,
    sphere,
)

FAST = MinimizeOpts(restarts=8, seed=0)


def _random_weights(seed):
    rng = np.random.default_rng(seed)
    lam, mu = rng.uniform(-1.0, 1.0, size=2)
    return Weights(float(lam), float(mu))


def test_isotropic_on_models():
    for n in (4, 6):
        for kappa in (1.0, -0.5, 2.0):
            s = sphere(n, kappa)
            for seed in range(5):
                f = random_frame(seed, n)
                assert isotropic_curvature(s, f) == pytest.approx(4.0 * kappa, abs=1e-12)

    prod = product(sphere(2, 1.0), sphere(2, 1.0))
    e = np.eye(4)
    mixed = Frame(n=4, vectors=np.array([e[0], e[1], e[2], e[3]]))
    alt = Frame(n=4, vectors=np.array([e[0], e[2], e[1], e[3]]))
    assert isotropic_curvature(prod, mixed) == 0.0
    assert isotropic_curvature(prod, alt) == 2.0

    zero = CurvatureTensor(n=5, comps=np.zeros(625))
    assert isotropic_curvature(zero, random_frame(0, 5)) == 0.0


def test_isotropic_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        isotropic_curvature(sphere(4, 1.0), random_frame(0, 5))
    with pytest.raises(ValueError, match="4-frame"):
        isotropic_curvature(sphere(4, 1.0), random_frame(0, 4, k=2))


def test_weighted_family_special_points():
    r = random_tensor(3, 6)
    for seed in range(20):
        f = random_frame(seed, 6)
        u = isotropic_curvature(r, f)
        q11 = weighted_isotropic_curvature(r, f, Weights(1.0, 1.0))
        assert q11 == pytest.approx(u, abs=1e-15 * max(1.0, abs(u)))
        q00 = weighted_isotropic_curvature(r, f, Weights(0.0, 0.0))
        k13 = r(f.row(0), f.row(2), f.row(0), f.row(2))
        assert q00 == pytest.approx(k13, abs=1e-15 * max(1.0, abs(k13)))


def test_weighted_family_sphere_value():
    # constant curvature: Q = (1 + lam^2)(1 + mu^2) * kappa
    f = random_frame(1, 4)
    val = weighted_isotropic_curvature(sphere(4, 1.0), f, Weights(0.5, 1.0 / 3.0))
    assert val == pytest.approx(25.0 / 18.0, abs=1e-12)


def test_isotropic_pair_swap_symmetries():
    r = random_tensor(9, 5)
    for seed in range(20):
        f = random_frame(seed, 5)
        v = f.vectors
        u = isotropic_curvature(r, f)
        swapped = Frame(n=5, vectors=v[[2, 3, 0, 1]])
        flipped = Frame(n=5, vectors=v[[1, 0, 3, 2]])
        assert isotropic_curvature(r, swapped) == pytest.approx(u, abs=1e-12)
        assert isotropic_curvature(r, flipped) == pytest.approx(u, abs=1e-12)


def test_lift_identity_battery():
    worst = 0.0
    for i in range(200):
        n = 4 + i % 5
        r = random_tensor([i, 0], n)
        f = random_frame([i, 1], n)
        worst = max(worst, lift_identity_residual(r, f, _random_weights(i)))
    assert worst < 1e-12


def test_cyclic_sum_battery_and_sphere():
    worst = 0.0
    for i in range(200):
        n = 4 + i % 5
        r = random_tensor([i, 2], n)
        f = random_frame([i, 3], n)
        lhs, rhs, res = cyclic_sum_identity(r, f, _random_weights(i + 1))
        assert res == abs(lhs - rhs)
        worst = max(worst, res)
    assert worst < 1e-11

    lam, mu = 0.7, -0.2
    lhs, rhs, res = cyclic_sum_identity(sphere(5, 2.0), random_frame(0, 5), Weights(lam, mu))
    expect = 3.0 * 2.0 * (1 + lam**2) * (1 + mu**2)
    assert lhs == pytest.approx(expect, abs=1e-12)
    assert rhs == pytest.approx(expect, abs=1e-12)


def test_cyclic_sum_needs_bianchi():
    # Remove only the Bianchi part of the construction: the identity's
    # cancellation mechanism breaks and residuals become order one.
    rng = np.random.default_rng(5)
    t = rng.standard_normal((5, 5, 5, 5))
    s = 0.25 * (t - t.transpose(1, 0, 2, 3) - t.transpose(0, 1, 3, 2) + t.transpose(1, 0, 3, 2))
    s = 0.5 * (s + s.transpose(2, 3, 0, 1))
    bad = CurvatureTensor(n=5, comps=s.reshape(-1), sym_tol=100.0)
    residuals = [
        cyclic_sum_identity(bad, random_frame(i, 5), Weights(0.7, -0.2))[2] for i in range(20)
    ]
    assert max(residuals) > 1e-2


def test_gradients_match_central_differences():
    rng = np.random.default_rng(0)
    kinds = [
        ("isotropic", None, False),
        ("lambda_mu", Weights(0.4, -0.7), False),
        ("lambda_mu", Weights(-0.9, 0.25), False),
        ("sectional", None, False),
        ("sectional", None, True),
    ]
    for kind, w, negate in kinds:
        r = random_tensor(13, 6)
        obj = frame_objective(r, kind, weights=w, negate=negate)
        for trial in range(10):
            v = random_frame([trial, 7], 6, k=obj.rows).vectors.copy()
            _, g = obj.value_grad(v)
            h = 1e-5
            num = np.zeros_like(g)
            for a in range(v.shape[0]):
                for b in range(v.shape[1]):
                    vp = v.copy()
                    vp[a, b] += h
                    vm = v.copy()
                    vm[a, b] -= h
                    num[a, b] = (obj.value(vp) - obj.value(vm)) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(g))))
            assert np.max(np.abs(g - num)) / scale < 1e-5


def test_kernel_matches_multilinear_oracle():
    # The contraction kernel against direct evaluation through
    # CurvatureTensor.__call__ and tensors.sectional.
    for n in range(4, 9):
        r = random_tensor([n, 31], n)
        iso = frame_objective(r, "isotropic")
        sec = frame_objective(r, "sectional")
        for trial in range(5):
            e1, e2, e3, e4 = v = random_frame([n, trial, 32], n).vectors
            expect = r(e1, e3, e1, e3) + r(e1, e4, e1, e4) + r(e2, e3, e2, e3) + r(e2, e4, e2, e4) - 2.0 * r(e1, e2, e3, e4)
            assert abs(iso.value(v) - expect) < 1e-12
            assert abs(iso.value_grad(v)[0] - expect) < 1e-12
            w = random_frame([n, trial, 33], n, k=2).vectors
            assert abs(sec.value(w) - sectional(r, w[0], w[1])) < 1e-12


def test_descend_is_monotone():
    r = random_tensor(21, 5)
    obj = frame_objective(r, "isotropic")
    for seed in range(5):
        v0 = random_frame(seed, 5).vectors
        _, _, _, _, _, history = _descend(obj, v0, MinimizeOpts())
        diffs = np.diff(history)
        assert np.all(diffs <= 0.0)


def test_descend_contracts_each_frame_once(monkeypatch):
    # every retracted frame (the start and each line-search trial) is
    # contracted exactly once, for value and gradient together
    calls = {"contract": 0, "retract": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(conditions, "_contract", counting("contract", conditions._contract))
    monkeypatch.setattr(conditions, "_retract", counting("retract", conditions._retract))
    minimize_frame(random_tensor(0, 6), "isotropic", MinimizeOpts(restarts=8))
    assert calls["retract"] > 8
    assert calls["contract"] == calls["retract"]


def test_minimize_deterministic_per_seed():
    r = random_tensor(2, 5)
    a = minimize_frame(r, "isotropic", FAST)
    b = minimize_frame(r, "isotropic", FAST)
    assert a.min_value == b.min_value
    assert np.array_equal(a.argmin_frame.vectors, b.argmin_frame.vectors)
    c = minimize_frame(r, "isotropic", MinimizeOpts(restarts=8, seed=1))
    assert c.min_value == pytest.approx(a.min_value, abs=1e-6)


def test_minimize_known_minima():
    rep = minimize_frame(sphere(4, 1.0), "isotropic", FAST)
    assert rep.min_value == pytest.approx(4.0, abs=1e-9)
    assert rep.converged

    prod = product(sphere(2, 1.0), sphere(2, 1.0))
    rep = minimize_frame(prod, "isotropic", MinimizeOpts(restarts=64, seed=0))
    assert rep.min_value <= 1e-8
    assert rep.min_value >= -1e-12

    rep = minimize_frame(fubini_study(2, 4.0), "isotropic", MinimizeOpts(restarts=64, seed=0))
    assert abs(rep.min_value) < 1e-6


def test_minimize_warm_start_and_validation():
    prod = product(sphere(2, 1.0), sphere(2, 1.0))
    e = np.eye(4)
    zero_frame = Frame(n=4, vectors=np.array([e[0], e[1], e[2], e[3]]))
    rep = minimize_frame(prod, "isotropic", MinimizeOpts(restarts=1, seed=0), init_frames=(zero_frame,))
    assert rep.min_value <= 1e-12
    assert rep.restarts == 2
    with pytest.raises(ValueError, match="wrong ambient"):
        minimize_frame(prod, "isotropic", FAST, init_frames=(random_frame(0, 5),))
    with pytest.raises(ValueError, match="unknown objective"):
        minimize_frame(prod, "bogus", FAST)
    with pytest.raises(ValueError, match="needs weights"):
        minimize_frame(prod, "lambda_mu", FAST)
    with pytest.raises(ValueError, match="too small"):
        minimize_frame(sphere(3, 1.0), "isotropic", FAST)


def test_lambda_mu_minimization():
    # on the round sphere the family value is (1 + lam^2)(1 + mu^2) on every frame
    r = sphere(4, 1.0)
    rep = minimize_frame(r, "lambda_mu", FAST, weights=Weights(0.5, 1.0 / 3.0))
    assert rep.min_value == pytest.approx(25.0 / 18.0, abs=1e-9)
    assert rep.argmin_weights == Weights(0.5, 1.0 / 3.0)

    rep = minimize_frame(r, "lambda_mu", FAST, weights=Weights(0.0, 0.0))
    assert rep.min_value == pytest.approx(1.0, abs=1e-9)  # lam = mu = 0 picks K13
    assert minimize_frame(r, "isotropic", FAST, weights=Weights(0.5, 0.5)).argmin_weights is None


def test_check_nic():
    ok, rep = check_nic(sphere(4, 1.0), FAST)
    assert ok and not rep.boundary
    ok, rep = check_nic(sphere(4, -1.0), FAST)
    assert not ok
    assert rep.min_value == pytest.approx(-4.0, abs=1e-9)
    ok, rep = check_nic(fubini_study(2, 4.0), MinimizeOpts(restarts=32, seed=0))
    assert ok and rep.boundary
    ok, rep = check_nic(CurvatureTensor(n=4, comps=np.zeros(256)), FAST)
    assert ok and rep.boundary


def test_check_pic2():
    ok, rep = check_pic2(sphere(4, 1.0), FAST)
    assert ok
    assert rep.boundary  # flat padding directions sit on the boundary
    assert rep.argmin_frame.n == 6
    assert rep.argmin_weights is None
    assert rep.restarts == FAST.restarts
    # the sphere's (0, 0) family value K13 = 1 is a padded isotropic value
    k13 = minimize_frame(sphere(4, 1.0), "lambda_mu", FAST, weights=Weights(0.0, 0.0))
    assert k13.min_value == pytest.approx(1.0, abs=1e-8)
    assert rep.min_value <= k13.min_value + 1e-9

    ok, rep = check_pic2(CurvatureTensor(n=4, comps=np.zeros(256)), FAST)
    assert ok and rep.boundary

    ok, rep = check_pic2(sphere(4, -1.0), FAST)
    assert not ok


def test_pic2_family_consistency_random():
    # lift identity: each family minimum at fixed weights is the isotropic
    # value of a lifted frame of the padded tensor, so the padded search
    # must reach at least as low
    opts = MinimizeOpts(restarts=16, seed=0)
    grid = [Weights(0.0, 0.0), Weights(1.0, 1.0), Weights(1.0, 0.0), Weights(0.5, -0.3), Weights(-0.8, 0.6)]
    for seed in range(6):
        r = random_tensor(seed, 4 + seed % 3)
        ok, rep = check_pic2(r, opts)
        assert ok == (rep.min_value >= -opts.margin)
        padded = pad_euclidean(r, 2)
        for w in grid:
            fam = minimize_frame(r, "lambda_mu", opts, weights=w)
            lifted = isotropic_curvature(padded, lift_frame(fam.argmin_frame, w))
            assert lifted == pytest.approx(fam.min_value, abs=1e-12)
            assert rep.min_value <= fam.min_value + 1e-9


def test_pic2_combine_regression():
    # frozen multistart values for a mixed model on the cone boundary
    mix = combine(1.0, sphere(4, 1.0), -0.5, fubini_study(2, 1.0))
    ok, rep = check_pic2(mix, MinimizeOpts(restarts=32, seed=0))
    assert ok and rep.boundary
    assert abs(rep.min_value) < 1e-7
    k13 = minimize_frame(mix, "lambda_mu", MinimizeOpts(restarts=32, seed=0), weights=Weights(0.0, 0.0))
    assert k13.min_value == pytest.approx(0.5, abs=1e-6)  # Kmin of the mix
    ok, rep = check_nic(mix, MinimizeOpts(restarts=32, seed=0))
    assert ok
    assert rep.min_value == pytest.approx(2.5, abs=1e-6)


def test_quarter_pinch_reports():
    ok, kmin_rep, kmax_rep = quarter_pinch_reports(sphere(4, 2.0), FAST)
    assert ok and not kmin_rep.boundary
    assert kmin_rep.min_value == pytest.approx(2.0, abs=1e-9)
    assert -kmax_rep.min_value == pytest.approx(2.0, abs=1e-9)

    prod = product(sphere(2, 1.0), sphere(2, 1.0))
    ok, kmin_rep, kmax_rep = quarter_pinch_reports(prod, FAST)
    assert not ok and not kmin_rep.boundary
    assert kmin_rep.min_value == pytest.approx(0.0, abs=1e-9)
    assert -kmax_rep.min_value == pytest.approx(1.0, abs=1e-9)

    # CP^2 sits on the pinching boundary: Kmax = 4 Kmin
    ok, kmin_rep, kmax_rep = quarter_pinch_reports(fubini_study(2, 4.0), MinimizeOpts(restarts=16, seed=0))
    assert ok and kmin_rep.boundary
    assert kmin_rep.min_value == pytest.approx(1.0, abs=1e-6)
    assert -kmax_rep.min_value == pytest.approx(4.0, abs=1e-6)


def test_holonomy_orbit_invariance():
    prod = product(sphere(2, 1.0), sphere(2, 1.0))
    e = np.eye(4)
    mixed = Frame(n=4, vectors=np.array([e[0], e[1], e[2], e[3]]))
    worst = holonomy_orbit_invariance(prod, mixed, ProductBlockGroup((2, 2)), samples=100, seed=0)
    assert worst < 1e-10

    fs = fubini_study(2, 4.0)
    zero = Frame(n=4, vectors=np.array([e[0], e[2], e[1], e[3]]))  # (x, Jx, y, Jy)
    assert abs(isotropic_curvature(fs, zero)) < 1e-12
    worst = holonomy_orbit_invariance(fs, zero, UnitaryGroup(2), samples=100, seed=0)
    assert worst < 1e-10


def test_holonomy_errors():
    prod = product(sphere(2, 1.0), sphere(2, 1.0))
    e = np.eye(4)
    alt = Frame(n=4, vectors=np.array([e[0], e[2], e[1], e[3]]))  # u = 2: not a zero frame
    with pytest.raises(ValueError, match="zero frame"):
        holonomy_orbit_invariance(prod, alt, ProductBlockGroup((2, 2)))
    mixed = Frame(n=4, vectors=np.array([e[0], e[1], e[2], e[3]]))
    with pytest.raises(ValueError, match="group acts"):
        holonomy_orbit_invariance(prod, mixed, ProductBlockGroup((2, 3)))


def test_holonomy_negative_control():
    # a generic rotation outside the holonomy group moves the zero frame
    # off the zero set
    from scipy.linalg import expm

    prod = product(sphere(2, 1.0), sphere(2, 1.0))
    e = np.eye(4)
    mixed = Frame(n=4, vectors=np.array([e[0], e[1], e[2], e[3]]))
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4))
    rot = expm(a - a.T)
    moved = Frame(n=4, vectors=mixed.vectors @ rot.T)
    assert abs(isotropic_curvature(prod, moved)) > 0.1


def test_weights_and_opts_validation():
    with pytest.raises(ValueError):
        Weights(1.5, 0.0)
    with pytest.raises(ValueError):
        Weights(0.0, np.nan)
    with pytest.raises(ValueError):
        MinimizeOpts(restarts=0)
    with pytest.raises(ValueError):
        MinimizeOpts(grad_tol=-1.0)
