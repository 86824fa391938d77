import functools
from dataclasses import replace

import numpy as np
import pytest

from curvlab import conditions, frames, lambda2, stiefel
from curvlab.conditions import (
    MinimizeOpts,
    Weights,
    check_nic,
    check_pic2,
    cyclic_sum_identity,
    frame_objective,
    holonomy_orbit_invariance,
    isotropic_curvature,
    lift_identity_residual,
    minimize_frame,
    minimize_searches,
    quarter_pinch_reports,
    weighted_isotropic_curvature,
)
from curvlab.frames import RANK_TOL, Frame, lift_frame, random_block_rotation, random_frame, random_unitary
from curvlab.stiefel import descend, orthonormal_rows
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


class _Signed:
    """A frame objective times ``sign``, as ``stiefel.descend`` evaluates a
    search of that sign (``stiefel._evaluate``)."""

    def __init__(self, obj, sign: float):
        self.obj, self.rows = obj, obj.rows
        self.sign = sign

    def batch(self, v):
        return stiefel._evaluate(self.obj, v, np.full(len(v), self.sign))

    def value_grad(self, v):
        vals, grads = self.batch(np.asarray(v, dtype=float)[None])
        return float(vals[0]), grads[0]

    def value(self, v):
        return self.value_grad(v)[0]


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
        e = f.vectors
        k13 = r(e[0], e[2], e[0], e[2])
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


def test_cyclic_sum_needs_bianchi(monkeypatch):
    # Remove only the Bianchi part of the construction: the identity's
    # cancellation mechanism breaks and residuals become order one.
    monkeypatch.setattr("curvlab.tensors.SYM_TOL", 100.0)
    rng = np.random.default_rng(5)
    t = rng.standard_normal((5, 5, 5, 5))
    s = 0.25 * (t - t.transpose(1, 0, 2, 3) - t.transpose(0, 1, 3, 2) + t.transpose(1, 0, 3, 2))
    s = 0.5 * (s + s.transpose(2, 3, 0, 1))
    bad = CurvatureTensor(n=5, comps=s.reshape(-1))
    residuals = [
        cyclic_sum_identity(bad, random_frame(i, 5), Weights(0.7, -0.2))[2] for i in range(20)
    ]
    assert max(residuals) > 1e-2


def test_gradients_match_central_differences():
    rng = np.random.default_rng(0)
    kinds = [
        ("isotropic", None, 1.0),
        ("lambda_mu", Weights(0.4, -0.7), 1.0),
        ("lambda_mu", Weights(-0.9, 0.25), 1.0),
        ("sectional", None, 1.0),
        ("sectional", None, -1.0),
    ]
    for kind, w, sign in kinds:
        r = random_tensor(13, 6)
        obj = _Signed(frame_objective(r, kind, weights=w), sign)
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
    # The bivector kernel against direct evaluation through
    # CurvatureTensor.__call__ and tensors.sectional, and the weighted
    # family against its definition.
    for n in range(4, 9):
        r = random_tensor([n, 31], n)
        iso = frame_objective(r, "isotropic")
        sec = frame_objective(r, "sectional")
        for trial in range(5):
            f = random_frame([n, trial, 32], n)
            e1, e2, e3, e4 = v = f.vectors
            expect = r(e1, e3, e1, e3) + r(e1, e4, e1, e4) + r(e2, e3, e2, e3) + r(e2, e4, e2, e4) - 2.0 * r(e1, e2, e3, e4)
            assert abs(iso.value(v) - expect) < 1e-12
            assert abs(iso.value_grad(v)[0] - expect) < 1e-12
            w = random_frame([n, trial, 33], n, k=2).vectors
            assert abs(sec.value(w) - sectional(r, w[0], w[1])) < 1e-12
            for i in range(3):
                wts = _random_weights([n, trial, i, 34])
                lam, mu = wts.lam, wts.mu
                family = (
                    r(e1, e3, e1, e3) + lam**2 * r(e1, e4, e1, e4) + mu**2 * r(e2, e3, e2, e3)
                    + lam**2 * mu**2 * r(e2, e4, e2, e4) - 2.0 * lam * mu * r(e1, e2, e3, e4)
                )
                assert abs(weighted_isotropic_curvature(r, f, wts) - family) <= 1e-12 * max(1.0, abs(family))


# The functionals as the index formula writes them: (coefficient, frame
# rows (a, b, c, d) of R(e_a, e_b, e_c, e_d)).
def _index_terms(kind: str, w: Weights | None = None):
    if kind == "sectional":
        return ((1.0, (0, 1, 0, 1)),)
    lam, mu = (1.0, 1.0) if w is None else (w.lam, w.mu)
    return ((1.0, (0, 2, 0, 2)), (lam**2, (0, 3, 0, 3)), (mu**2, (1, 2, 1, 2)),
            (lam**2 * mu**2, (1, 3, 1, 3)), (-2.0 * lam * mu, (0, 1, 2, 3)))


def _index_value_grad(arr: np.ndarray, v: np.ndarray, terms):
    """The value and gradient of sum c R(e_a, e_b, e_c, e_d) by einsum on the
    full (n, n, n, n) array: the gradient in row x sums the terms with
    their slots at x left free."""
    value, grad = 0.0, np.zeros(v.shape)
    for c, rows in terms:
        value += c * np.einsum("ijkl,i,j,k,l->", arr, *v[list(rows)])
        for slot, x in enumerate(rows):
            vecs = [v[a] for a in rows]
            spec = ["i", "j", "k", "l"]
            free = spec.pop(slot)
            del vecs[slot]
            grad[x] += c * np.einsum(f"ijkl,{','.join(spec)}->{free}", arr, *vecs)
    return value, grad


def test_bivector_kernel_matches_index_formula():
    # values and gradients of every kind against explicit index sums on the
    # n^4 array, also on frames in R^{n+2} evaluated on R x R^2
    for n in range(4, 13):
        r = random_tensor([n, 35], n)
        scale = max(1.0, r.max_abs())
        kinds = [("isotropic", None), ("sectional", None)]
        kinds += [("lambda_mu", _random_weights([n, i, 36])) for i in range(2)]
        for kind, w in kinds:
            obj = frame_objective(r, kind, w)
            for flat, arr in ((0, r.array), (2, pad_euclidean(r, 2).array)):
                v = np.stack([random_frame([n, flat, i, 37], n + flat, k=obj.rows).vectors for i in range(3)])
                vals, grads = obj.batch(v)
                for i in range(3):
                    want, want_grad = _index_value_grad(arr, v[i], _index_terms(kind, w))
                    assert abs(vals[i] - want) <= 1e-13 * scale
                    assert np.max(np.abs(grads[i] - want_grad)) <= 1e-13 * scale
                    assert np.all(grads[i, :, n:] == 0.0)


def test_objective_norms_come_from_its_bivectors():
    # |w1|^2 = 1 + lam^2 mu^2 and |w2|^2 = lam^2 + mu^2 in descending order,
    # |e12|^2 = 1 for the sectional functional
    r = random_tensor(4, 5)
    assert frame_objective(r, "isotropic").norms == [2.0, 2.0]
    assert frame_objective(r, "sectional").norms == [1.0]
    for lam, mu in ((0.5, -0.25), (1.0, 0.0), (-0.9, 0.7)):
        norms = frame_objective(r, "lambda_mu", Weights(lam, mu)).norms
        assert norms == sorted((1.0 + (lam * mu) ** 2, lam * lam + mu * mu), reverse=True)
    # the cached tables are read-only, and equal weights with zeros of
    # opposite sign keep their own tables, bitwise as built alone
    plus, minus = (frame_objective(r, "lambda_mu", Weights(lam, 0.5)).coeffs for lam in (0.0, -0.0))
    assert not plus.flags.writeable and not np.array_equal(np.signbit(plus), np.signbit(minus))


def _accepted_values(monkeypatch) -> list[float]:
    """The values a one-start ``descend`` accepts from here on: each
    top-level ``stiefel._line_search`` call that returns ``ok``."""
    line_search, depth, accepted = stiefel._line_search, [0], []

    def recording(*args):
        depth[0] += 1
        _, f_try, _, _, ok = out = line_search(*args)
        depth[0] -= 1
        if depth[0] == 0 and ok[0]:
            accepted.append(f_try[0])
        return out

    monkeypatch.setattr(stiefel, "_line_search", recording)
    return accepted


def test_descend_is_nonmonotone_armijo(monkeypatch):
    # Zhang-Hager: the reference values C_k rebuilt from the accepted values
    # never increase, every accepted value is at most the C_k it was tested
    # against, and so no start ends above its start value; the values
    # themselves are allowed to rise, and do on these starts.  Each start
    # descends alone, as it does in any batch
    r = random_tensor(21, 5)
    obj = frame_objective(r, "isotropic")
    rises = 0
    for seed in range(5):
        v0 = random_frame(seed, 5).vectors[None]
        accepted = _accepted_values(monkeypatch)
        final = descend(obj, v0, [-np.inf], [1.0], [1])[0][0]
        monkeypatch.undo()
        values = [obj.batch(v0)[0][0]] + accepted
        assert len(values) > 1
        ref, weight = values[0], 1.0
        for f in values[1:]:
            assert f <= ref
            weight = stiefel.ETA * weight + 1.0
            ref, last = ref + (f - ref) / weight, ref
            assert ref <= last
        assert final == values[-1] <= values[0]
        rises += int(np.any(np.diff(values) > 0.0))
    assert rises > 0


class _CountingObjective:
    """Counts the batch calls descend makes (not the kernel's own blocks)."""

    def __init__(self, obj):
        self.obj, self.calls = obj, 0

    def batch(self, v):
        self.calls += 1
        return self.obj.batch(v)


def test_descend_work_and_convergence_guard():
    # with the nonmonotone test most alternating Barzilai-Borwein steps are
    # taken as they come: 1.4 evaluations of the batch per iteration here
    # (1.3 to 2.0 on random_tensor([9, j, 95], 9), j < 10), against 3.6
    # (3.7 to 5.1) under a monotone Armijo test, which also left 47 of
    # these 64 starts short of GRAD_TOL
    obj = _CountingObjective(frame_objective(random_tensor(93, 9), "isotropic"))
    v0 = np.stack([random_frame([9, i, 94], 9).vectors for i in range(64)])
    vals, _, iters, gnorms, convs = descend(obj, v0, [-np.inf], [1.0], [64])
    assert obj.calls <= 3 * iters.max()
    assert convs.all() and gnorms.max() < stiefel.GRAD_TOL


class _Refusing:
    """A frame objective on frames in R^{n+1} that, from the ``after``-th
    evaluation of the marked start on, refuses (value +inf) every trial of
    it.  The marked start is the one with a component in the last column,
    which the objective treats as flat and keeps at exactly 0 elsewhere."""

    def __init__(self, obj, after: int):
        self.obj, self.after, self.seen = obj, after, 0

    def batch(self, v):
        vals, grads = self.obj.batch(v)
        marked = v[:, :, -1].any(axis=1)
        if marked.any():
            self.seen += 1
            if self.seen > self.after:
                vals = np.where(marked, np.inf, vals)
        return vals, grads


def test_descend_failed_line_search_stops_the_start_where_it_is(monkeypatch):
    # start 3's line search fails after a few accepted steps: it stops at
    # its last accepted frame, and every other start descends as alone
    obj = frame_objective(random_tensor(131, 5), "sectional")
    v0 = np.stack([
        random_frame([i, 132], 6, k=2).vectors if i == 3 else np.pad(random_frame([i, 132], 5, k=2).vectors, ((0, 0), (0, 1)))
        for i in range(8)
    ])
    vals, frames, iters, gnorms, convs = descend(_Refusing(obj, 5), v0, [-np.inf], [1.0], [8])
    for i in (0, 1, 2, 4, 5, 6, 7):
        alone = descend(obj, v0[i : i + 1], [-np.inf], [1.0], [1])
        for got, want in zip((vals, frames, iters, gnorms, convs), alone):
            assert np.array_equal(got[i], want[0]), i
    accepted = _accepted_values(monkeypatch)
    descend(_Refusing(obj, 5), v0[3:4], [-np.inf], [1.0], [1])
    monkeypatch.undo()
    steps = len(accepted)  # accepted steps of start 3
    assert steps >= 1 and iters[3] == steps + 1 and not convs[3]
    monkeypatch.setattr(stiefel, "MAX_ITERS", steps)
    capped = descend(obj, v0[3:4], [-np.inf], [1.0], [1])
    assert vals[3] == capped[0][0] and np.array_equal(frames[3], capped[1][0]) and gnorms[3] == capped[3][0]


def test_descend_every_exit_in_one_batch(monkeypatch):
    # one batch, every way out: search A (CP^2's Kmax, with its exact stop)
    # stops at its bound; search B (Kmin, no stop) holds a start whose line
    # search fails, starts that reach GRAD_TOL and a start cut at MAX_ITERS
    obj = frame_objective(fubini_study(2, 4.0), "sectional")
    pad = functools.partial(np.pad, pad_width=((0, 0), (0, 1)))
    a = np.stack([pad(random_frame([i, 143], 4, k=2).vectors) for i in range(6)])
    b = np.stack([random_frame([i, 146], 5, k=2).vectors if i == 2 else pad(random_frame([i, 146], 4, k=2).vectors) for i in range(6)])
    stop, cap = -4.0 + conditions.GAP_TOL * 4.0, 5
    monkeypatch.setattr(stiefel, "MAX_ITERS", cap)
    out = descend(_Refusing(obj, 3), np.concatenate((a, b)), [stop, -np.inf], [-1.0, 1.0], [6, 6])
    vals, frames, iters, gnorms, convs = out

    def alone(v, sign, max_iters):
        monkeypatch.setattr(stiefel, "MAX_ITERS", max_iters)
        return descend(obj, v[None], [-np.inf], [sign], [1])

    # every A start still running when one reaches the stop ends at that
    # iteration, where it is as it would be alone
    reached = int(iters[:6].max())
    assert 0 < reached < cap and vals[:6].min() <= stop
    for i in range(6):
        assert iters[i] == reached or (convs[i] and iters[i] < reached)
        for got, want in zip(out, alone(a[i], -1.0, int(iters[i]))):
            assert np.array_equal(got[i], want[0]), i
    # each unrefused B start is bitwise its run alone under the same cap
    kept = [6, 7, 9, 10, 11]
    assert any(convs[j] and iters[j] < cap for j in kept) and any(not convs[j] and iters[j] == cap for j in kept)
    for j in kept:
        for got, want in zip(out, alone(b[j - 6], 1.0, cap)):
            assert np.array_equal(got[j], want[0]), j
    # the refused start is where its accepted steps left it
    accepted = _accepted_values(monkeypatch)
    monkeypatch.setattr(stiefel, "MAX_ITERS", cap)
    descend(_Refusing(obj, 3), b[2:3], [-np.inf], [1.0], [1])
    monkeypatch.undo()
    steps = len(accepted)
    assert steps >= 1 and iters[8] == steps + 1 < cap and not convs[8]
    capped = alone(b[2], 1.0, steps)
    assert vals[8] == capped[0][0] and np.array_equal(frames[8], capped[1][0]) and gnorms[8] == capped[3][0]


def test_descend_contracts_each_frame_once(monkeypatch):
    # every orthonormalized frame (each start, in its random_frame QR, and
    # each line-search trial of each start, in its Cholesky QR retraction)
    # goes through the bivector kernel exactly once, for value and gradient
    # together; frames are counted through the leading stack dimension
    counts = {"kernel": 0, "start": 0, "trial": 0}

    def counting(name, fn, stack):
        def wrapped(*args):
            counts[name] += len(args[stack])
            return fn(*args)

        return wrapped

    kernel = conditions._FrameObjective._kernel
    monkeypatch.setattr(conditions._FrameObjective, "_kernel", counting("kernel", kernel, 1))
    for module in (conditions, frames, stiefel):
        monkeypatch.setattr(module, "orthonormal_rows", counting("start", module.orthonormal_rows, 0))
    monkeypatch.setattr(stiefel, "retract", counting("trial", stiefel.retract, 0))
    conditions._draws.cache_clear()
    rep = minimize_frame(random_tensor(0, 6), "isotropic", MinimizeOpts(restarts=8))
    assert counts["start"] == 8
    assert counts["start"] + counts["trial"] > 8 * rep.iterations
    assert counts["kernel"] == counts["start"] + counts["trial"]
    # a second search of the same shape reuses the orthonormalized starts,
    # so only its line-search trials are orthonormalized
    counts.update(kernel=0, start=0, trial=0)
    minimize_frame(random_tensor(1, 6), "isotropic", MinimizeOpts(restarts=8))
    assert counts["start"] == 0
    assert counts["kernel"] == counts["trial"] + 8


def test_retract_is_the_householder_qr_of_tangent_steps():
    # Cholesky QR of a trial v - t p, with t |p|_F spread over (0, pi], is
    # the sign-fixed QR of orthonormal_rows, is orthonormal to round-off up
    # to the step cap, is computed start by start, and keeps zero columns at 0
    for k, n in ((2, 2), (2, 6), (4, 4), (4, 9), (4, 14)):
        rng = np.random.default_rng([k, n])
        v = orthonormal_rows(rng.standard_normal((64, k, n)))[0]
        p = stiefel.tangent_project(rng.standard_normal((64, k, n)), v)
        t = np.linspace(np.pi / 64, np.pi, 64) / np.sqrt(stiefel.dots(p, p))
        m = v - t[:, None, None] * p
        q = stiefel.retract(m)
        assert np.abs(q - orthonormal_rows(m)[0]).max() < 1e-13
        assert np.abs(q @ q.transpose(0, 2, 1) - np.eye(k)).max() < 1e-13
        for i in (0, 31, 63):
            assert np.array_equal(stiefel.retract(m[i : i + 1])[0], q[i])
        padded = stiefel.retract(np.concatenate((m, np.zeros((64, k, 3))), axis=2))
        assert np.all(padded[:, :, n:] == 0.0)
        assert np.abs(padded[:, :, :n] - q).max() < 1e-13


def test_descend_trials_stay_within_the_step_cap(monkeypatch):
    # every trial that reaches the retraction has t |p|_F <= MAX_STEP, so
    # its Gram matrix I + t^2 p p^T has largest eigenvalue at most 1 + pi^2
    largest = []
    retract = stiefel.retract

    def recording(m):
        largest.append(np.linalg.eigvalsh(m @ m.transpose(0, 2, 1))[:, -1].max())
        return retract(m)

    monkeypatch.setattr(stiefel, "retract", recording)
    s4, cp2 = sphere(4, 1.0), fubini_study(2, 4.0)
    zoo = [s4, cp2, product(sphere(2, 1.0), sphere(2, 1.0)), product(sphere(2, 1.0), sphere(3, 1.0)), combine(1.0, s4, 0.3, cp2)]
    for r in zoo + [random_tensor(3, n) for n in (4, 6, 9)]:
        check_nic(r)
        check_pic2(r)
        quarter_pinch_reports(r)
    assert len(largest) > 100
    assert max(largest) <= 1.0 + np.pi**2 + 1e-9


def test_descend_batch_independence_and_tie_break(monkeypatch):
    # a start's value, frame and iteration count do not depend on the other
    # starts of its batch
    for kind, sign, n in (("isotropic", 1.0, 6), ("sectional", -1.0, 7)):
        obj = frame_objective(random_tensor([n, 41], n), kind)
        v0 = np.stack([random_frame([n, i, 42], n, k=obj.rows).vectors for i in range(64)])
        vals, frames, iters, gnorms, convs = descend(obj, v0, [-np.inf], [sign], [64])
        for i in (0, 17, 63):
            val, frame, it, gnorm, conv = descend(obj, v0[i : i + 1], [-np.inf], [sign], [1])
            assert val[0] == vals[i]
            assert np.array_equal(frame[0], frames[i])
            assert it[0] == iters[i] and gnorm[0] == gnorms[i] and conv[0] == convs[i]

    # identical warm starts end identically, and the report is the start of
    # lowest value, then of lowest index, of the descent of the same stack
    # (two warm starts, then the random one)
    r = random_tensor(5, 6)
    warm = random_frame(9, 6)
    v0 = _start_stack_of(monkeypatch, r, "isotropic", MinimizeOpts(restarts=1), (warm, warm))
    monkeypatch.undo()
    vals, frames, iters, *_ = descend(frame_objective(r, "isotropic"), v0, [-np.inf], [1.0], [3])
    assert len(v0) == 3 and np.array_equal(v0[0], v0[1])
    assert vals[0] == vals[1] and np.array_equal(frames[0], frames[1]) and iters[0] == iters[1]
    rep = minimize_searches(r, ((0, 1.0, (warm, warm)),), "isotropic", MinimizeOpts(restarts=1))[0]
    best = int(np.argmin(vals))
    assert not rep.certified and rep.min_value == vals[best] and rep.iterations == iters[best]
    assert np.array_equal(rep.argmin_frame.vectors, frames[best])

    # on the round sphere two different coordinate frames tie at exactly 4;
    # the lower start index wins
    e = np.eye(5)
    f1 = Frame(n=5, vectors=e[[0, 1, 2, 3]])
    f2 = Frame(n=5, vectors=e[[4, 3, 2, 1]])
    for first, second in ((f1, f2), (f2, f1)):
        rep = minimize_searches(sphere(5, 1.0), ((0, 1.0, (first, second)),), "isotropic", MinimizeOpts(restarts=1))[0]
        assert rep.min_value == 4.0
        assert np.array_equal(rep.argmin_frame.vectors, first.vectors)


def test_batched_kernel_matches_single_frames():
    # bitwise: a frame's value and gradient do not depend on the other
    # frames of its stack, up to the 64-start stacks at n = 9 and 12
    for n in range(4, 13):
        r = random_tensor([n, 51], n)
        for kind, w, sign in (("isotropic", None, 1.0), ("sectional", None, -1.0), ("lambda_mu", Weights(0.6, -0.8), 1.0)):
            obj = _Signed(frame_objective(r, kind, w), sign)
            for s in (1, 3, 64):
                v = np.stack([random_frame([n, s, i, 52], n, k=obj.rows).vectors for i in range(s)])
                vals, grads = obj.batch(v)
                assert vals.shape == (s,) and grads.shape == v.shape
                for i in range(s):
                    f, g = obj.value_grad(v[i])
                    assert vals[i] == f and np.array_equal(grads[i], g)


class _Starts(Exception):
    """Carries the start stack out of a search before any descent."""


def _start_stack_of(monkeypatch, r, kind, opts, init_frames=()) -> np.ndarray:
    def stop(obj, v0, stops, signs, sizes):
        raise _Starts(v0)

    monkeypatch.setattr(conditions, "descend", stop)
    with pytest.raises(_Starts) as caught:
        minimize_searches(r, ((0, 1.0, init_frames),), kind, opts)
    return caught.value.args[0]


def test_starts_are_random_frames(monkeypatch):
    # start i is bitwise random_frame([seed, i], n, k), whatever --restarts is
    for n in range(4, 15):
        r = random_tensor([n, 61], n)
        for kind, k in (("sectional", 2), ("isotropic", 4)):
            for seed in (0, 62):
                v = _start_stack_of(monkeypatch, r, kind, MinimizeOpts(restarts=64, seed=seed))
                assert v.shape == (64, k, n)
                for i in range(64):
                    assert np.array_equal(v[i], random_frame([seed, i], n, k).vectors)
                short = _start_stack_of(monkeypatch, r, kind, MinimizeOpts(restarts=8, seed=seed))
                assert np.array_equal(short, v[:8])

    # warm starts come first and do not shift the random starts
    warm = random_frame(63, 6)
    v = _start_stack_of(monkeypatch, random_tensor(1, 6), "isotropic", MinimizeOpts(restarts=3, seed=4), (warm,))
    assert np.max(np.abs(v[0] - warm.vectors)) < 1e-15
    for i in range(3):
        assert np.array_equal(v[1 + i], random_frame([4, i], 6).vectors)


def test_start_draws_are_made_once_per_shape(monkeypatch):
    # the draws depend only on (seed, restarts, k, n): a second search of
    # the same shape makes no generator and starts from the same frames
    made = []

    def counting(seed):
        made.append(seed)
        return bit_generator(seed)

    bit_generator = np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", counting)
    conditions._draws.cache_clear()
    r = random_tensor(64, 6)
    first = _start_stack_of(monkeypatch, r, "isotropic", MinimizeOpts(restarts=8, seed=3))
    assert len(made) == 8
    again = _start_stack_of(monkeypatch, combine(1.0, r, 1.0, sphere(6, 1.0)), "isotropic", MinimizeOpts(restarts=8, seed=3))
    assert len(made) == 8 and np.array_equal(again, first)
    assert not conditions._draws(3, 8, 4, 6).flags.writeable
    # a pass of check_zoo searches nine (k, n) shapes; a second pass over
    # them draws nothing
    shapes = [(4, n) for n in range(4, 10)] + [(2, n) for n in (4, 5, 6)]
    conditions._draws.cache_clear()
    for rnd in range(2):
        made.clear()
        for k, n in shapes:
            _start_stack_of(monkeypatch, random_tensor(n, n), "isotropic" if k == 4 else "sectional", MinimizeOpts(restarts=8, seed=3))
        assert len(made) == (8 * len(shapes) if rnd == 0 else 0)


def test_rank_deficient_draw_is_drawn_again(monkeypatch):
    # a draw failing the rank test must not pass silently: random_frame,
    # and with it every start of a search, draws again from its stream
    # (here each stream's first draw repeats a row)
    generator = np.random.Generator

    class Planted:
        def __init__(self, bit_generator):
            self.rng = generator(bit_generator)
            self.draws = 0

        def standard_normal(self, shape):
            x = self.rng.standard_normal(shape)
            self.draws += 1
            if self.draws == 1:
                x[..., 3, :] = x[..., 0, :]
            return x

    seed, restarts, k, n = 5, 4, 4, 6
    monkeypatch.setattr(np.random, "Generator", Planted)
    conditions._draws.cache_clear()
    try:
        frame = random_frame([seed, 2], n, k)
        starts = conditions._draws(seed, restarts, k, n)
    finally:
        monkeypatch.undo()
        conditions._draws.cache_clear()
    for i in range(restarts):
        rng = np.random.default_rng([seed, i])
        first = rng.standard_normal((1, k, n))
        first[..., 3, :] = first[..., 0, :]
        assert orthonormal_rows(first)[1].min() <= RANK_TOL
        assert np.array_equal(starts[i], orthonormal_rows(rng.standard_normal((1, k, n)))[0][0])
    assert np.array_equal(frame.vectors, starts[2])


def test_cached_starts_are_a_read_only_qr_of_the_draws():
    # the cache holds the orthonormalized starts, bitwise one stacked QR of
    # the draws (a frame's QR does not depend on its stack), and no search
    # can write to them
    conditions._draws.cache_clear()
    for seed, restarts, k, n in ((3, 8, 4, 6), (0, 64, 2, 9), (7, 5, 4, 4)):
        v = conditions._draws(seed, restarts, k, n)
        assert not v.flags.writeable
        draws = np.stack([np.random.default_rng([seed, i]).standard_normal((k, n)) for i in range(restarts)])
        assert np.array_equal(v, orthonormal_rows(draws)[0])
        assert conditions._draws(seed, restarts, k, n) is v


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
    rep = minimize_searches(prod, ((0, 1.0, (zero_frame,)),), "isotropic", MinimizeOpts(restarts=1, seed=0))[0]
    assert rep.min_value <= 1e-12
    assert rep.restarts == 2
    with pytest.raises(ValueError, match="wrong ambient"):
        minimize_searches(prod, ((0, 1.0, (random_frame(0, 5),)),), "isotropic", FAST)
    with pytest.raises(ValueError, match="unknown objective"):
        minimize_frame(prod, "bogus", FAST)
    with pytest.raises(ValueError, match="needs weights"):
        minimize_frame(prod, "lambda_mu", FAST)
    with pytest.raises(ValueError, match="too small"):
        minimize_frame(sphere(3, 1.0), "isotropic", FAST)
    for sign in (0.0, 2.0, -0.5, np.nan, True, False):
        with pytest.raises(ValueError, match="sign"):
            minimize_searches(prod, ((0, sign, ()),), "isotropic", FAST)


def _full_minimum(r, kind, sign, weights=None, starts=64):
    """The minimum of an unstopped multistart descent of sign times the
    functional."""
    obj = frame_objective(r, kind, weights)
    v0 = np.stack([random_frame([r.n, i, 71], r.n, k=obj.rows).vectors for i in range(starts)])
    return descend(obj, v0, [-np.inf], [sign], [starts])[0].min()


LAMBDA_MU_GRID = [Weights(0.0, 0.0), Weights(1.0, 0.0), Weights(1.0, 1.0), Weights(0.5, -0.3), Weights(-0.8, 0.6)]


def _bound(r, obj, sign, flat=0):
    """The search's lower bound on R x R^flat, as ``minimize_searches`` takes it."""
    m = lambda2.operator(r.array)
    return conditions._lower_bound(m, None, obj, flat, sign, 1e-13)[0]


def test_lower_bounds_are_sound():
    # the eigenvalue bound never exceeds a frame value; the n = 4 bounds
    # of unit weights are exact, so raising them by 1e-6 fails here
    kinds = [("isotropic", None), ("sectional", None)] + [("lambda_mu", w) for w in LAMBDA_MU_GRID]
    for n in range(4, 10):
        for r in (random_tensor([n, 72], n), combine(1.0, sphere(n, 1.0), 0.3, random_tensor([n, 73], n))):
            for kind, w in kinds:
                for sign in (1.0, -1.0):
                    lower = _bound(r, frame_objective(r, kind, w), sign)
                    # 8 starts for the family, whose descents run 2-3 times
                    # longer, and at n >= 8 a few starts to MAX_ITERS
                    full = _full_minimum(r, kind, sign, w, 64 if w is None else 8)
                    assert lower <= full + 1e-12, (n, kind, w, sign)
                    # at n = 4 the bounds of unit weights are exact: Micallef-Moore for NIC, Thorpe
                    unit = w is None or abs(w.lam) == abs(w.mu) == 1.0
                    assert n > 4 or not unit or lower >= full - 1e-9, (kind, w, sign)
    # at |lam| = |mu| = 1 and n = 4 the scaled rows are again a frame, so
    # every sign pair has the isotropic bound, and its search stops on it
    r = random_tensor(5, 4)
    nic = _bound(r, frame_objective(r, "isotropic"), 1.0)
    for lam, mu in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
        w = Weights(lam, mu)
        assert _bound(r, frame_objective(r, "lambda_mu", w), 1.0) == nic
        rep = minimize_frame(r, "lambda_mu", FAST, weights=w)
        assert rep.certified and rep.lower_bound == nic and rep.min_value == pytest.approx(-3.30960534, abs=1e-8)
    # on R x R^2 the bound is taken on R and holds for the padded tensor
    r = random_tensor(74, 4)
    padded = pad_euclidean(r, 2)
    assert _bound(r, frame_objective(r, "isotropic"), 1.0, flat=2) <= _full_minimum(padded, "isotropic", 1.0) + 1e-12


def test_weighted_bound_is_exact_on_spheres():
    # the family is (1 + lam^2)(1 + mu^2) kappa on every frame of S^n, and
    # the weighted Ky Fan bound meets it, plain and negated
    for n in range(4, 10):
        for kappa in (1.0, -0.7):
            r = sphere(n, kappa)
            for w in LAMBDA_MU_GRID:
                value = (1.0 + w.lam**2) * (1.0 + w.mu**2) * kappa
                obj = frame_objective(r, "lambda_mu", w)
                assert _bound(r, obj, 1.0) == pytest.approx(value, abs=1e-12)
                assert _bound(r, obj, -1.0) == pytest.approx(-value, abs=1e-12)


def test_thorpe_bound_probes(monkeypatch):
    # Newton steps alternating with tangent crossings find the top of the
    # concave lambda_min(M + s star) in at most 10 eigh probes, against a
    # bisection on the sign of its slope
    probes = []

    def counting(a):
        probes.append(a)
        return eigh(a)

    def top(m):
        hi = 2.0 * np.abs(m).sum()  # above lambda_max - lambda_min
        lo = -hi
        for _ in range(200):
            s = 0.5 * (lo + hi)
            w, u = eigh(m + s * conditions._STAR)
            lo, hi = (s, hi) if u[:, 0] @ conditions._STAR @ u[:, 0] > 0 else (lo, s)
        return eigh(m + lo * conditions._STAR)[0][0]

    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", counting)
    tensors = [random_tensor([4, i, 101], 4) for i in range(8)]
    tensors += [combine(1.0, sphere(4, 1.0), t, random_tensor([4, i, 102], 4)) for i, t in enumerate((0.1, 0.2, 0.3, 0.5, 0.9, 1.5, 2.0, 4.0))]
    for r in tensors:
        for m in (lambda2.operator(r.array), -lambda2.operator(r.array)):
            probes.clear()
            bound = conditions._thorpe_bound(m, 0.5 * conditions.GAP_TOL * max(1.0, np.abs(m).max()))
            assert len(probes) <= 10
            assert abs(bound - top(m)) <= 1e-12


def test_lower_bounds_tight_on_zoo():
    s4, cp2 = sphere(4, 1.0), fubini_study(2, 4.0)
    zoo = [s4, cp2, product(sphere(2, 1.0), sphere(2, 1.0)), product(sphere(2, 1.0), sphere(3, 1.0)), combine(1.0, s4, 0.3, cp2)]
    for r, nic in zip(zoo, (4.0, 0.0, 0.0, 0.0, 4.0)):
        ok, rep = check_nic(r, FAST)
        assert rep.lower_bound == pytest.approx(nic, abs=1e-9)
        assert rep.certified and rep.converged
        assert abs(rep.min_value - rep.lower_bound) <= conditions.GAP_TOL * max(1.0, r.max_abs())
        ok, rep = check_pic2(r, FAST)
        assert rep.lower_bound == pytest.approx(0.0, abs=1e-9) and rep.certified
    # Thorpe's shifted bounds at n = 4: Kmin and Kmax exactly
    for r, kmin, kmax in ((cp2, 1.0, 4.0), (zoo[4], 1.3, 2.2)):
        ok, kmin_rep, kmax_rep = quarter_pinch_reports(r, FAST)
        assert kmin_rep.lower_bound == pytest.approx(kmin, abs=1e-9)
        assert -kmax_rep.lower_bound == pytest.approx(kmax, abs=1e-9)
        assert kmin_rep.certified and kmax_rep.certified
    # unshifted, lambda_min is 0 on CP^2
    assert np.linalg.eigvalsh(lambda2.operator(cp2.array))[0] == pytest.approx(0.0, abs=1e-12)
    # the weighted Ky Fan bound of the lambda_mu family is exact on S^4
    rep = minimize_frame(s4, "lambda_mu", FAST, weights=Weights(0.5, 0.5))
    assert rep.lower_bound == pytest.approx(25.0 / 16.0, abs=1e-12) and rep.certified


def test_descend_stops_at_the_bound():
    # the same stack with and without stop_at: the stopped minimum is a
    # frame value within the gap of the full minimum
    gap = conditions.GAP_TOL * 4.0
    for r, kind, sign, lower in (
        (fubini_study(2, 4.0), "sectional", 1.0, 1.0),
        (fubini_study(2, 4.0), "sectional", -1.0, -4.0),
        (pad_euclidean(sphere(4, 1.0), 2), "isotropic", 1.0, 0.0),
    ):
        obj = frame_objective(r, kind)
        v0 = np.stack([random_frame([r.n, i, 75], r.n, k=obj.rows).vectors for i in range(16)])
        full_vals, _, full_iters, *_ = descend(obj, v0, [-np.inf], [sign], [16])
        vals, frames, iters, *_ = descend(obj, v0, [lower + gap], [sign], [16])
        assert vals.min() <= lower + gap
        assert full_vals.min() - 1e-14 <= vals.min() <= full_vals.min() + gap
        assert iters.max() < full_iters.max()
        best = int(np.argmin(vals))
        assert sign * obj.value(frames[best]) == vals[best]

    # a certified report is converged though its gradient is not yet small
    ok, rep = check_pic2(fubini_study(2, 4.0), FAST)
    assert rep.certified and rep.converged and rep.grad_norm > stiefel.GRAD_TOL

    # a warm start already at the bound stops the batch at iteration 0, and
    # the report counts as converged because it is certified
    prod = product(sphere(2, 1.0), sphere(2, 1.0))
    mixed = Frame(n=4, vectors=np.eye(4))
    obj = _CountingObjective(frame_objective(prod, "isotropic"))
    v0 = np.stack([mixed.vectors] + [random_frame([i, 76], 4).vectors for i in range(8)])
    vals, _, iters, *_ = descend(obj, v0, [conditions.GAP_TOL], [1.0], [9])
    assert vals[0] == 0.0 and not iters.any() and obj.calls == 1
    rep = minimize_searches(prod, ((0, 1.0, (mixed,)),), "isotropic", FAST)[0]
    assert rep.iterations == 0 and rep.min_value == 0.0
    assert rep.certified and rep.converged and rep.lower_bound == 0.0


def test_lambda_mu_minimization():
    # on the round sphere the family value is (1 + lam^2)(1 + mu^2) on every frame
    r = sphere(4, 1.0)
    rep = minimize_frame(r, "lambda_mu", FAST, weights=Weights(0.5, 1.0 / 3.0))
    assert rep.min_value == pytest.approx(25.0 / 18.0, abs=1e-9)

    rep = minimize_frame(r, "lambda_mu", FAST, weights=Weights(0.0, 0.0))
    assert rep.min_value == pytest.approx(1.0, abs=1e-9)  # lam = mu = 0 picks K13
    # weights apply only to the lambda_mu objective
    for kind in ("isotropic", "sectional"):
        with pytest.raises(ValueError, match="takes no weights"):
            minimize_frame(r, kind, FAST, weights=Weights(0.5, 0.5))


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


def test_cone_chain_on_perturbed_spheres():
    # the source paper's chain of cones: weak 1/4-pinching => PIC2 => NIC.
    # A minimum is only an upper bound, so an implication is tested only
    # where its premise is certified, and its conclusion is read from the
    # frame witness; every lower bound lies below its minimum
    opts = MinimizeOpts()
    proven = {"pinched": 0, "pic2": 0}
    for n in (4, 5, 6):
        b = random_tensor([72, n], n)
        b = combine(1.0 / b.max_abs(), b, 0.0, b)
        for t in (0.0, 0.1, 0.25, 0.5, 1.0):
            r = combine(1.0, sphere(n, 1.0), t, b)
            tol = 1e-12 * max(1.0, r.max_abs())
            pinched, kmin_rep, kmax_rep = quarter_pinch_reports(r, opts)
            pic2, pic2_rep = check_pic2(r, opts)
            nic, nic_rep = check_nic(r, opts)
            for rep in (kmin_rep, kmax_rep, pic2_rep, nic_rep):
                assert rep.lower_bound <= rep.min_value + tol, (n, t, rep)
            if pinched and kmin_rep.certified and kmax_rep.certified:
                proven["pinched"] += 1
                assert pic2_rep.min_value >= -opts.margin, (n, t)
            if pic2 and pic2_rep.certified:
                proven["pic2"] += 1
                assert nic_rep.min_value >= -opts.margin, (n, t)
    assert proven["pinched"] >= 3 and proven["pic2"] >= 6, proven


def _same_report(a, b) -> bool:
    """Every field of two reports bitwise equal, frames included."""
    fields = ("min_value", "restarts", "iterations", "grad_norm", "converged", "boundary", "lower_bound", "certified")
    return all(getattr(a, f) == getattr(b, f) for f in fields) and np.array_equal(a.argmin_frame.vectors, b.argmin_frame.vectors)


def test_grouped_searches_report_as_alone(monkeypatch):
    # Kmin and Kmax share one signed stack, with and without warm starts,
    # and each report is bitwise the one its search makes alone; the
    # quarter-pinch check makes that one descent
    calls = []

    def counting(*args):
        calls.append(args)
        return descend(*args)

    s4, cp2 = sphere(4, 1.0), fubini_study(2, 4.0)
    tensors = [s4, cp2, product(sphere(2, 1.0), sphere(2, 1.0)), product(sphere(2, 1.0), sphere(3, 1.0)), combine(1.0, s4, 0.3, cp2)]
    tensors += [random_tensor([n, 111], n) for n in (5, 6, 9)]
    for r in tensors:
        warm = (random_frame([r.n, 112], r.n, k=2),), (random_frame([r.n, 113], r.n, k=2),)
        for init in (((), ()), warm):
            alone = [minimize_searches(r, ((0, sign, frames),), "sectional", FAST)[0] for sign, frames in zip((1.0, -1.0), init)]
            shared = minimize_searches(r, ((0, 1.0, init[0]), (0, -1.0, init[1])), "sectional", FAST)
            assert all(_same_report(a, b) for a, b in zip(alone, shared)), r.n
        monkeypatch.setattr(conditions, "descend", counting)
        ok, kmin_rep, kmax_rep = quarter_pinch_reports(r, FAST)
        monkeypatch.setattr(conditions, "descend", descend)
        assert len(calls) == 1 and len(calls.pop()[1]) == 2 * FAST.restarts
        # the check sets only the first report's boundary
        assert _same_report(replace(kmin_rep, boundary=False), minimize_frame(r, "sectional", FAST))
        assert _same_report(kmax_rep, minimize_searches(r, ((0, -1.0, ()),), "sectional", FAST)[0])


def test_a_search_at_its_stop_leaves_the_others_running():
    # CP^2's Kmin search reaches its exact bound within a few iterations;
    # the Kmax search sharing its stack has no stop and runs on, start for
    # start bitwise as alone with sign -1
    r = fubini_study(2, 4.0)
    a = np.stack([random_frame([i, 121], 4, k=2).vectors for i in range(8)])
    b = np.stack([random_frame([i, 122], 4, k=2).vectors for i in range(8)])
    stop = 1.0 + conditions.GAP_TOL * 4.0
    shared = descend(frame_objective(r, "sectional"), np.concatenate((a, b)), [stop, -np.inf], [1.0, -1.0], [8, 8])
    alone_a = descend(frame_objective(r, "sectional"), a, [stop], [1.0], [8])
    alone_b = descend(frame_objective(r, "sectional"), b, [-np.inf], [-1.0], [8])
    iters = shared[2]
    assert shared[0][:8].min() <= stop and iters[:8].max() < iters[8:].max()
    for got, want_a, want_b in zip(shared, alone_a, alone_b):
        assert np.array_equal(got[:8], want_a) and np.array_equal(got[8:], want_b)


def test_padded_stack_keeps_narrow_frames_flat(monkeypatch):
    # NIC searches on R^n share the PIC2 stack on R^n x R^2: their starts
    # are R^n's, padded with two zero columns that stay exactly 0, and
    # their reports lose the padding
    seen = []

    def recording(*args):
        out = descend(*args)
        seen.append((args[1], out))
        return out

    monkeypatch.setattr(conditions, "descend", recording)
    for n in (4, 6, 9):
        r = random_tensor([n, 131], n)
        nic, pic2 = conditions.minimize_searches(r, ((0, 1.0, ()), (2, 1.0, ())), "isotropic", FAST)
        alone = _start_stack_of(monkeypatch, r, "isotropic", FAST)
        monkeypatch.setattr(conditions, "descend", recording)
        (v0, (vals, frames, iters, *_)), = seen
        seen.clear()
        assert np.array_equal(v0[:8, :, :n], alone)
        assert np.all(v0[:8, :, n:] == 0.0) and np.all(frames[:8, :, n:] == 0.0)
        assert iters[:8].max() > 0
        assert nic.argmin_frame.n == n and pic2.argmin_frame.n == n + 2
        assert nic.min_value == vals[:8].min() and isotropic_curvature(r, nic.argmin_frame) == pytest.approx(nic.min_value, abs=1e-12)


def test_objective_on_flat_products_is_the_padded_one():
    # a stack in R^{n+j} is evaluated on R x R^j: the padded tensor's values
    # and gradients up to round-off, with flat gradient columns exactly 0
    for n in (4, 5, 7):
        r = random_tensor([n, 141], n)
        for kind, w in (("isotropic", None), ("sectional", None), ("lambda_mu", Weights(0.5, -0.3))):
            for j in (1, 2):
                k = 2 if kind == "sectional" else 4
                v = np.stack([random_frame([n, j, i, 142], n + j, k=k).vectors for i in range(6)])
                vals, grads = frame_objective(r, kind, w).batch(v)
                want_vals, want_grads = frame_objective(pad_euclidean(r, j), kind, w).batch(v)
                scale = max(1.0, r.max_abs())
                assert np.allclose(vals, want_vals, rtol=0.0, atol=1e-13 * scale)
                assert np.allclose(grads, want_grads, rtol=0.0, atol=1e-13 * scale)
                assert grads.shape == v.shape and np.all(grads[:, :, n:] == 0.0)


def test_pic2_matches_nic_on_the_padded_tensor(monkeypatch):
    # the PIC2 search on R is the NIC search on pad_euclidean(R, 2): the
    # same decision, boundary, certificate and bound bitwise, the same
    # minimum up to round-off; it builds no padded tensor
    def refuse(*args):
        raise AssertionError("check_pic2 padded the tensor")

    monkeypatch.setattr(conditions, "pad_euclidean", refuse)
    s4, cp2 = sphere(4, 1.0), fubini_study(2, 4.0)
    tensors = [s4, cp2, product(sphere(2, 1.0), sphere(2, 1.0)), product(sphere(2, 1.0), sphere(3, 1.0)), combine(1.0, s4, 0.3, cp2)]
    tensors += [random_tensor([n, 151], n) for n in range(2, 10)] + [sphere(2, 1.0), sphere(3, -0.5)]
    for r in tensors:
        want_ok, want = check_nic(pad_euclidean(r, 2), FAST)
        ok, rep = check_pic2(r, FAST)
        assert (ok, rep.boundary, rep.certified, rep.lower_bound) == (want_ok, want.boundary, want.certified, want.lower_bound), r.n
        assert abs(rep.min_value - want.min_value) <= 1e-12 * max(1.0, r.max_abs()), r.n
        assert rep.argmin_frame.n == r.n + 2 and rep.restarts == want.restarts


def test_holonomy_orbit_invariance():
    prod = product(sphere(2, 1.0), sphere(2, 1.0))
    e = np.eye(4)
    mixed = Frame(n=4, vectors=np.array([e[0], e[1], e[2], e[3]]))
    worst = holonomy_orbit_invariance(prod, mixed, functools.partial(random_block_rotation, dims=(2, 2)), samples=100, seed=0)
    assert worst < 1e-10

    fs = fubini_study(2, 4.0)
    zero = Frame(n=4, vectors=np.array([e[0], e[2], e[1], e[3]]))  # (x, Jx, y, Jy)
    assert abs(isotropic_curvature(fs, zero)) < 1e-12
    worst = holonomy_orbit_invariance(fs, zero, functools.partial(random_unitary, m=2), samples=100, seed=0)
    assert worst < 1e-10
    # a rotated zero frame is a zero frame up to round-off at the scale of
    # R, and is accepted as one at every scale
    rotated = Frame(n=4, vectors=zero.vectors @ random_unitary([1, 2], 2).T)
    for c in (4.0, 4e8):
        worst = holonomy_orbit_invariance(fubini_study(2, c), rotated, functools.partial(random_unitary, m=2), samples=100, seed=0)
        assert worst < 1e-14 * c


def test_holonomy_errors():
    prod = product(sphere(2, 1.0), sphere(2, 1.0))
    e = np.eye(4)
    alt = Frame(n=4, vectors=np.array([e[0], e[2], e[1], e[3]]))  # u = 2: not a zero frame
    with pytest.raises(ValueError, match="zero frame"):
        holonomy_orbit_invariance(prod, alt, functools.partial(random_block_rotation, dims=(2, 2)))
    mixed = Frame(n=4, vectors=np.array([e[0], e[1], e[2], e[3]]))
    with pytest.raises(ValueError, match="group acts"):
        holonomy_orbit_invariance(prod, mixed, functools.partial(random_block_rotation, dims=(2, 3)))
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples"):
            holonomy_orbit_invariance(prod, mixed, functools.partial(random_block_rotation, dims=(2, 2)), samples=samples)


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
    with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -1"):
        MinimizeOpts(seed=-1)
    for margin in (0.0, -1e-7, np.nan, np.inf):
        with pytest.raises(ValueError, match="margin"):
            MinimizeOpts(margin=margin)
