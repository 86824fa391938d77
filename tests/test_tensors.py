import itertools
import json

import numpy as np
import pytest

from curvlab import conditions, lambda2, tensors
from curvlab.cli import identity_battery
from curvlab.conditions import MinimizeOpts, Weights
from curvlab.frames import random_frame
from curvlab.flow import FlowOpts, integrate, quadratic_reaction
from curvlab.serialization import read_tensor, tensor_from_json, tensor_to_json, write_tensor
from curvlab.tensors import (
    CurvatureTensor,
    combine,
    fubini_study,
    pad_euclidean,
    product,
    project_curvature,
    random_tensor,
    ricci,
    scalar_curvature,
    sectional,
    sphere,
    standard_complex_structure,
    symmetry_residuals,
)


def _flat(i, j, k, l, n):
    return ((i * n + j) * n + k) * n + l


def _projection_oracle(raw, n):
    # Independent oracle: assemble the symmetry constraints as a linear
    # system and project onto its null space via SVD.
    size = n**4
    rows = []
    for i, j, k, l in itertools.product(range(n), repeat=4):
        r1 = np.zeros(size)
        r1[_flat(i, j, k, l, n)] += 1.0
        r1[_flat(j, i, k, l, n)] += 1.0
        r2 = np.zeros(size)
        r2[_flat(i, j, k, l, n)] += 1.0
        r2[_flat(i, j, l, k, n)] += 1.0
        r3 = np.zeros(size)
        r3[_flat(i, j, k, l, n)] += 1.0
        r3[_flat(k, l, i, j, n)] -= 1.0
        r4 = np.zeros(size)
        r4[_flat(i, j, k, l, n)] += 1.0
        r4[_flat(i, k, l, j, n)] += 1.0
        r4[_flat(i, l, j, k, n)] += 1.0
        rows.extend([r1, r2, r3, r4])
    a = np.asarray(rows)
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    null_mask = np.ones(size, dtype=bool)
    null_mask[: s.size] = s < 1e-10
    basis = vt[null_mask]
    return (basis.T @ (basis @ np.asarray(raw, dtype=float).reshape(-1))).reshape(n, n, n, n)


def test_projection_matches_nullspace_oracle():
    n = 4
    rng = np.random.default_rng(0)
    for _ in range(5):
        raw = rng.standard_normal((n, n, n, n))
        expected = _projection_oracle(raw, n)
        got = project_curvature(raw, n).array
        assert np.max(np.abs(got - expected)) < 1e-12


def test_projection_matches_nullspace_oracle_up_to_n8():
    # The symmetry constraints only couple components with the same index
    # multiset, so the projection acts block by block and its restriction
    # to the components with indices in a 4-set S is the projection in
    # dimension 4 of the raw components on S: the n = 4 oracle checks
    # every n through seeded 4-subsets.
    rng = np.random.default_rng(7)
    for n in range(4, 9):
        raw = rng.standard_normal((n, n, n, n))
        got = project_curvature(raw, n).array
        for _ in range(1 if n == 4 else 3):
            s = np.sort(rng.choice(n, 4, replace=False))
            block = np.ix_(s, s, s, s)
            assert np.max(np.abs(got[block] - _projection_oracle(raw[block], 4))) < 1e-12


def test_projection_is_exact_on_the_pair_symmetries():
    rng = np.random.default_rng(8)
    for n in range(2, 13):
        raw = rng.standard_normal((n, n, n, n))
        anti, pair, bianchi = symmetry_residuals(project_curvature(raw, n).array)
        assert anti == 0.0 and pair == 0.0
        assert bianchi < 1e-15


def test_symmetry_space_dimension():
    # The oracle's null space must have dimension n^2 (n^2 - 1) / 12.
    n = 4
    size = n**4
    rows = []
    for i, j, k, l in itertools.product(range(n), repeat=4):
        r = np.zeros(size)
        r[_flat(i, j, k, l, n)] += 1.0
        r[_flat(j, i, k, l, n)] += 1.0
        rows.append(r.copy())
        r = np.zeros(size)
        r[_flat(i, j, k, l, n)] += 1.0
        r[_flat(i, j, l, k, n)] += 1.0
        rows.append(r)
        r = np.zeros(size)
        r[_flat(i, j, k, l, n)] += 1.0
        r[_flat(k, l, i, j, n)] -= 1.0
        rows.append(r)
        r = np.zeros(size)
        r[_flat(i, j, k, l, n)] += 1.0
        r[_flat(i, k, l, j, n)] += 1.0
        r[_flat(i, l, j, k, n)] += 1.0
        rows.append(r)
    s = np.linalg.svd(np.asarray(rows), compute_uv=False)
    assert int((s < 1e-10).sum()) + (size - s.size) == 20  # 16 * 15 / 12


def test_projection_single_entry_frozen_value():
    # Basis element at (1,2,3,4) in 1-based indexing; the orthogonal
    # projection leaves 1/12 on that component (oracle-computed, frozen).
    raw = np.zeros((4, 4, 4, 4))
    raw[0, 1, 2, 3] = 1.0
    p = project_curvature(raw, 4)
    assert abs(p.array[0, 1, 2, 3] - 1.0 / 12.0) < 1e-15
    assert np.max(np.abs(p.array - _projection_oracle(raw, 4))) < 1e-14


def test_projection_idempotent():
    rng = np.random.default_rng(1)
    for trial in range(100):
        n = 4 + trial % 5
        raw = rng.standard_normal((n, n, n, n))
        once = project_curvature(raw, n)
        twice = project_curvature(once.array, n)
        assert np.max(np.abs(once.comps - twice.comps)) < 1e-13


def test_projection_fixes_valid_tensors():
    s = sphere(5, 2.5)
    again = project_curvature(s.array, 5)
    assert np.max(np.abs(again.comps - s.comps)) < 1e-14
    zero = project_curvature(np.zeros((4, 4, 4, 4)), 4)
    assert zero.max_abs() == 0.0


def test_projection_input_validation():
    with pytest.raises(ValueError):
        project_curvature(np.zeros(17), 2)
    with pytest.raises(ValueError):
        project_curvature(np.full(16, np.nan), 2)
    with pytest.raises(ValueError):
        project_curvature(np.zeros(1), 1)


def test_tensor_validation():
    bad = np.zeros((3, 3, 3, 3))
    bad[0, 1, 0, 1] = 1.0  # missing the antisymmetric partners
    with pytest.raises(ValueError, match="symmetry violation"):
        CurvatureTensor(n=3, comps=bad.reshape(-1))
    with pytest.raises(ValueError, match="components"):
        CurvatureTensor(n=3, comps=np.zeros(10))
    with pytest.raises(ValueError, match="finite"):
        CurvatureTensor(n=2, comps=np.full(16, np.inf))
    with pytest.raises(ValueError):
        CurvatureTensor(n=1, comps=np.zeros(1))


def test_symmetry_tolerance_scales_with_the_tensor():
    # round-off in building M grows with its entries: at max |M| ~ 1e7 the
    # Bianchi residual of a valid combination is ~2e-9, past an absolute
    # 1e-9, and such tensors build and round-trip
    for scale in (1e7, 1e8):
        r = combine(scale, random_tensor(3, 6), 0.0, sphere(6, 1.0))
        assert np.array_equal(tensor_from_json(tensor_to_json(r)).operator, r.operator)
    # broken tensors at scale still fail: a Lambda^4 part or a pair
    # asymmetry of 1e-3 max |M|, or of twice the tolerance
    big = 1e8 * sphere(4, 1.0).operator
    tol = tensors.SYM_TOL * 1e-3 * 1e8
    for size in (1e-3 * 1e8, 2.0 * tol):
        lam4 = big.copy()
        lam4[0, 5] = lam4[5, 0] = size  # M[(01),(23)], a pure Lambda^4 part at n = 4
        pair = big.copy()
        pair[0, 1] = size
        for m in (lam4, pair):
            with pytest.raises(ValueError, match="symmetry violation"):
                CurvatureTensor.from_operator(4, m)
    pair[0, 1] = 0.5 * tol
    assert CurvatureTensor.from_operator(4, pair).operator[0, 1] == 0.5 * tol


def test_from_operator_checks_its_input_and_keeps_a_read_only_copy():
    m = np.diag([1.0, 2.0, 3.0])
    r = CurvatureTensor.from_operator(3, m)
    m[0, 0] = 5.0
    assert r.operator[0, 0] == 1.0 and r.max_abs() == 3.0
    with pytest.raises(ValueError):
        r.operator[0, 0] = 5.0
    with pytest.raises(AttributeError):
        r.operator = m
    assert np.array_equal(r.operator, CurvatureTensor(n=3, comps=r.comps).operator)
    with pytest.raises(ValueError, match="3 x 3 operator for n=3"):
        CurvatureTensor.from_operator(3, np.eye(4))
    with pytest.raises(ValueError, match="finite"):
        CurvatureTensor.from_operator(3, np.full((3, 3), np.nan))
    with pytest.raises(ValueError, match="dimension"):
        CurvatureTensor.from_operator(1, np.zeros((0, 0)))


def test_tensor_immutable():
    s = sphere(4, 1.0)
    with pytest.raises(ValueError):
        s.comps[0] = 5.0


def test_model_symmetry_residuals():
    models = [
        sphere(4, 1.0),
        sphere(7, -0.3),
        fubini_study(2, 4.0),
        fubini_study(3, 1.5),
        product(sphere(2, 1.0), sphere(3, 2.0)),
        pad_euclidean(sphere(4, 1.0), 2),
        random_tensor(3, 6),
    ]
    for r in models:
        assert max(symmetry_residuals(r.array)) < 1e-13


def test_sectional_sphere():
    s = sphere(4, 2.0)
    e = np.eye(4)
    assert sectional(s, e[0], e[1]) == pytest.approx(2.0, abs=1e-14)
    # plane-basis invariance, non-orthonormal basis of the same plane
    assert sectional(s, 2 * e[0], e[0] + e[1]) == pytest.approx(2.0, abs=1e-12)


def test_sectional_basis_invariance():
    rng = np.random.default_rng(7)
    r = random_tensor(11, 5)
    for _ in range(25):
        x, y = rng.standard_normal((2, 5))
        a, b, c, d = rng.standard_normal(4)
        if abs(a * d - b * c) < 0.1:
            continue
        k1 = sectional(r, x, y)
        k2 = sectional(r, a * x + b * y, c * x + d * y)
        assert abs(k1 - k2) < 1e-12 * max(1.0, abs(k1))


def test_sectional_degenerate_plane():
    s = sphere(4, 1.0)
    e = np.eye(4)
    with pytest.raises(ValueError, match="degenerate"):
        sectional(s, e[0], 2 * e[0])
    with pytest.raises(ValueError):
        sectional(s, np.zeros(4), e[1])
    with pytest.raises(ValueError, match=r"shape \(4,\)"):
        sectional(s, np.ones(3), np.ones(3))


def test_sectional_plane_test_is_relative():
    # an orthogonal pair spans a plane at any length (the absolute test
    # rejected c <= 1e-3); a parallel or zero pair is degenerate at any
    s = sphere(4, 1.0)
    e = np.eye(4)
    for c in (1e-4, 1e-3, 1.0, 1e3):
        assert sectional(s, c * e[0], c * e[1]) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError, match="degenerate plane"):
            sectional(s, c * e[0], 2 * c * e[0])
    with pytest.raises(ValueError, match="degenerate plane"):
        sectional(s, np.zeros(4), np.zeros(4))


def test_ricci_against_loop_oracle():
    r = random_tensor(5, 5)
    arr = r.array
    expected = np.zeros((5, 5))
    for j in range(5):
        for l in range(5):
            expected[j, l] = sum(arr[i, j, i, l] for i in range(5))
    got = ricci(r)
    assert np.max(np.abs(got - expected)) < 1e-14
    assert np.max(np.abs(got - got.T)) < 1e-13
    assert scalar_curvature(r) == pytest.approx(np.trace(expected), abs=1e-12)


def test_scalar_curvature_is_twice_the_operator_trace():
    # 2 tr M against the trace of the einsum Ricci contraction of the n^4 array
    zoo = [sphere(4, 1.0), sphere(6, -0.5), fubini_study(2, 4.0), fubini_study(3, -1.5),
           product(sphere(2, 1.0), sphere(3, 1.0)), pad_euclidean(fubini_study(2, 4.0), 2),
           combine(1.0, sphere(4, 1.0), 0.3, fubini_study(2, 4.0))]
    randoms = [random_tensor([n, 7], n) for n in range(2, 13)]
    randoms.append(combine(1e7, random_tensor(3, 6), 0.0, sphere(6, 1.0)))
    for r in zoo + randoms:
        want = float(np.trace(np.einsum("ijil->jl", r.array)))
        assert abs(scalar_curvature(r) - want) <= 1e-13 * max(1.0, r.max_abs()) * r.n**2
    assert scalar_curvature(sphere(5, 2.0)) == 40.0


def test_ricci_sphere():
    for n in range(4, 9):
        kappa = 0.5 + 0.25 * n
        res = ricci(sphere(n, kappa)) - (n - 1) * kappa * np.eye(n)
        assert np.max(np.abs(res)) < 1e-13


def test_fubini_study_extremes():
    fs = fubini_study(2, 4.0)
    e = np.eye(4)
    j = standard_complex_structure(2)
    assert sectional(fs, e[0], j @ e[0]) == pytest.approx(4.0, abs=1e-12)
    assert sectional(fs, e[0], e[1]) == pytest.approx(1.0, abs=1e-12)
    # sampled planes stay inside [c/4, c]
    rng = np.random.default_rng(2)
    seen = []
    for _ in range(2000):
        x, y = rng.standard_normal((2, 4))
        seen.append(sectional(fs, x, y))
    assert min(seen) > 1.0 - 1e-9
    assert max(seen) < 4.0 + 1e-9
    assert min(seen) < 1.05 and max(seen) > 3.9  # extremes are approached


def test_fubini_study_matches_the_index_formula():
    # the wedge form against c/4 (g_ap g_bq - g_aq g_bp + J_ap J_bq - J_aq J_bp
    # + 2 J_ab J_pq) on the pairs a < b, p < q, bit for bit, signed zeros included
    for m in (2, 3, 4):
        n = 2 * m
        e, j = np.eye(n), standard_complex_structure(m)
        a, b = np.triu_indices(n, 1)
        aa, ab, ba, bb = np.ix_(a, a), np.ix_(a, b), np.ix_(b, a), np.ix_(b, b)
        op = e[aa] * e[bb] - e[ab] * e[ba] + j[aa] * j[bb] - j[ab] * j[ba] + 2.0 * np.outer(j[a, b], j[a, b])
        for c in (4.0, 1.0, -0.3, 1e7):
            want, got = (c / 4.0) * op, fubini_study(m, c).operator
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_fubini_study_rejects_small_m():
    with pytest.raises(ValueError):
        fubini_study(1, 4.0)


def test_product_blocks_and_mixed_zero():
    r1, r2 = sphere(2, 1.0), sphere(3, 2.0)
    p = product(r1, r2)
    assert p.n == 5
    arr = p.array
    assert np.max(np.abs(arr[:2, :2, :2, :2] - r1.array)) == 0.0
    assert np.max(np.abs(arr[2:, 2:, 2:, 2:] - r2.array)) == 0.0
    # a mixed component vanishes
    assert arr[0, 2, 0, 2] == 0.0
    # ricci is block diagonal of factor riccis
    ric = ricci(p)
    assert np.max(np.abs(ric[:2, :2] - ricci(r1))) < 1e-13
    assert np.max(np.abs(ric[2:, 2:] - ricci(r2))) < 1e-13
    assert np.max(np.abs(ric[:2, 2:])) < 1e-13


def test_pad_euclidean():
    s = sphere(4, 1.0)
    padded = pad_euclidean(s, 2)
    assert padded.n == 6
    e = np.eye(6)
    assert sectional(padded, e[0], e[5]) == pytest.approx(0.0, abs=1e-14)
    assert sectional(padded, e[0], e[1]) == pytest.approx(1.0, abs=1e-14)
    assert pad_euclidean(s, 0) is s
    assert pad_euclidean(s, 1).n == 5
    with pytest.raises(ValueError):
        pad_euclidean(s, -1)


def test_combine():
    s2 = sphere(4, 2.0)
    zero = CurvatureTensor(n=4, comps=np.zeros(256))
    half = combine(0.5, s2, 0.5, zero)
    assert np.max(np.abs(half.comps - sphere(4, 1.0).comps)) < 1e-15
    r = random_tensor(1, 4)
    assert np.max(np.abs(combine(1.0, r, 0.0, s2).comps - r.comps)) == 0.0
    with pytest.raises(ValueError):
        combine(1.0, s2, 1.0, sphere(5, 1.0))
    with pytest.raises(ValueError, match="coefficients must be finite"):
        combine(np.nan, s2, 1.0, r)


def test_random_tensor_deterministic():
    a = random_tensor(7, 5)
    b = random_tensor(7, 5)
    c = random_tensor(8, 5)
    assert np.array_equal(a.comps, b.comps)
    assert not np.array_equal(a.comps, c.comps)


def test_equality_and_hash_do_not_raise():
    # tensors compare by identity, so == and hash are total, and a trace
    # holding its final tensor compares as well
    a, b = sphere(4, 1.0), sphere(4, 1.0)
    assert a == a and a != b and len({a, b}) == 2
    assert np.array_equal(a.operator, b.operator)
    opts = FlowOpts(dt=0.01, minimize=MinimizeOpts(restarts=1))
    trace = integrate(a, 0.01, opts)
    assert trace == trace and hash(trace) == hash(trace)
    assert trace != integrate(a, 0.01, opts)


def test_evaluation_call():
    s = sphere(4, 3.0)
    e = np.eye(4)
    assert s(e[0], e[1], e[0], e[1]) == pytest.approx(3.0, abs=1e-14)
    assert s(e[0], e[1], e[2], e[3]) == pytest.approx(0.0, abs=1e-14)


def test_evaluation_call_matches_the_component_sum():
    # R(x, y, z, w) = sum_ijkl R_ijkl x_i y_j z_k w_l on generic vectors,
    # relative to the same sum of absolute values
    rng = np.random.default_rng(11)
    for n in range(2, 10):
        r = combine(1.0, random_tensor([n, 3], n), 0.5, sphere(n, 1.0))
        for _ in range(10):
            x, y, z, w = rng.standard_normal((4, n))
            want = np.einsum("ijkl,i,j,k,l->", r.array, x, y, z, w)
            scale = np.einsum("ijkl,i,j,k,l->", np.abs(r.array), *np.abs([x, y, z, w]))
            assert abs(r(x, y, z, w) - want) <= 1e-14 * scale


def test_evaluation_call_rejects_vectors_of_another_shape():
    r = random_tensor(2, 4)
    x = np.arange(4.0)
    for bad in (np.arange(5.0), np.arange(3.0), np.ones((1, 4)), 1.0):
        for args in ((bad, x, x, x), (x, bad, x, x), (x, x, bad, x), (x, x, x, bad)):
            with pytest.raises(ValueError, match=r"shape \(4,\)"):
                r(*args)
        with pytest.raises(ValueError, match=r"shape \(4,\)"):
            sectional(r, x, bad)


def test_library_paths_read_the_operator_and_never_expand_it(monkeypatch):
    # every evaluation, invariant, identity, check and flow reads M; only
    # `array`/`comps` expand M into the n^4 components
    def refuse(*args):
        raise AssertionError("expanded M into the n^4 array")

    monkeypatch.setattr(lambda2, "expand", refuse)
    monkeypatch.setattr(tensors, "expand", refuse)  # the name `array` looks up
    r, f, w = random_tensor(4, 5), random_frame(4, 5), Weights(0.7, -0.4)
    x, y = np.eye(5)[:2]
    assert sectional(r, x, y) == r(x, y, x, y) == r.operator[0, 0]
    assert np.array_equal(ricci(r), ricci(r).T)
    conditions.cyclic_sum_identity(r, f, w)
    conditions.lift_identity_residual(r, f, w)
    for suite in ("cyclic", "lift"):
        assert identity_battery(suite, 10, 1)["passed"]
    opts = MinimizeOpts(restarts=2, seed=0)
    conditions.check_nic(r, opts)
    conditions.check_pic2(r, opts)
    conditions.quarter_pinch_reports(r, opts)
    trace = integrate(fubini_study(2, 4.0), 0.01, FlowOpts(dt=0.005, minimize=opts))
    assert len(trace.rows) == 3
    with pytest.raises(AssertionError, match="n\\^4 array"):
        r.array


def test_tensors_built_from_operators_skip_the_component_check(monkeypatch, tmp_path):
    # only raw components pay for the n^4 symmetry check; every tensor
    # curvlab builds comes from its operator
    calls = []
    check = tensors.symmetry_residuals
    monkeypatch.setattr(tensors, "symmetry_residuals", lambda r: calls.append(r.shape[0]) or check(r))
    s = sphere(4, 1.0)
    r = combine(1.0, random_tensor(3, 5), 0.5, pad_euclidean(fubini_study(2, 4.0), 1))
    product(sphere(2, 1.0), s)
    quadratic_reaction(r)
    path = tmp_path / "r.json"
    write_tensor(str(path), r)
    read_tensor(str(path))
    trace = integrate(r, 0.02, FlowOpts(dt=0.005, minimize=MinimizeOpts(restarts=1)))
    assert len(trace.rows) > 2 and trace.final.n == 5
    assert calls == []
    path.write_text(json.dumps({"n": 4, "components": s.comps.tolist()}))
    assert np.array_equal(read_tensor(str(path)).operator, s.operator)
    assert calls == [4]
