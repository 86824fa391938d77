import subprocess
import sys

import numpy as np
import pytest

from curvlab.conditions import Weights
from curvlab.frames import (
    RANK_TOL,
    Frame,
    _expm_skew,
    complete_basis,
    cyclic_frames,
    lift_frame,
    random_block_rotation,
    random_frame,
    random_unitary,
)
from curvlab.stiefel import orthonormal_rows
from curvlab.tensors import standard_complex_structure


def test_frame_validation():
    v = np.eye(4)
    f = Frame(n=4, vectors=v)
    assert f.k == 4
    assert f.gram_residual() < 1e-15
    with pytest.raises(ValueError, match="orthonormal"):
        Frame(n=4, vectors=np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]]))
    with pytest.raises(ValueError):
        Frame(n=4, vectors=np.ones((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        Frame(n=4, vectors=np.full((2, 4), np.nan))


def test_frame_immutable():
    f = random_frame(0, 5)
    with pytest.raises(ValueError):
        f.vectors[0, 0] = 2.0


def _qr_rows(m):
    """The one-matrix stack of ``orthonormal_rows``: rows and |R_jj|."""
    q, rdiag = orthonormal_rows(np.asarray(m, dtype=float)[None])
    return q[0], rdiag[0]


def test_orthonormalize_fixed_points():
    e = np.eye(6)[:4]
    q, _ = _qr_rows(e)
    assert np.max(np.abs(q - e)) < 1e-14

    m = np.array([np.eye(4)[0], np.eye(4)[0] + np.eye(4)[1], np.eye(4)[2], np.eye(4)[3]])
    q, _ = _qr_rows(m)
    assert np.max(np.abs(q - np.eye(4))) < 1e-14


def test_orthonormalize_random_and_rank():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.standard_normal((4, 6))
        q, rdiag = _qr_rows(m)
        assert Frame(n=6, vectors=q).gram_residual() < 1e-12
        assert rdiag.min() > RANK_TOL
    rows = rng.standard_normal((3, 5))
    assert _qr_rows(np.vstack([rows, rows[0] + rows[1]]))[1].min() <= RANK_TOL


def test_orthonormalize_keeps_the_flag():
    # row j of the frame lies in the span of input rows 0..j and has a
    # positive inner product with input row j
    rng = np.random.default_rng(1)
    for k, n in ((1, 3), (2, 2), (2, 5), (3, 7), (4, 4), (4, 9)):
        for _ in range(10):
            m = rng.standard_normal((k, n))
            v = _qr_rows(m)[0]
            for j in range(k):
                coef = np.linalg.lstsq(m[: j + 1].T, v[j], rcond=None)[0]
                assert np.max(np.abs(m[: j + 1].T @ coef - v[j])) < 1e-12
                assert v[j] @ m[j] > 0.0
    assert _qr_rows(np.vstack([m[:3], m[0]]))[1].min() <= RANK_TOL


def test_random_frame_deterministic():
    a = random_frame(3, 6)
    b = random_frame(3, 6)
    c = random_frame(4, 6)
    assert np.array_equal(a.vectors, b.vectors)
    assert not np.array_equal(a.vectors, c.vectors)
    assert a.gram_residual() < 1e-12
    assert random_frame(0, 5, k=2).k == 2
    with pytest.raises(ValueError):
        random_frame(0, 5, k=0)


def test_pcg64_draws_are_default_rng_draws():
    # random_frame and the multistart starts build their generator from
    # PCG64 directly; the stream is bitwise that of default_rng.
    for seed, i, k, n in ((0, 0, 4, 4), (3, 7, 2, 9), (62, 63, 4, 14), (2**40 + 5, 1, 4, 6)):
        direct = np.random.Generator(np.random.PCG64([seed, i])).standard_normal((k, n))
        assert np.array_equal(direct, np.random.default_rng([seed, i]).standard_normal((k, n)))
    assert np.array_equal(
        np.random.Generator(np.random.PCG64(5)).standard_normal((3, 5)),
        np.random.default_rng(5).standard_normal((3, 5)),
    )


def test_lift_frame_formulas():
    f = random_frame(1, 5)
    lifted = lift_frame(f, Weights(1.0, 1.0))
    expect = np.zeros((4, 7))
    expect[:, :5] = f.vectors
    assert np.max(np.abs(lifted.vectors - expect)) < 1e-15

    lifted = lift_frame(f, Weights(0.0, 1.0))
    e4 = lifted.vectors[3]
    assert abs(e4[5] - 1.0) < 1e-15
    assert np.max(np.abs(e4[:5])) < 1e-15 and abs(e4[6]) < 1e-15

    # mu scales row 2 and puts the complement in the last slot
    lifted = lift_frame(f, Weights(0.6, -0.8))
    assert np.max(np.abs(lifted.vectors[1][:5] + 0.8 * f.vectors[1])) < 1e-15
    assert abs(lifted.vectors[1][6] - 0.6) < 1e-15


def test_lift_frame_gram_grid():
    vals = [-1.0, -0.5, 0.0, 0.5, 1.0]
    worst = 0.0
    for i in range(50):
        n = 4 + i % 5
        f = random_frame(i, n)
        for lam in vals:
            for mu in vals:
                worst = max(worst, lift_frame(f, Weights(lam, mu)).gram_residual())
    assert worst < 1e-13


def test_cyclic_frames():
    f = random_frame(2, 6)
    f1, f2, f3 = cyclic_frames(f)
    assert f1 is f
    v = f.vectors
    assert np.array_equal(f2.vectors, v[[1, 2, 0, 3]])
    assert np.array_equal(f3.vectors, v[[2, 0, 1, 3]])
    # applying the underlying permutation three times is the identity
    perm = [1, 2, 0, 3]
    v3 = v[perm][perm][perm]
    assert np.array_equal(v3, v)
    # all spans agree
    p0 = v.T @ v
    for g in (f2, f3):
        pg = g.vectors.T @ g.vectors
        assert np.max(np.abs(pg - p0)) < 1e-12
        assert g.gram_residual() < 1e-14


def test_complete_basis():
    f = random_frame(5, 7)
    b = complete_basis(f)
    assert b.shape == (7, 7)
    assert np.max(np.abs(b[:4] - f.vectors)) == 0.0
    assert np.max(np.abs(b @ b.T - np.eye(7))) < 1e-12
    # deterministic
    assert np.array_equal(b, complete_basis(f))


def test_random_unitary_deterministic():
    a = random_unitary(9, 2)
    b = random_unitary(9, 2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, random_unitary(10, 2))


def test_skew_exponential_matches_scipy():
    # scipy is the reference only; curvlab itself does not import it
    from scipy.linalg import expm

    rng = np.random.default_rng(17)
    for n in range(1, 13):
        for scale in (0.1, 1.0, 5.0):
            a = scale * rng.standard_normal((n, n))
            a = a - a.T
            err = np.max(np.abs(_expm_skew(a) - expm(a)))
            assert err <= 1e-12 * max(1.0, np.linalg.norm(a, 2))
    for m in range(1, 7):
        j = standard_complex_structure(m)
        for seed in range(5):
            u = random_unitary(seed, m)
            assert np.max(np.abs(u.T @ u - np.eye(2 * m))) < 1e-13
            assert np.max(np.abs(u @ j - j @ u)) < 1e-13


_SCIPY_MODULES = """
import sys
import numpy as np
import functools
import curvlab, curvlab.cli
from curvlab import Frame, fubini_study, holonomy_orbit_invariance
curvlab.random_unitary(0, 3)
curvlab.random_block_rotation(0, (2, 3))
zero = Frame(n=4, vectors=np.eye(4)[[0, 2, 1, 3]])  # (x, Jx, y, Jy)
holonomy_orbit_invariance(fubini_study(2, 4.0), zero, functools.partial(curvlab.random_unitary, m=2), samples=10)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_curvlab_loads_no_scipy():
    # a fresh interpreter: other test modules import scipy into this one
    proc = subprocess.run([sys.executable, "-c", _SCIPY_MODULES], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_random_block_rotation():
    u = random_block_rotation(3, (2, 3))
    assert u.shape == (5, 5)
    assert np.max(np.abs(u.T @ u - np.eye(5))) < 1e-12
    assert np.max(np.abs(u[:2, 2:])) == 0.0
    assert np.max(np.abs(u[2:, :2])) == 0.0
    assert abs(np.linalg.det(u) - 1.0) < 1e-10
