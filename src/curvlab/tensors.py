"""Algebraic curvature tensors on R^n and the model geometries.

A curvature tensor carries the classical symmetries of a Riemannian
curvature tensor at a point: antisymmetry in the first and second index
pairs, symmetry under pair exchange, and the first Bianchi identity.  The
sign convention makes sectional curvature ``K(X, Y) = R(X, Y, X, Y)`` for
orthonormal ``X, Y``, positive on the round sphere.  A tensor is held as
its operator M on Lambda^2 (``lambda2``).  Evaluation, ``sectional`` and
``ricci`` read M as forms (x^y)^T M (z^w) (``lambda2.wedge``); the n^4
components (``array``, ``comps``), expanded from M on first use, serve
only components files, tests and ``flow.decomposition_residual``.

Model constructors cover the spaces needed for borderline experiments:
round spheres, complex projective space with the standard Kaehler
space-form tensor, metric products, flat paddings, linear combinations and
seeded random tensors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .lambda2 import _pairs, _quads, expand, operator, place, project, wedge

__all__ = [
    "CurvatureTensor",
    "project_curvature",
    "symmetry_residuals",
    "sectional",
    "ricci",
    "scalar_curvature",
    "sphere",
    "standard_complex_structure",
    "fubini_study",
    "product",
    "pad_euclidean",
    "combine",
    "random_tensor",
]

SYM_TOL = 1e-9
PLANE_TOL = 1e-12


@dataclass(frozen=True, init=False, eq=False)
class CurvatureTensor:
    """Algebraic curvature tensor on R^n, held as its Lambda^2 operator.

    The constructor takes ``n**4`` raw components, entry ``(i, j, k, l)``
    at offset ``i*n**3 + j*n**2 + k*n + l``, checks every symmetry on them
    (``symmetry_residuals``) and keeps their M; ``from_operator`` takes M.
    Each residual must be within ``SYM_TOL * max(1, 1e-3 max |M|)``,
    relative past max |M| = 1000, as M's round-off grows with its entries.
    Tensors compare and hash by identity; compare ``operator`` for values.

    Attributes
    ----------
    n : int
        Ambient dimension, at least 2.
    operator : ndarray
        The read-only N x N matrix M[(i<j), (k<l)] = R_ijkl, pairs in
        lexicographic order.
    """

    n: int
    operator: np.ndarray

    def __init__(self, n: int, comps):
        if n < 2:
            raise ValueError(f"dimension must be >= 2, got {n}")
        comps = np.asarray(comps, dtype=float).reshape(-1)
        if comps.size != n**4:
            raise ValueError(f"expected {n**4} components for n={n}, got {comps.size}")
        if not np.all(np.isfinite(comps)):
            raise ValueError("curvature components must be finite")
        r = comps.reshape(n, n, n, n)
        self._hold(n, operator(r), *symmetry_residuals(r))

    @classmethod
    def from_operator(cls, n: int, m) -> CurvatureTensor:
        """The tensor with the N x N operator M, checked only on what M can
        break: finite entries, the pair residual max |M - M^T| and the Bianchi
        residual max |M[ij,kl] - M[ik,jl] + M[il,jk]| at i < j < k < l."""
        if n < 2:
            raise ValueError(f"dimension must be >= 2, got {n}")
        big = n * (n - 1) // 2
        m = np.array(m, dtype=float)
        if m.shape != (big, big):
            raise ValueError(f"expected a {big} x {big} operator for n={n}, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("curvature components must be finite")
        v = m.reshape(-1)[_quads(big)[0]]
        r = object.__new__(cls)
        r._hold(n, m, 0.0, float(np.abs(m - m.T).max()), float(np.abs(v[0] - v[1] + v[2]).max(initial=0.0)))
        return r

    def _hold(self, n: int, m: np.ndarray, anti: float, pair: float, bianchi: float) -> None:
        """Keep M if every residual is within the tolerance at M's scale."""
        tol = SYM_TOL * max(1.0, 1e-3 * float(np.abs(m).max()))
        if max(anti, pair, bianchi) > tol:
            raise ValueError(
                "symmetry violation: residuals "
                f"(antisymmetry={anti:.3e}, pair={pair:.3e}, bianchi={bianchi:.3e}) "
                f"exceed {tol:.3e}"
            )
        m.flags.writeable = False
        self.__dict__.update(n=n, operator=m)  # past the frozen __setattr__

    @functools.cached_property
    def array(self) -> np.ndarray:
        """Components as a read-only (n, n, n, n) array, expanded from M once."""
        full = expand(self.operator, self.n)
        full.flags.writeable = False
        return full

    @property
    def comps(self) -> np.ndarray:
        """Components as a flat read-only array of length ``n**4``."""
        return self.array.reshape(-1)

    def __call__(self, x, y, z, w) -> float:
        """Multilinear evaluation R(x, y, z, w) = (x^y)^T M (z^w) on vectors of shape (n,)."""
        if any(np.shape(v) != (self.n,) for v in (x, y, z, w)):
            raise ValueError(f"vectors must have shape ({self.n},)")
        return float(wedge(x, y) @ self.operator @ wedge(z, w))

    def max_abs(self) -> float:
        return float(np.abs(self.operator).max())


def symmetry_residuals(r: np.ndarray) -> tuple[float, float, float]:
    """Max-norm residuals of the three curvature symmetries of a rank-4 array.

    Returns ``(antisymmetry, pair_exchange, first_bianchi)`` where the first
    entry covers both index pairs.
    """
    def worst(residual: np.ndarray) -> float:
        return float(np.max(np.abs(residual)))

    anti = max(worst(r + r.transpose(1, 0, 2, 3)), worst(r + r.transpose(0, 1, 3, 2)))
    return anti, worst(r - r.transpose(2, 3, 0, 1)), worst(r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2))


def project_curvature(raw, n: int) -> CurvatureTensor:
    """Orthogonal projection of a raw rank-4 array onto curvature tensors.

    The projection is closed form and idempotent and runs on the Lambda^2
    operator: the signed average over the swaps within each index pair is
    gathered onto M, and ``lambda2.project`` symmetrizes M and removes its
    Lambda^4 part, which obstructs the first Bianchi identity.

    Parameters
    ----------
    raw : array_like
        ``n**4`` values, flat or shaped ``(n, n, n, n)``.
    n : int
        Ambient dimension.

    Returns
    -------
    CurvatureTensor
        The tensor of the projected operator: exact pair symmetries,
        Bianchi up to round-off.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    arr = np.asarray(raw, dtype=float).reshape(-1)
    if arr.size != n**4:
        raise ValueError(f"expected {n**4} entries for n={n}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("input entries must be finite")
    t = arr.reshape(n * n, n * n)
    ij = _pairs(n)
    ji = (ij % n) * n + ij // n
    rows, swapped = t[ij], t[ji]
    m = 0.25 * (rows[:, ij] - swapped[:, ij] - rows[:, ji] + swapped[:, ji])
    return CurvatureTensor.from_operator(n, project(m))


def sectional(r: CurvatureTensor, x, y) -> float:
    """Sectional curvature of the plane spanned by x and y.

    Uses ``R(X, Y, X, Y) / (|X|^2 |Y|^2 - <X, Y>^2)``; the denominator is the
    Gram determinant of the pair and must exceed ``PLANE_TOL`` |X|^2 |Y|^2,
    so the test does not depend on the lengths of x and y.
    """
    k = r(x, y, x, y)  # rejects vectors not of shape (n,)
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    norms = float(x @ x) * float(y @ y)
    gram = norms - float(x @ y) ** 2
    if gram <= PLANE_TOL * norms:
        raise ValueError(f"degenerate plane: Gram determinant {gram:.3e} <= {PLANE_TOL * norms:.3e}")
    return k / gram


def ricci(r: CurvatureTensor) -> np.ndarray:
    """Ricci contraction ``Ric_jl = sum_i R_ijil = sum_i (e_i^e_j)^T M (e_i^e_l)`` as an (n, n) matrix."""
    w = wedge(np.eye(r.n)[:, None], np.eye(r.n))  # w[i, j] = e_i ^ e_j
    return (w @ r.operator @ w.transpose(0, 2, 1)).sum(axis=0)


def _scalar(m: np.ndarray) -> float:
    """Scalar curvature sum_ij R_ijij = 2 tr M of the tensor with Lambda^2 operator M."""
    return 2.0 * float(np.trace(m))


def scalar_curvature(r: CurvatureTensor) -> float:
    """Trace of the Ricci contraction, sum_ij R_ijij = 2 tr M."""
    return _scalar(r.operator)


def sphere(n: int, kappa: float) -> CurvatureTensor:
    """Constant-curvature tensor: every sectional curvature equals kappa."""
    return CurvatureTensor.from_operator(n, np.diag(np.full(n * (n - 1) // 2, float(kappa))))


def standard_complex_structure(m: int) -> np.ndarray:
    """Block complex structure J on R^{2m}: J e_i = e_{m+i}, J e_{m+i} = -e_i."""
    j = np.zeros((2 * m, 2 * m))
    j[m:, :m] = np.eye(m)
    j[:m, m:] = -np.eye(m)
    return j


def fubini_study(m: int, c: float) -> CurvatureTensor:
    """Kaehler constant-holomorphic-curvature tensor on R^{2m}.

    Holomorphic planes have sectional curvature ``c``; totally real planes
    have ``c / 4``.  Requires real dimension at least 4.
    """
    if m < 2:
        raise ValueError(f"complex dimension must be >= 2, got {m}")
    n = 2 * m
    # M[(a<b), (p<q)] = c/4 (g_ap g_bq - g_aq g_bp + J_ap J_bq - J_aq J_bp + 2 J_ab J_pq)
    # = c/4 (I + J_a ^ J_b + 2 J_ab J_pq), J_a the row a of J, as g_aq g_bp = 0 at a < b, p < q
    j = standard_complex_structure(m)
    a, b = np.triu_indices(n, 1)
    op = np.eye(len(a)) + wedge(j[a], j[b]) + 2.0 * np.outer(j[a, b], j[a, b])
    return CurvatureTensor.from_operator(n, (c / 4.0) * op)


def product(r1: CurvatureTensor, r2: CurvatureTensor) -> CurvatureTensor:
    """Curvature tensor of a metric product: block direct sum of the factors.

    Components with all indices in one factor equal that factor's components;
    every mixed component vanishes.
    """
    n = r1.n + r2.n
    return CurvatureTensor.from_operator(n, place(n, (0, r1.operator), (r1.n, r2.operator)))


def pad_euclidean(r: CurvatureTensor, k: int) -> CurvatureTensor:
    """Product with flat R^k: the input tensor padded by k flat directions."""
    if k < 0:
        raise ValueError(f"padding dimension must be >= 0, got {k}")
    if k == 0:
        return r
    return CurvatureTensor.from_operator(r.n + k, place(r.n + k, (0, r.operator)))


def combine(a: float, r1: CurvatureTensor, b: float, r2: CurvatureTensor) -> CurvatureTensor:
    """Linear combination a*r1 + b*r2 (the symmetry class is linear), on the operators."""
    if r1.n != r2.n:
        raise ValueError(f"dimension mismatch: {r1.n} vs {r2.n}")
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("combination coefficients must be finite")
    return CurvatureTensor.from_operator(r1.n, a * r1.operator + b * r2.operator)


def random_tensor(seed: int, n: int) -> CurvatureTensor:
    """Projection of a seeded standard-normal array; deterministic per seed."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n, n, n))
    return project_curvature(raw, n)
