"""Algebraic curvature tensors on R^n and the model geometries.

A curvature tensor here is a dense rank-4 array carrying the classical
symmetries of a Riemannian curvature tensor at a point: antisymmetry in the
first and second index pairs, symmetry under pair exchange, and the first
Bianchi identity.  The sign convention makes sectional curvature
``K(X, Y) = R(X, Y, X, Y)`` for orthonormal ``X, Y``, positive on the round
sphere.

Model constructors cover the spaces needed for borderline experiments:
round spheres, complex projective space with the standard Kaehler
space-form tensor, metric products, flat paddings, linear combinations and
seeded random tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

SYM_TOL_DEFAULT = 1e-9
PLANE_TOL = 1e-12


@dataclass(frozen=True)
class CurvatureTensor:
    """Dense algebraic curvature tensor on R^n.

    Attributes
    ----------
    n : int
        Ambient dimension, at least 2.
    comps : ndarray
        Flat array of length ``n**4``; entry ``(i, j, k, l)`` sits at
        offset ``i*n**3 + j*n**2 + k*n + l``.
    sym_tol : float
        Max-norm tolerance used to validate the symmetries on construction.
    """

    n: int
    comps: np.ndarray
    sym_tol: float = SYM_TOL_DEFAULT

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"dimension must be >= 2, got {self.n}")
        comps = np.asarray(self.comps, dtype=float).reshape(-1)
        if comps.size != self.n**4:
            raise ValueError(
                f"expected {self.n**4} components for n={self.n}, got {comps.size}"
            )
        if not np.all(np.isfinite(comps)):
            raise ValueError("curvature components must be finite")
        comps = comps.copy()
        comps.flags.writeable = False
        object.__setattr__(self, "comps", comps)
        if self.sym_tol < 0:
            raise ValueError("sym_tol must be nonnegative")
        anti, pair, bianchi = symmetry_residuals(self.array)
        worst = max(anti, pair, bianchi)
        if worst > self.sym_tol:
            raise ValueError(
                "symmetry violation: residuals "
                f"(antisymmetry={anti:.3e}, pair={pair:.3e}, bianchi={bianchi:.3e}) "
                f"exceed sym_tol={self.sym_tol:.3e}"
            )

    @property
    def array(self) -> np.ndarray:
        """Components as a read-only (n, n, n, n) view."""
        return self.comps.reshape(self.n, self.n, self.n, self.n)

    def __call__(self, x, y, z, w) -> float:
        """Multilinear evaluation R(x, y, z, w) on four vectors."""
        r = self.array
        return float(np.einsum("ijkl,i,j,k,l->", r, x, y, z, w, optimize=True))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.comps))) if self.comps.size else 0.0


def symmetry_residuals(r: np.ndarray) -> tuple[float, float, float]:
    """Max-norm residuals of the three curvature symmetries of a rank-4 array.

    Returns ``(antisymmetry, pair_exchange, first_bianchi)`` where the first
    entry covers both index pairs.
    """
    anti = max(
        float(np.max(np.abs(r + r.transpose(1, 0, 2, 3)))),
        float(np.max(np.abs(r + r.transpose(0, 1, 3, 2)))),
    )
    pair = float(np.max(np.abs(r - r.transpose(2, 3, 0, 1))))
    bianchi = float(
        np.max(np.abs(r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)))
    )
    return anti, pair, bianchi


def project_curvature(raw, n: int, sym_tol: float = SYM_TOL_DEFAULT) -> CurvatureTensor:
    """Orthogonal projection of a raw rank-4 array onto curvature tensors.

    The projection is closed form and idempotent: average over the eight
    signed pair symmetries, then remove the totally antisymmetric part that
    obstructs the first Bianchi identity.

    Parameters
    ----------
    raw : array_like
        ``n**4`` values, flat or shaped ``(n, n, n, n)``.
    n : int
        Ambient dimension.

    Returns
    -------
    CurvatureTensor
        Satisfies all three symmetries up to floating round-off.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    arr = np.asarray(raw, dtype=float).reshape(-1)
    if arr.size != n**4:
        raise ValueError(f"expected {n**4} entries for n={n}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("input entries must be finite")
    t = arr.reshape(n, n, n, n)
    # Group average over {1, swap(ij), swap(kl), exchange} with signs.
    s = 0.25 * (
        t
        - t.transpose(1, 0, 2, 3)
        - t.transpose(0, 1, 3, 2)
        + t.transpose(1, 0, 3, 2)
    )
    s = 0.5 * (s + s.transpose(2, 3, 0, 1))
    # On this symmetry class the Bianchi cyclic sum is totally antisymmetric
    # and the cyclic map acts as multiplication by 3 on that part.
    b = s + s.transpose(0, 2, 3, 1) + s.transpose(0, 3, 1, 2)
    out = s - b / 3.0
    return CurvatureTensor(n=n, comps=out.reshape(-1), sym_tol=sym_tol)


def sectional(r: CurvatureTensor, x, y) -> float:
    """Sectional curvature of the plane spanned by x and y.

    Uses ``R(X, Y, X, Y) / (|X|^2 |Y|^2 - <X, Y>^2)``; the denominator is the
    Gram determinant of the pair and must exceed ``PLANE_TOL``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (r.n,) or y.shape != (r.n,):
        raise ValueError(f"vectors must have shape ({r.n},)")
    gram = float(x @ x) * float(y @ y) - float(x @ y) ** 2
    if gram <= PLANE_TOL:
        raise ValueError(f"degenerate plane: Gram determinant {gram:.3e} <= {PLANE_TOL:.3e}")
    return r(x, y, x, y) / gram


def ricci(r: CurvatureTensor) -> np.ndarray:
    """Ricci contraction ``Ric_jl = sum_i R_ijil`` as an (n, n) matrix."""
    return np.einsum("ijil->jl", r.array)


def scalar_curvature(r: CurvatureTensor) -> float:
    """Trace of the Ricci contraction."""
    return float(np.trace(ricci(r)))


def sphere(n: int, kappa: float) -> CurvatureTensor:
    """Constant-curvature tensor: every sectional curvature equals kappa."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    eye = np.eye(n)
    r = kappa * (np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye))
    return CurvatureTensor(n=n, comps=r.reshape(-1))


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
    eye = np.eye(n)
    j = standard_complex_structure(m)
    r = (c / 4.0) * (
        np.einsum("ik,jl->ijkl", eye, eye)
        - np.einsum("il,jk->ijkl", eye, eye)
        + np.einsum("ik,jl->ijkl", j, j)
        - np.einsum("il,jk->ijkl", j, j)
        + 2.0 * np.einsum("ij,kl->ijkl", j, j)
    )
    return CurvatureTensor(n=n, comps=r.reshape(-1))


def product(r1: CurvatureTensor, r2: CurvatureTensor) -> CurvatureTensor:
    """Curvature tensor of a metric product: block direct sum of the factors.

    Components with all indices in one factor equal that factor's components;
    every mixed component vanishes.
    """
    n = r1.n + r2.n
    out = np.zeros((n, n, n, n))
    out[: r1.n, : r1.n, : r1.n, : r1.n] = r1.array
    out[r1.n :, r1.n :, r1.n :, r1.n :] = r2.array
    return CurvatureTensor(n=n, comps=out.reshape(-1))


def pad_euclidean(r: CurvatureTensor, k: int) -> CurvatureTensor:
    """Product with flat R^k: the input tensor padded by k flat directions."""
    if k < 0:
        raise ValueError(f"padding dimension must be >= 0, got {k}")
    if k == 0:
        return r
    n = r.n + k
    out = np.zeros((n, n, n, n))
    out[: r.n, : r.n, : r.n, : r.n] = r.array
    return CurvatureTensor(n=n, comps=out.reshape(-1))


def combine(a: float, r1: CurvatureTensor, b: float, r2: CurvatureTensor) -> CurvatureTensor:
    """Componentwise linear combination a*r1 + b*r2 (the symmetry class is linear)."""
    if r1.n != r2.n:
        raise ValueError(f"dimension mismatch: {r1.n} vs {r2.n}")
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("combination coefficients must be finite")
    return CurvatureTensor(n=r1.n, comps=a * r1.comps + b * r2.comps)


def random_tensor(seed: int, n: int) -> CurvatureTensor:
    """Projection of a seeded standard-normal array; deterministic per seed."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n, n, n))
    return project_curvature(raw, n)
