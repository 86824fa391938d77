"""Orthonormal frames in R^n, their sampling and lifts, and holonomy samples.

The workhorse type is an ordered orthonormal k-frame stored as a k x n
matrix of rows.  Four-frames are the default (the isotropic functional
lives on them); two-frames appear in sectional-curvature minimization.
``random_unitary`` and ``random_block_rotation`` draw the seeded group
elements that ``conditions.holonomy_orbit_invariance`` samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stiefel import orthonormal_rows

__all__ = [
    "Frame",
    "random_frame",
    "lift_frame",
    "cyclic_frames",
    "complete_basis",
    "random_unitary",
    "random_block_rotation",
]

ORTHO_TOL = 1e-10
RANK_TOL = 1e-10


@dataclass(frozen=True)
class Frame:
    """Ordered orthonormal k-frame in R^n (rows of ``vectors``).

    Construction validates the Gram matrix against the identity in max-norm;
    violations are errors, not silent repairs.
    """

    n: int
    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.n:
            raise ValueError(f"expected a (k, {self.n}) row matrix, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("frame entries must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)
        resid = self.gram_residual()
        if resid > ORTHO_TOL:
            raise ValueError(f"rows are not orthonormal: Gram residual {resid:.3e} > {ORTHO_TOL:.0e}")

    @property
    def k(self) -> int:
        return self.vectors.shape[0]

    def gram_residual(self) -> float:
        g = self.vectors @ self.vectors.T
        return float(np.max(np.abs(g - np.eye(self.k))))

    def require_rows(self, k: int) -> "Frame":
        if self.k != k:
            raise ValueError(f"expected a {k}-frame, got {self.k} rows")
        return self


def random_frame(seed, n: int, k: int = 4) -> Frame:
    """Orthonormalization of a seeded standard-normal k x n matrix.

    The sign-fixed QR ``stiefel.orthonormal_rows`` of
    ``np.random.default_rng(seed).standard_normal((k, n))``: deterministic
    per seed, with a rotation invariant row distribution.
    Start i of ``minimize_frame`` at seed s is bitwise
    ``random_frame([s, i], n, k)``.  Draws again from the same generator in
    the (measure-zero) event of rank failure.
    """
    if n < k:
        raise ValueError(f"ambient dimension {n} too small for a {k}-frame")
    rng = np.random.Generator(np.random.PCG64(seed))  # default_rng(seed), bitwise
    while True:
        q, rdiag = orthonormal_rows(rng.standard_normal((1, k, n)))
        if rdiag.min() > RANK_TOL:
            return Frame(n=n, vectors=q[0])


def lift_frame(frame: Frame, weights) -> Frame:
    """Lift a 4-frame in R^n to R^{n+2} along the weight pair.

    With weights ``(lam, mu)`` the rows become::

        e1 -> (e1, 0, 0)
        e2 -> (mu * e2, 0, sqrt(1 - mu^2))
        e3 -> (e3, 0, 0)
        e4 -> (lam * e4, sqrt(1 - lam^2), 0)

    which is again orthonormal for any weights in [-1, 1]^2.
    """
    frame.require_rows(4)
    lam, mu = weights.lam, weights.mu
    n, e = frame.n, frame.vectors
    v = np.zeros((4, n + 2))
    v[0, :n] = e[0]
    v[1, :n] = mu * e[1]
    v[1, n + 1] = np.sqrt(max(0.0, 1.0 - mu * mu))
    v[2, :n] = e[2]
    v[3, :n] = lam * e[3]
    v[3, n] = np.sqrt(max(0.0, 1.0 - lam * lam))
    return Frame(n=n + 2, vectors=v)


def cyclic_frames(frame: Frame) -> tuple[Frame, Frame, Frame]:
    """The three cyclic reorderings (e1,e2,e3,e4), (e2,e3,e1,e4), (e3,e1,e2,e4)."""
    frame.require_rows(4)
    v = frame.vectors
    return (
        frame,
        Frame(n=frame.n, vectors=v[[1, 2, 0, 3]]),
        Frame(n=frame.n, vectors=v[[2, 0, 1, 3]]),
    )


def complete_basis(frame: Frame) -> np.ndarray:
    """Deterministic completion of a frame to a full orthonormal basis of R^n.

    Returns an n x n row matrix whose first k rows are the frame and whose
    last n - k rows are those of the sign-fixed QR of the frame followed by
    the first n - k standard basis vectors.  That QR of a square matrix is
    orthogonal even where the basis vectors depend on the frame.
    """
    n, k = frame.n, frame.k
    q, _ = orthonormal_rows(np.vstack([frame.vectors, np.eye(n)[: n - k]])[None])
    return np.vstack([frame.vectors, q[0, k:]])


def _expm_skew(a: np.ndarray) -> np.ndarray:
    """exp(A) of a real skew-symmetric A, a rotation.

    -iA is Hermitian: with -iA = V diag(w) V^H, exp(A) = V diag(e^{iw}) V^H,
    real up to round-off, which the real part drops.
    """
    w, v = np.linalg.eigh(-1j * a)
    return ((v * np.exp(1j * w)) @ v.conj().T).real


def random_unitary(seed, m: int) -> np.ndarray:
    """Seeded element of U(m) acting on R^{2m}.

    Exponential of a J-commuting skew matrix [[X, -Y], [Y, X]] with X skew
    and Y symmetric; the result is orthogonal and commutes with J.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m))
    b = rng.standard_normal((m, m))
    x = 0.5 * (a - a.T)
    y = 0.5 * (b + b.T)
    return _expm_skew(np.block([[x, -y], [y, x]]))


def random_block_rotation(seed, dims: tuple[int, ...]) -> np.ndarray:
    """Seeded block-diagonal rotation, one independent SO(d) block per factor."""
    rng = np.random.default_rng(seed)
    out = np.zeros((sum(dims), sum(dims)))
    at = 0
    for d in dims:
        a = rng.standard_normal((d, d))
        out[at : at + d, at : at + d] = _expm_skew(0.5 * (a - a.T))
        at += d
    return out
