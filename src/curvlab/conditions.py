"""Curvature conditions on frame space.

Implements the isotropic-curvature functional on orthonormal 4-frames, its
two-parameter weighted family, the exact algebraic identities tying the
family to flat paddings and to cyclic frame sums, and multistart projected
gradient descent over Stiefel manifolds that turns "for all frames"
quantifiers into checkable minimizations.

Every frame functional goes through one kernel: the contraction
C[a, b, c, :] = R(e_a, e_b, e_c, .) of the tensor with the frame rows, with
F = C v^T, and each functional is <S, F> for a coefficient tensor S that
carries the pair symmetries of R.  Because S and R share those symmetries,
the Euclidean gradient in the frame is 4 S C, contracting S with C over
the first three slots.

The minimizers are heuristic certificates: the frame manifold is compact
and low dimensional, so seeded multistart local descent is reliable at
this scale, but a reported minimum is an upper bound on the true one, not
a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .frames import Frame, cyclic_frames, lift_frame, random_block_rotation, random_frame, random_unitary, unitary_action
from .tensors import CurvatureTensor, pad_euclidean

__all__ = [
    "Weights",
    "MinimizeOpts",
    "ConditionReport",
    "isotropic_curvature",
    "weighted_isotropic_curvature",
    "lift_identity_residual",
    "cyclic_sum_identity",
    "frame_objective",
    "minimize_frame",
    "check_nic",
    "check_pic2",
    "check_quarter_pinched",
    "quarter_pinch_reports",
    "holonomy_orbit_invariance",
    "UnitaryGroup",
    "ProductBlockGroup",
]

WEIGHT_GRID = np.linspace(-1.0, 1.0, 21)
ZERO_FRAME_TOL = 1e-9
PIC2_CONSISTENCY_TOL = 1e-9


@dataclass(frozen=True)
class Weights:
    """Weight pair (lam, mu) in [-1, 1]^2 for the pinching family."""

    lam: float
    mu: float

    def __post_init__(self):
        if not (np.isfinite(self.lam) and np.isfinite(self.mu)):
            raise ValueError("weights must be finite")
        if abs(self.lam) > 1.0 or abs(self.mu) > 1.0:
            raise ValueError(f"weights must lie in [-1, 1], got ({self.lam}, {self.mu})")


@dataclass(frozen=True)
class MinimizeOpts:
    """Options for multistart frame minimization.

    ``restarts`` counts the random starts; warm-start frames supplied by the
    caller come first and share the deterministic tie-break (lowest value,
    then lowest start index).  ``margin`` is the decision margin used by the
    condition checkers.
    """

    restarts: int = 64
    max_iters: int = 500
    step_tol: float = 1e-10
    grad_tol: float = 1e-8
    seed: int = 0
    margin: float = 1e-7

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be positive")
        if self.step_tol <= 0 or self.grad_tol <= 0 or self.margin <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a frame-space minimization.

    ``min_value`` is the best local minimum found, ``argmin_frame`` the frame
    achieving it, and ``converged`` whether the gradient tolerance was met
    there.  The checkers set ``boundary`` when the condition holds with the
    minimum at numerical zero (flat directions, borderline models).
    ``family_min`` carries the weighted-family consistency value for the
    flat-padding checker and is None elsewhere.
    """

    min_value: float
    argmin_frame: Frame
    argmin_weights: Weights | None
    restarts: int
    iterations: int
    grad_norm: float
    converged: bool
    boundary: bool = False
    family_min: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.min_value):
            raise ValueError("min_value must be finite")
        if self.grad_norm < 0:
            raise ValueError("grad_norm must be nonnegative")


# ---------------------------------------------------------------------------
# The frame-contraction kernel


def _symmetrized_units(k: int, slots) -> np.ndarray:
    """Unit k^4 tensors at ``slots``, averaged over the pair symmetries of R.

    Row i pairs with the contraction F = R(e_a, e_b, e_c, e_d) of a k-frame
    to give the component of R at ``slots[i]``.
    """
    out = np.zeros((len(slots), k, k, k, k))
    for row, (a, b, c, d) in enumerate(slots):
        for i, j, p, q, sign in ((a, b, c, d, 1), (b, a, c, d, -1), (a, b, d, c, -1), (b, a, d, c, 1)):
            out[row, i, j, p, q] += sign / 8.0
            out[row, p, q, i, j] += sign / 8.0
    return out.reshape(len(slots), k**4)


# (K13, K14, K23, K24, R(e1, e2, e3, e4)) on 4-frames; K12 on 2-frames.
_FOUR_FRAME_BASIS = _symmetrized_units(4, ((0, 2, 0, 2), (0, 3, 0, 3), (1, 2, 1, 2), (1, 3, 1, 3), (0, 1, 2, 3)))
_TWO_FRAME_BASIS = _symmetrized_units(2, ((0, 1, 0, 1),))


def _contract(r4: np.ndarray, v: np.ndarray) -> np.ndarray:
    """C[a, b, c, :] = R(e_a, e_b, e_c, .) for the rows e_a of v."""
    k, n = v.shape
    return v @ (v @ (v @ r4.reshape(n, n**3)).reshape(k, n, n * n)).reshape(k, k, n, n)


def _lam_mu_coeffs(lam: float, mu: float) -> np.ndarray:
    """Coefficients of the weighted family over the 4-frame basis."""
    l2 = lam * lam
    m2 = mu * mu
    return np.array([1.0, l2, m2, l2 * m2, -2.0 * lam * mu])


# ---------------------------------------------------------------------------
# Functionals


def _frame_value(r: CurvatureTensor, frame: Frame, kind: str, weights: Weights | None = None) -> float:
    frame.require_rows(4)
    if frame.n != r.n:
        raise ValueError(f"dimension mismatch: tensor n={r.n}, frame n={frame.n}")
    return _FrameObjective(r, kind, weights).value(frame.vectors)


def isotropic_curvature(r: CurvatureTensor, frame: Frame) -> float:
    """The isotropic-curvature value of a 4-frame.

    ``K13 + K14 + K23 + K24 - 2 R(e1, e2, e3, e4)`` where ``Kab`` is the
    unnormalized sectional term ``R(ea, eb, ea, eb)``.
    """
    return _frame_value(r, frame, "isotropic")


def weighted_isotropic_curvature(r: CurvatureTensor, frame: Frame, w: Weights) -> float:
    """The weighted family: ``K13 + lam^2 K14 + mu^2 K23 + lam^2 mu^2 K24
    - 2 lam mu R(e1, e2, e3, e4)``.

    At (1, 1) this is the isotropic curvature; at (0, 0) it degenerates to
    the sectional term K13.
    """
    return _frame_value(r, frame, "lambda_mu", w)


def lift_identity_residual(r: CurvatureTensor, frame: Frame, w: Weights) -> float:
    """|weighted family value - isotropic value of the lifted frame on the
    flat-padded tensor|; identically zero up to round-off."""
    lhs = weighted_isotropic_curvature(r, frame, w)
    rhs = isotropic_curvature(pad_euclidean(r, 2), lift_frame(frame, w))
    return abs(lhs - rhs)


def cyclic_sum_identity(r: CurvatureTensor, frame: Frame, w: Weights) -> tuple[float, float, float]:
    """Both sides of the cyclic frame-sum identity and their residual.

    Summing the weighted family over the three cyclic reorderings of a
    4-frame cancels the mixed terms through the first Bianchi identity,
    leaving ``(1 + mu^2) * (K12 + K13 + K23 + lam^2 (K14 + K24 + K34))``.
    """
    lhs = sum(weighted_isotropic_curvature(r, f, w) for f in cyclic_frames(frame))
    v = frame.vectors
    k = {}
    for a in range(4):
        for b in range(a + 1, 4):
            k[(a, b)] = r(v[a], v[b], v[a], v[b])
    rhs = (1.0 + w.mu**2) * (
        k[(0, 1)] + k[(0, 2)] + k[(1, 2)]
        + w.lam**2 * (k[(0, 3)] + k[(1, 3)] + k[(2, 3)])
    )
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Frame objectives and their gradients


def _family_min_scalars(k13, k14, k23, k24, mixed) -> tuple[float, float, float]:
    """Minimum of the weighted family over weights, from the five scalars.

    For each mu on the grid the family is a quadratic in lam, so the lam
    minimizer is closed form (clipped to [-1, 1]); returns (value, lam, mu).
    """
    mus = WEIGHT_GRID
    a2 = k14 + mus * mus * k24
    a1 = -2.0 * mus * mixed
    a0 = k13 + mus * mus * k23
    lam_star = np.where(a2 > 0.0, np.clip(np.divide(-a1, 2.0 * a2, out=np.ones_like(a1), where=a2 > 0.0), -1.0, 1.0), 1.0)
    cands = np.stack([-np.ones_like(mus), np.ones_like(mus), lam_star])
    vals = a0[None, :] + a1[None, :] * cands + a2[None, :] * cands**2
    flat = int(np.argmin(vals))
    row, col = divmod(flat, mus.size)
    return float(vals[row, col]), float(cands[row, col]), float(mus[col])


class _FrameObjective:
    """Value and Euclidean gradient of a frame functional on k x n matrices.

    Every kind is <S, F> with S a coefficient vector over a fixed basis of
    symmetrized k^4 tensors: ``isotropic`` and ``lambda_mu`` (4-frames,
    fixed weights), ``lambda_mu_family`` (4-frames, weights minimized out
    on the grid), ``sectional`` (2-frames).  ``negate`` flips the sign for
    maximization runs.
    """

    def __init__(self, r: CurvatureTensor, kind: str, weights: Weights | None = None, negate: bool = False):
        if kind not in ("isotropic", "lambda_mu", "lambda_mu_family", "sectional"):
            raise ValueError(f"unknown objective kind {kind!r}")
        if kind == "lambda_mu" and weights is None:
            raise ValueError("lambda_mu objective needs weights")
        self.r4 = r.array
        self.kind = kind
        self.weights = weights
        self.sign = -1.0 if negate else 1.0
        self.rows = 2 if kind == "sectional" else 4
        self.basis = _TWO_FRAME_BASIS if kind == "sectional" else _FOUR_FRAME_BASIS
        if kind == "sectional":
            self.coeffs = np.array([self.sign])
        elif kind == "isotropic":
            self.coeffs = self.sign * _lam_mu_coeffs(1.0, 1.0)
        elif kind == "lambda_mu":
            self.coeffs = self.sign * _lam_mu_coeffs(weights.lam, weights.mu)
        else:
            self.coeffs = None  # lambda_mu_family: chosen per frame in _terms

    def _terms(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The contraction C, the basis scalars and the active coefficients."""
        c = _contract(self.r4, v)
        terms = self.basis @ (c @ v.T).ravel()
        if self.kind != "lambda_mu_family":
            return c, terms, self.coeffs
        _, lam, mu = _family_min_scalars(*terms)
        return c, terms, self.sign * _lam_mu_coeffs(lam, mu)

    def value(self, v: np.ndarray) -> float:
        _, terms, coeffs = self._terms(v)
        return float(coeffs @ terms)

    def active_weights(self, v: np.ndarray) -> Weights | None:
        if self.kind == "lambda_mu":
            return self.weights
        if self.kind == "lambda_mu_family":
            _, lam, mu = _family_min_scalars(*self._terms(v)[1])
            return Weights(lam, mu)
        return None

    def value_grad(self, v: np.ndarray) -> tuple[float, np.ndarray]:
        # S shares the pair symmetries of R, so all four slots contribute the
        # same derivative and the gradient is 4 S contracted with C.
        c, terms, coeffs = self._terms(v)
        k, n = v.shape
        s = (coeffs @ self.basis).reshape(k**3, k)
        return float(coeffs @ terms), 4.0 * s.T @ c.reshape(k**3, n)


def frame_objective(r: CurvatureTensor, kind: str, weights: Weights | None = None, negate: bool = False) -> _FrameObjective:
    """Build the frame functional used by the minimizer (useful for tests)."""
    return _FrameObjective(r, kind, weights, negate)


# ---------------------------------------------------------------------------
# Riemannian descent


def _tangent_project(grad: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project a Euclidean gradient onto the Stiefel tangent space at v."""
    gv = grad @ v.T
    return grad - 0.5 * (gv + gv.T) @ v


def _retract(m: np.ndarray) -> np.ndarray:
    """Re-orthonormalize rows (sign-fixed QR, equivalent to Gram-Schmidt)."""
    q, r = np.linalg.qr(m.T)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return (q * signs).T


def _descend(obj: _FrameObjective, v0: np.ndarray, opts: MinimizeOpts):
    """Monotone projected gradient descent from one start.

    Steps along the negative tangent-projected gradient with a
    Barzilai-Borwein trial step and Armijo backtracking, retracting by row
    re-orthonormalization.  Returns (value, frame matrix, iterations,
    grad_norm, converged, history of accepted objective values).
    """
    v = _retract(np.asarray(v0, dtype=float))
    val, grad = obj.value_grad(v)
    p = _tangent_project(grad, v)
    gnorm = float(np.linalg.norm(p))
    history = [val]
    step = 1.0 / max(1.0, gnorm)
    prev_v = None
    prev_p = None
    iters = 0
    converged = gnorm < opts.grad_tol
    while iters < opts.max_iters and not converged:
        iters += 1
        if prev_v is not None:
            s = (v - prev_v).ravel()
            y = (p - prev_p).ravel()
            sy = float(s @ y)
            if sy > 1e-300:
                step = float(np.clip(float(s @ s) / sy, 1e-12, 1e6))
            else:
                step = min(step * 2.0, 1e6)
        trial = step
        accepted = False
        for _ in range(60):
            v_try = _retract(v - trial * p)
            f_try = obj.value(v_try)
            if f_try <= val - 1e-4 * trial * gnorm * gnorm:
                accepted = True
                break
            trial *= 0.5
            if trial * gnorm < opts.step_tol:
                break
        if not accepted:
            break
        prev_v, prev_p = v, p
        v = v_try
        # Keep the line-search value: recomputing it through the gradient
        # path can differ by round-off and break monotonicity.
        val = f_try
        _, grad = obj.value_grad(v)
        p = _tangent_project(grad, v)
        gnorm = float(np.linalg.norm(p))
        history.append(val)
        step = trial
        converged = gnorm < opts.grad_tol
    return val, v, iters, gnorm, converged, history


def minimize_frame(
    r: CurvatureTensor,
    objective: str = "isotropic",
    opts: MinimizeOpts | None = None,
    weights: Weights | None = None,
    negate: bool = False,
    init_frames: tuple[Frame, ...] = (),
) -> ConditionReport:
    """Multistart frame minimization of a curvature functional.

    Parameters
    ----------
    objective : str
        One of ``isotropic``, ``lambda_mu`` (requires ``weights``),
        ``lambda_mu_family``, ``sectional``.
    opts : MinimizeOpts
        Restart count, iteration budget, tolerances, seed.
    negate : bool
        Minimize the negated functional (used to locate maxima).
    init_frames : tuple of Frame
        Warm starts, tried before the random restarts and sharing the
        deterministic tie-break.

    Returns
    -------
    ConditionReport
        Best local minimum found over all starts.  Heuristic certificate:
        an upper bound on the global minimum of a nonconvex objective.
    """
    opts = opts or MinimizeOpts()
    obj = _FrameObjective(r, objective, weights, negate)
    if r.n < obj.rows:
        raise ValueError(f"ambient dimension {r.n} too small for a {obj.rows}-frame objective")
    starts: list[np.ndarray] = []
    for f in init_frames:
        f.require_rows(obj.rows)
        if f.n != r.n:
            raise ValueError("warm-start frame has wrong ambient dimension")
        starts.append(f.vectors.copy())
    for i in range(opts.restarts):
        starts.append(random_frame([opts.seed, i], r.n, k=obj.rows).vectors.copy())
    best = None
    for idx, v0 in enumerate(starts):
        val, v, iters, gnorm, conv, _ = _descend(obj, v0, opts)
        if best is None or val < best[0]:
            best = (val, v, iters, gnorm, conv, idx)
    val, v, iters, gnorm, conv, _ = best
    return ConditionReport(
        min_value=val,
        argmin_frame=Frame(n=r.n, vectors=v),
        argmin_weights=obj.active_weights(v),
        restarts=len(starts),
        iterations=iters,
        grad_norm=gnorm,
        converged=conv,
    )


# ---------------------------------------------------------------------------
# Condition checkers


def check_nic(r: CurvatureTensor, opts: MinimizeOpts | None = None) -> tuple[bool, ConditionReport]:
    """Nonnegative isotropic curvature, decided by multistart minimization.

    True iff the reported minimum is at least ``-opts.margin``.  Heuristic
    certificate (see module docstring).
    """
    opts = opts or MinimizeOpts()
    report = minimize_frame(r, "isotropic", opts)
    ok = report.min_value >= -opts.margin
    report = replace(report, boundary=bool(ok and report.min_value <= opts.margin))
    return ok, report


def check_pic2(r: CurvatureTensor, opts: MinimizeOpts | None = None) -> tuple[bool, ConditionReport]:
    """Nonnegative isotropic curvature of the product with flat R^2.

    Minimizes the isotropic functional over 4-frames of the padded tensor,
    and separately minimizes the weighted family over frames and weights in
    the base dimension; every family value is the isotropic value of a
    lifted frame, so it can only improve (never undercut) the padded
    minimum.  If the family search finds a smaller value, the corresponding
    lifted frame is polished and folded into the report.  The report carries
    the family minimum and its weights for cross-checking.
    """
    opts = opts or MinimizeOpts()
    padded = pad_euclidean(r, 2)
    report = minimize_frame(padded, "isotropic", opts)
    family = minimize_frame(r, "lambda_mu_family", opts)
    min_value = report.min_value
    argmin_frame = report.argmin_frame
    grad_norm = report.grad_norm
    iterations = report.iterations
    converged = report.converged
    if family.min_value < min_value - PIC2_CONSISTENCY_TOL:
        lifted = lift_frame(family.argmin_frame, family.argmin_weights)
        obj = _FrameObjective(padded, "isotropic")
        val, v, iters, gnorm, conv, _ = _descend(obj, lifted.vectors, opts)
        if val < min_value:
            min_value = val
            argmin_frame = Frame(n=padded.n, vectors=v)
            grad_norm = gnorm
            iterations = iters
            converged = conv
    ok = min_value >= -opts.margin
    out = ConditionReport(
        min_value=min_value,
        argmin_frame=argmin_frame,
        argmin_weights=family.argmin_weights,
        restarts=report.restarts + family.restarts,
        iterations=iterations,
        grad_norm=grad_norm,
        converged=converged,
        boundary=bool(ok and min_value <= opts.margin),
        family_min=family.min_value,
    )
    return ok, out


def quarter_pinch_reports(
    r: CurvatureTensor, opts: MinimizeOpts | None = None
) -> tuple[bool, ConditionReport, ConditionReport]:
    """Weak quarter-pinching decision with the two extremization reports.

    The condition is ``Kmin >= 0`` and ``Kmax <= 4 Kmin`` over all 2-planes,
    decided within ``opts.margin``.
    """
    opts = opts or MinimizeOpts()
    kmin_rep = minimize_frame(r, "sectional", opts)
    kmax_rep = minimize_frame(r, "sectional", opts, negate=True)
    kmin = kmin_rep.min_value
    kmax = -kmax_rep.min_value
    ok = (kmin >= -opts.margin) and (kmax <= 4.0 * kmin + opts.margin)
    return ok, kmin_rep, kmax_rep


def check_quarter_pinched(r: CurvatureTensor, opts: MinimizeOpts | None = None) -> tuple[bool, float, float]:
    """Weak quarter-pinching: returns (decision, Kmin, Kmax)."""
    ok, kmin_rep, kmax_rep = quarter_pinch_reports(r, opts)
    return ok, kmin_rep.min_value, -kmax_rep.min_value


# ---------------------------------------------------------------------------
# Holonomy orbits


class UnitaryGroup:
    """U(m) acting on R^{2m} as orthogonal matrices commuting with J."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("m must be positive")
        self.m = m
        self.n = 2 * m

    def sample(self, seed) -> np.ndarray:
        return random_unitary(seed, self.m)

    def apply(self, frame: Frame, u: np.ndarray) -> Frame:
        return unitary_action(frame, u)


class ProductBlockGroup:
    """Independent rotations of the factors of a metric product."""

    def __init__(self, dims: tuple[int, ...]):
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError("need at least two positive factor dimensions")
        self.dims = tuple(dims)
        self.n = sum(dims)

    def sample(self, seed) -> np.ndarray:
        return random_block_rotation(seed, self.dims)

    def apply(self, frame: Frame, u: np.ndarray) -> Frame:
        return Frame(n=frame.n, vectors=frame.vectors @ u.T)


def holonomy_orbit_invariance(
    r: CurvatureTensor,
    frame: Frame,
    group,
    samples: int = 200,
    seed: int = 0,
    zero_tol: float = ZERO_FRAME_TOL,
) -> float:
    """Max |isotropic curvature| over a sampled holonomy orbit of a zero frame.

    The input frame must already have isotropic curvature below ``zero_tol``
    and the group's ambient dimension must match the tensor's.  For tensors
    actually invariant under the group, the returned maximum stays at the
    scale of the input residual.
    """
    if group.n != r.n:
        raise ValueError(f"group acts on R^{group.n} but tensor lives on R^{r.n}")
    u0 = abs(isotropic_curvature(r, frame))
    if u0 >= zero_tol:
        raise ValueError(f"frame is not a zero frame: |u| = {u0:.3e} >= {zero_tol:.0e}")
    worst = 0.0
    for s in range(samples):
        g = group.sample([seed, s])
        moved = group.apply(frame, g)
        worst = max(worst, abs(isotropic_curvature(r, moved)))
    return worst
