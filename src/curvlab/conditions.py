"""Curvature conditions on frame space.

Implements the isotropic-curvature functional on orthonormal 4-frames, its
two-parameter weighted family, the exact algebraic identities tying the
family to flat paddings and to cyclic frame sums, and multistart projected
gradient descent over Stiefel manifolds that turns "for all frames"
quantifiers into checkable minimizations.

PIC2 is nonnegative isotropic curvature of R x R^2, decided by the NIC
search and decision.  The flat directions carry no curvature, so that
search runs on R, at the first n columns of frames in R^{n+2}.  By the
lift identity every weighted-family value is an isotropic value on
R x R^2; the family stays as a test oracle, not as a second search.

Every frame functional is a sum of quadratic forms of the curvature
operator M on Lambda^2: sum_alpha R(w_alpha, w_alpha) over bivectors
w_alpha = sum_{a<b} A_alpha[a, b] e_a ^ e_b of the frame rows, from a
small table of antisymmetric coefficient matrices A_alpha.  The isotropic
curvature is R(w1, w1) + R(w2, w2) with w1 = e13 - e24 and w2 = e14 + e23
(Micallef-Moore 1988), the weighted family the same with w1 = e13 - lam mu
e24 and w2 = lam e14 + mu e23, and the sectional term K12 is R(e12, e12).
With W_alpha = v^T A_alpha v, w_alpha its entries at the pairs i < j and
U_alpha the antisymmetric n x n matrix of M w_alpha, the Euclidean
gradient in the frame v is -2 sum_alpha A_alpha v U_alpha, and since the
functional is homogeneous of degree 4 its value is <gradient, frame> / 4.
One kernel computes both on a stack of frames (S, k, n), with one small
matmul per frame for each product.  The squared norms |w_alpha|^2 of the
same table weight the eigenvalue lower bound.

The multistart search descends its (S, k, n) stack of orthonormal starts
as one batch (``stiefel``), each start with its own alternating
Barzilai-Borwein steps, nonmonotone Armijo backtracking and stop rules,
on a path independent of its batch.  Random start i is
``random_frame([seed, i], n, k)``, and the stack of a (seed, restarts, k,
n) is built once and kept (``_draws``).
Several searches of one functional can share that batch
(``minimize_searches``), each on R x R^flat with its own sign, starts,
bound and stop: Kmin and Kmax as one signed stack, or NIC with PIC2.

A reported minimum is the value of a frame, so it is an upper bound on
the true minimum.  The search also computes a lower bound from the
eigenvalues of the curvature operator M on Lambda^2 (``_lower_bound``),
and it is certified when the gap closes: the batch stops as soon as one
start comes within ``GAP_TOL`` (relative to max(1, max |R|)) of the lower
bound, and that minimum is then exact up to the tolerance.  Otherwise the
minimum stays a heuristic upper bound: the frame manifold is compact and
low dimensional, so seeded multistart local descent is reliable at this
scale, but not a proof.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import _umath_linalg

from .blas import single_threaded
from .frames import Frame, _random_rows, cyclic_frames, lift_frame
from .lambda2 import _pairs, place
from .stiefel import descend, dots, orthonormal_rows
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
    "quarter_pinch_reports",
    "holonomy_orbit_invariance",
]

ZERO_FRAME_TOL = 1e-9
# A search stops, certified, once a start's value is within GAP_TOL *
# max(1, max |R|) of the lower bound.
GAP_TOL = 1e-12


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
    condition checkers.  The descent's iteration budget and tolerances are
    the ``stiefel`` module constants.
    """

    restarts: int = 64
    seed: int = 0
    margin: float = 1e-7

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if not (np.isfinite(self.margin) and self.margin > 0):
            raise ValueError("margin must be positive and finite")


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a frame-space minimization.

    ``min_value`` is the best local minimum found and ``argmin_frame`` the
    frame achieving it.  ``lower_bound`` is the eigenvalue bound below the
    minimum, and ``certified`` says that the search
    stopped with ``min_value`` within ``GAP_TOL`` of it.  ``converged`` is
    true when the reported start met the gradient tolerance or the search
    stopped certified.  The checkers set ``boundary`` when the condition
    holds on the edge of the cone: a minimum at numerical zero (flat
    directions, borderline models), or for quarter-pinching
    ``Kmax = 4 Kmin`` within the margin.
    """

    min_value: float
    argmin_frame: Frame
    restarts: int
    iterations: int
    grad_norm: float
    converged: bool
    lower_bound: float
    boundary: bool = False
    certified: bool = False

    def __post_init__(self):
        if not np.isfinite(self.min_value):
            raise ValueError("min_value must be finite")
        if not np.isfinite(self.lower_bound):
            raise ValueError("lower_bound must be finite")
        if self.grad_norm < 0:
            raise ValueError("grad_norm must be nonnegative")


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
    - 2 lam mu R(e1, e2, e3, e4)``, the isotropic curvature of the frame
    rows scaled by (1, mu, 1, lam).

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


@functools.cache
def _layout(n: int, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index plans of the kernel for ``count`` bivectors in R^n.

    The offsets (count, N) of the pairs i < j of W_alpha = v^T A_alpha v
    held at [i, alpha, j], and the columns and factors that build -2 M E
    from M: column i n + j is -2 times M's column of the pair (i, j), column
    j n + i twice it, and the diagonal columns are zero.
    """
    pairs = _pairs(n)
    i, j = divmod(pairs, n)
    at = (i * count + np.arange(count)[:, None]) * n + j
    cols, factors = np.zeros(n * n, dtype=np.intp), np.zeros(n * n)
    cols[pairs] = cols[j * n + i] = np.arange(len(pairs))
    factors[pairs], factors[j * n + i] = -2.0, 2.0
    return at, cols, factors


@functools.lru_cache(maxsize=64)
def _bivectors(kind: str, weights: Weights | None, key: str) -> tuple[int, tuple[float, ...], np.ndarray, int]:
    """The functional's table of the coefficients A_alpha[a, b], a < b, of
    the bivectors w_alpha = sum_{a<b} A_alpha[a, b] e_a ^ e_b of a k-frame:
    e12 for ``sectional``, e13 - lam mu e24 and lam e14 + mu e23 for
    ``lambda_mu`` and ``isotropic`` (lam = mu = 1).  Returns k, |w_alpha|^2
    in descending order, the antisymmetric A stacked so that A v holds
    (A_alpha v)[a] in row (a, alpha), read-only, and the count, once per
    (kind, weights, key): ``key`` is repr(weights), for signed zeros."""
    if kind == "sectional":
        a = np.zeros((1, 2, 2))
        a[0, 0, 1] = 1.0
    else:
        lam, mu = (1.0, 1.0) if weights is None else (weights.lam, weights.mu)
        a = np.zeros((2, 4, 4))
        a[0, 0, 2], a[0, 1, 3], a[1, 0, 3], a[1, 1, 2] = 1.0, -lam * mu, lam, mu
    count, k = len(a), a.shape[1]
    coeffs = (a - a.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(k * count, k)
    coeffs.flags.writeable = False
    return k, tuple(sorted(np.square(a).sum(axis=(1, 2)).tolist(), reverse=True)), coeffs, count


class _FrameObjective:
    """Value and Euclidean gradient of a frame functional on stacks of
    k x n matrices (``batch``) and on single ones (the stack of one).

    Every functional is sum_alpha R(w_alpha, w_alpha) over the bivectors of
    its table (``_bivectors``): K12 on 2-frames; on 4-frames K13 + lam^2 K14
    + mu^2 K23 + lam^2 mu^2 K24 - 2 lam mu R(e1, e2, e3, e4) by the Bianchi
    identity, the isotropic curvature at lam = mu = 1.  ``norms`` are the
    squared norms |w_alpha|^2 in descending order (``_lower_bound``).  A
    search for a maximum minimizes it with sign -1 in ``stiefel.descend``.
    """

    def __init__(self, r: CurvatureTensor, kind: str, weights: Weights | None = None):
        if kind not in ("isotropic", "lambda_mu", "sectional"):
            raise ValueError(f"unknown objective kind {kind!r}")
        if (kind == "lambda_mu") != (weights is not None):
            raise ValueError("lambda_mu objective needs weights" if weights is None else f"{kind} objective takes no weights")
        self.rows, norms, self.coeffs, count = _bivectors(kind, weights, repr(weights))
        self.norms = list(norms)
        self.n = r.n
        self.at, cols, factors = _layout(r.n, count)
        # -2 M E: w @ me is -2 U, U the antisymmetric n x n matrix of M w
        self.me = r.operator.take(cols, axis=1) * factors

    def batch(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values (S,) and Euclidean gradients (S, k, n + j) of R x R^j on a
        stack of frames in R^{n+j}: R's at the first n columns, 0 past them."""
        if v.shape[2] > self.n:
            vals, g = self._kernel(np.ascontiguousarray(v[:, :, : self.n]))
            grads = np.zeros(v.shape)
            grads[:, :, : self.n] = g
            return vals, grads
        return self._kernel(v)

    def _kernel(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sum_alpha R(w_alpha, w_alpha) and its gradient on a stack of frames.

        With W_alpha = v^T A_alpha v, w_alpha its entries at the pairs i < j
        and U_alpha the antisymmetric matrix of M w_alpha, the gradient is
        -2 sum_alpha A_alpha v U_alpha, and since the functional is
        homogeneous of degree 4 in the frame, its value is <G, v> / 4.
        Each product is one small matmul per frame.
        """
        s, k, n = v.shape
        x = (self.coeffs @ v).reshape(s, k, -1)
        w = (v.transpose(0, 2, 1) @ x).reshape(s, -1).take(self.at, axis=1)
        g = x @ (w @ self.me).reshape(s, -1, n)
        return dots(g, v) / 4.0, g

    def value(self, v: np.ndarray) -> float:
        return self.value_grad(v)[0]

    def value_grad(self, v: np.ndarray) -> tuple[float, np.ndarray]:
        """Value and gradient of one k x n frame: the stack of one."""
        val, grad = self.batch(np.asarray(v, dtype=float)[None])
        return float(val[0]), grad[0]


def frame_objective(r: CurvatureTensor, kind: str, weights: Weights | None = None) -> _FrameObjective:
    """Build the frame functional used by the minimizer (useful for tests)."""
    return _FrameObjective(r, kind, weights)


# ---------------------------------------------------------------------------
# Eigenvalue lower bounds on the Lambda^2 operator (pairs ordered 12, 13,
# 14, 23, 24, 34 at n = 4)

# The Hodge star, the operator of e1234: it vanishes on decomposable
# bivectors, so adding s * star leaves every sectional curvature unchanged.
_STAR = np.fliplr(np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0]))


# np.linalg.eigh's and eigvalsh's LAPACK gufuncs without the wrappers: same bits, half the cost
@np.errstate(divide="ignore", invalid="ignore")
def _thorpe_bound(m: np.ndarray, tol: float) -> float:
    """max over s of lambda_min(m + s star) at n = 4, within ``tol``.

    This is the minimum sectional curvature exactly (Thorpe 1972, *On the
    curvature tensor of a positively curved 4-manifold*).  f(s) =
    lambda_min(m + s star) is concave with slope u_0^T star u_0, u_j the
    unit eigenvectors, so the tangent at every probe bounds f from above.
    The search keeps probes a < b with slope > 0 at a and < 0 at b and
    stops once the crossing of their tangents is within ``tol`` of the
    best value.  Its probes alternate a Newton step from the best probe,
    with f'' = 2 sum_j (u_j^T star u_0)^2 / (lambda_0 - lambda_j) by
    eigenvalue perturbation, which closes in fast where the top of f is
    smooth, and that tangent crossing, which finds the top at once where
    it is a kink of two linear branches, as on CP^2.  Every s gives a
    valid bound, so stopping early only loosens it.
    """

    def probe(s: float) -> tuple[np.ndarray, float, float]:
        w, u = _umath_linalg.eigh_lo(m + s * _STAR, signature="d->dd")
        c = u.T @ (_STAR @ u[:, 0])
        # -f''; inf or nan where lambda_0 is a multiple eigenvalue
        bend = 2.0 * float(np.sum(c[1:] ** 2 / (w[1:] - w[0])))
        return w, float(c[0]), bend

    w, slope, bend = probe(0.0)
    s = 0.0
    f = best = float(w[0])
    s_best, slope_best, bend_best = s, slope, bend
    # f <= lambda_max - |s| and f(0) = lambda_min, so the top lies in
    # [-span, span]; the lines lambda_max +- s bound f from above there,
    # standing in for tangents until both ends have been probed
    span = float(w[-1] - w[0])
    a, fa, ga, b, fb, gb = -span, f, 1.0, span, f, -1.0
    newton = True
    for _ in range(60):
        if slope > 0:
            a, fa, ga = s, f, slope
        elif slope < 0:
            b, fb, gb = s, f, slope
        else:
            break
        s = (fb - fa + ga * a - gb * b) / (ga - gb)
        if fa + ga * (s - a) - best <= tol:
            break
        if newton and bend_best > 0:
            step = s_best + slope_best / bend_best
            if a < step < b and step != s_best:
                s = step
        newton = not newton
        w, slope, bend = probe(s)
        f = float(w[0])
        if f > best:
            best, s_best, slope_best, bend_best = f, s, slope, bend
    return best


# Orthonormal bases (columns) of the self-dual and anti-self-dual
# bivectors, (e_p + star e_p) / sqrt 2 and (e_p - star e_p) / sqrt 2 for
# p = 12, 13, 14.
_HALVES = np.stack([np.eye(6)[:, :3] + sign * _STAR[:, :3] for sign in (1.0, -1.0)]) / np.sqrt(2.0)


def _nic_bound(m: np.ndarray) -> float:
    """The minimum isotropic curvature at n = 4, exactly: 2 min(a_1 + a_2,
    c_1 + c_2) over the ascending eigenvalues a of m on the self-dual and
    c on the anti-self-dual bivectors (Micallef-Moore 1988, *Minimal
    two-spheres and the topology of manifolds with positive curvature on
    totally isotropic two-planes*).  A frame's bivectors e13 - e24 and
    e14 + e23 are an orthogonal pair in one half, of squared norm 2, and
    the frames reach every such pair.
    """
    w = _umath_linalg.eigvalsh_lo(_HALVES.transpose(0, 2, 1) @ m @ _HALVES, signature="d->d")
    return 2.0 * float((w[:, 0] + w[:, 1]).min())


def _spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric m.

    Zero rows, such as the flat pairs of a product or a padded tensor, carry
    zero eigenvalues and are split off, which keeps the rest bitwise.
    """
    keep = m.any(axis=1)
    if not keep.all():
        m = m[np.ix_(keep, keep)]
    w = _umath_linalg.eigvalsh_lo(m, signature="d->d")
    return np.sort(np.concatenate((w, np.zeros(len(keep) - len(m)))))


def _lower_bound(m: np.ndarray, spectrum, obj: _FrameObjective, flat: int, sign: float, tol: float) -> tuple:
    """A lower bound on the minimum of ``sign`` times ``obj`` (sign +1.0 or
    -1.0) on R x R^flat, and ``spectrum``, the eigenvalues of R's Lambda^2
    operator m, computed here if None and the bound needs them.

    A 4-frame value is R(w1, w1) + R(w2, w2) for the orthogonal bivectors
    w1 = e13 - lam mu e24 and w2 = lam e14 + mu e23 (lam = mu = 1 for
    ``isotropic``), so by the weighted Ky Fan inequality it is at least
    a lambda_1 + b lambda_2, with a >= b their squared norms: 2 (lambda_1
    + lambda_2) for ``isotropic``.  A sectional value is R(w, w) on a unit
    decomposable w, so at least lambda_1.  The flat pairs add zero
    eigenvalues; two zeros give the same ends of the spectrum as all of
    them.  In dimension n + flat = 4 the bounds at unit weights, |lam| =
    |mu| = 1, where the scaled rows are again a frame, are exact: the
    isotropic one on the halves of Lambda^2 (``_nic_bound``), the sectional
    one after Thorpe's shift by the star (``_thorpe_bound``); other weights
    keep their Ky Fan bound.
    """
    if obj.n + flat == 4 and obj.norms in ([2.0, 2.0], [1.0]):  # unit weights, or sectional
        if flat:  # the operator of R x R^flat: R's, with zero rows for the flat pairs
            m = place(4, (0, m))
        m = -m if sign < 0 else m
        return (_thorpe_bound(m, tol) if obj.rows == 2 else _nic_bound(m)), spectrum
    w = spectrum = _spectrum(m) if spectrum is None else spectrum
    if flat:
        w = np.sort(np.concatenate((w, np.zeros(2))))
    if sign < 0:
        w = -w[::-1]
    if obj.rows == 2:
        return float(w[0]), spectrum
    a, b = obj.norms
    return float(a * w[0] + b * w[1]), spectrum


@functools.lru_cache(maxsize=16)
def _draws(seed: int, restarts: int, k: int, n: int) -> np.ndarray:
    """The random starts of a search, ``random_frame([seed, i], n, k)``
    for i < restarts, drawn as one read-only (restarts, k, n) stack.  They
    depend on nothing else, and every diagnostics row of a flow trace, like every
    pass over a batch of checks, asks for the same few stacks again, so the
    last sixteen are kept (at most 0.5 MB for 64 starts of 4 x 16)."""
    starts = _random_rows([[seed, i] for i in range(restarts)], n, k)
    starts.flags.writeable = False
    return starts


@single_threaded
def minimize_searches(
    r: CurvatureTensor,
    searches: Sequence[tuple[int, float, tuple[Frame, ...]]],
    objective: str = "isotropic",
    opts: MinimizeOpts = MinimizeOpts(),
    weights: Weights | None = None,
) -> list[ConditionReport]:
    """Several multistart minimizations of one functional as one descent.

    A search is a tuple (flat, sign, init_frames): sign 1.0 or -1.0 (for
    maxima) times the functional on R x R^flat, over frames in
    R^{n+flat}, with warm starts that precede the random ones and are
    orthonormalized by their own stacked QR.  Each keeps its own starts,
    sign, lower bound, stop and report; the stacked descent
    (``stiefel.descend``), M, its gap and its spectrum are shared.  A
    narrower search's starts, drawn in its own dimension, are padded with
    zero columns, which the gradient and the QR retraction keep at exactly
    0, and its frame is cut back.  A report is bitwise the one its search
    makes alone when all searches have the same width; a padded search's
    steps also sum over its zero columns, so it matches only up to
    round-off, which can change where it stops.
    """
    obj = _FrameObjective(r, objective, weights)
    k, width = obj.rows, r.n + max(flat for flat, _, _ in searches)
    m = r.operator
    gap = GAP_TOL * max(1.0, float(np.abs(m).max()))
    spectrum = None  # computed by the first bound that needs it
    stacks, lowers = [], []
    for flat, sign, init_frames in searches:
        if isinstance(sign, bool) or sign not in (1.0, -1.0):
            raise ValueError(f"search sign must be 1.0 or -1.0, got {sign!r}")
        dim = r.n + flat
        if dim < k:
            raise ValueError(f"ambient dimension {dim} too small for a {k}-frame objective")
        for f in init_frames:
            if f.require_rows(k).n != dim:
                raise ValueError("warm-start frame has wrong ambient dimension")
        v0 = _draws(opts.seed, opts.restarts, k, dim)
        if init_frames:
            v0 = np.concatenate((orthonormal_rows(np.stack([f.vectors for f in init_frames]))[0], v0))
        if dim < width:
            v0 = np.concatenate((v0, np.zeros((len(v0), k, width - dim))), axis=2)
        stacks.append(v0)
        # the Thorpe search may stop short of its top by half the gap
        lower, spectrum = _lower_bound(m, spectrum, obj, flat, sign, 0.5 * gap)
        lowers.append(lower)
    sizes = [len(v0) for v0 in stacks]
    signs = [sign for _, sign, _ in searches]
    stops = [lower + gap for lower in lowers]
    vals, frames, iters, gnorms, convs = descend(obj, np.concatenate(stacks), stops, signs, sizes)
    reports, begin = [], 0
    for (flat, _, _), lower, stop, size in zip(searches, lowers, stops, sizes):
        dim, end = r.n + flat, begin + size
        best = begin + int(np.argmin(vals[begin:end]))  # lowest value, then lowest start index
        certified = bool(vals[best] <= stop)
        reports.append(ConditionReport(
            min_value=float(vals[best]),
            argmin_frame=Frame(n=dim, vectors=frames[best][:, :dim]),
            restarts=size,
            iterations=int(iters[best]),
            grad_norm=float(gnorms[best]),
            converged=bool(convs[best]) or certified,
            lower_bound=lower,
            certified=certified,
        ))
        begin = end
    return reports


def minimize_frame(
    r: CurvatureTensor,
    objective: str = "isotropic",
    opts: MinimizeOpts = MinimizeOpts(),
    weights: Weights | None = None,
) -> ConditionReport:
    """Multistart frame minimization of a curvature functional.

    The seeded random starts descend together as one batch
    (``stiefel.descend``), each with its own step and stopping; the
    report is the start with the lowest value, the lowest start index
    among equal values.  Random start i is
    ``random_frame([opts.seed, i], n, k)`` for every ``opts.restarts``, in
    a stack that later searches of its shape reuse; of the descended
    frames only the argmin is validated as a ``Frame``.  The batch stops as soon as
    one start is within ``GAP_TOL * max(1, max |R|)`` of the eigenvalue
    lower bound.  This is the search (0, 1.0, ()) of ``minimize_searches``.

    Parameters
    ----------
    objective : str
        One of ``isotropic``, ``lambda_mu`` (requires ``weights``, which
        the other two refuse), ``sectional``.
    opts : MinimizeOpts
        Restart count and seed.

    Returns
    -------
    ConditionReport
        Best local minimum found over all starts, an upper bound on the
        global minimum, with the lower bound; certified when the gap
        closed.
    """
    return minimize_searches(r, ((0, 1.0, ()),), objective, opts, weights)[0]


# ---------------------------------------------------------------------------
# Condition checkers


def _nic_decision(report: ConditionReport, opts: MinimizeOpts) -> tuple[bool, ConditionReport]:
    ok = report.min_value >= -opts.margin
    return ok, replace(report, boundary=bool(ok and report.min_value <= opts.margin))


def check_nic(r: CurvatureTensor, opts: MinimizeOpts = MinimizeOpts()) -> tuple[bool, ConditionReport]:
    """Nonnegative isotropic curvature, decided by multistart minimization.

    True iff the reported minimum is at least ``-opts.margin``; the
    report's ``lower_bound`` and ``certified`` say how far that minimum is
    proven (see module docstring).
    """
    return _nic_decision(minimize_frame(r, "isotropic", opts), opts)


def check_pic2(r: CurvatureTensor, opts: MinimizeOpts = MinimizeOpts()) -> tuple[bool, ConditionReport]:
    """Nonnegative isotropic curvature of the product with flat R^2 (PIC2).

    The NIC search and decision on R x R^2, run on r, with the frame in
    dimension n + 2.  Every weighted-family value of r is the isotropic
    value of a lifted frame, so this minimum also bounds the family
    minimum over frames and weights from above.
    """
    return _nic_decision(minimize_searches(r, ((2, 1.0, ()),), "isotropic", opts)[0], opts)


def quarter_pinch_reports(
    r: CurvatureTensor, opts: MinimizeOpts = MinimizeOpts()
) -> tuple[bool, ConditionReport, ConditionReport]:
    """Weak quarter-pinching decision with the two extremization reports.

    The condition is ``Kmin >= 0`` and ``Kmax <= 4 Kmin`` over all 2-planes,
    decided within ``opts.margin``.  ``Kmin`` is the first report's
    ``min_value`` and ``Kmax`` the negated ``min_value`` of the second, and
    their ``lower_bound`` fields bound ``Kmin`` from below and ``-Kmax``
    from below.  The first report's ``boundary`` is set when the condition
    holds with ``Kmin`` at zero or ``Kmax = 4 Kmin`` within the margin.
    Both searches descend as one stack, the second with the sign flipped
    (``minimize_searches``).
    """
    kmin_rep, kmax_rep = minimize_searches(r, ((0, 1.0, ()), (0, -1.0, ())), "sectional", opts)
    kmin = kmin_rep.min_value
    kmax = -kmax_rep.min_value
    ok = (kmin >= -opts.margin) and (kmax <= 4.0 * kmin + opts.margin)
    boundary = ok and (kmin <= opts.margin or abs(kmax - 4.0 * kmin) <= opts.margin)
    return ok, replace(kmin_rep, boundary=boundary), kmax_rep


# ---------------------------------------------------------------------------
# Holonomy orbits


def holonomy_orbit_invariance(
    r: CurvatureTensor,
    frame: Frame,
    sample,
    samples: int = 200,
    seed: int = 0,
) -> float:
    """Max |isotropic curvature| over a sampled holonomy orbit of a zero frame.

    ``sample([seed, s])`` returns the s-th group element, an orthogonal
    n x n matrix u that moves the frame rows by e_i -> u e_i: for example
    ``functools.partial(random_unitary, m=2)`` for U(2) on CP^2, or
    ``functools.partial(random_block_rotation, dims=(2, 2))`` for the
    factor rotations of S^2 x S^2.  The input frame must already have
    isotropic curvature below ``ZERO_FRAME_TOL * max(1, max |R|)``, every
    sample must act on the tensor's R^n, and ``samples`` must be positive.
    For tensors actually invariant under the group, the returned maximum
    stays at the scale of the input residual.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    u0 = abs(isotropic_curvature(r, frame))
    tol = ZERO_FRAME_TOL * max(1.0, r.max_abs())
    if u0 >= tol:
        raise ValueError(f"frame is not a zero frame: |u| = {u0:.3e} >= {tol:.3e}")
    worst = 0.0
    for s in range(samples):
        u = sample([seed, s])
        if u.shape != (r.n, r.n):
            raise ValueError(f"group acts on R^{len(u)} but tensor lives on R^{r.n}")
        worst = max(worst, abs(isotropic_curvature(r, Frame(n=r.n, vectors=frame.vectors @ u.T))))
    return worst
