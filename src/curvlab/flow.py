"""Pointwise reaction ODE dR/dt = Q(R) and cone-invariance experiments.

Q is the quadratic reaction term of the curvature evolution equation.  For
the homogeneous model tensors the full evolution reduces to this ODE
because the curvature is parallel; for generic inputs the ODE is studied
as a dynamical system in its own right, not as an approximation of the
PDE.

The frame-combination identity checked by ``decomposition_residual`` is
the normative anchor for the Q convention: it pins the overall scale and
sign used here.

The integrator's state is the curvature operator on Lambda^2, the
symmetric N x N matrix M[(i<j), (k<l)] = R_ijkl with N = n(n-1)/2 that a
``CurvatureTensor`` holds, and Q is evaluated on it directly
(``lambda2``).  The tensors of the diagnostic rows, the final tensor and
``quadratic_reaction`` are built from M projected on Lambda^2
(``lambda2.project``).  ``integrate`` runs the one RK4
stepper; it, ``quadratic_reaction`` and ``decomposition_residual`` share
the one Q kernel.  BLAS runs on one thread
(``blas.single_threaded``), so the same input gives the same bytes on any
core count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .blas import single_threaded
from .conditions import MinimizeOpts, check_pic2, isotropic_curvature, minimize_searches
from .frames import Frame, complete_basis
from .lambda2 import project
from .lambda2 import reaction as _reaction_raw  # looked up per call, so tests can count calls
from .tensors import CurvatureTensor, _scalar, scalar_curvature

__all__ = [
    "TraceRow",
    "FlowTrace",
    "FlowOpts",
    "FlowBlowupError",
    "ConeMarginResult",
    "quadratic_reaction",
    "decomposition_residual",
    "integrate",
    "cone_margin_experiment",
    "sphere_kappa",
]

# Halvings (rejected trials) allowed per step before a step-size
# underflow, the safety factor of the step-size controller, and the max
# |component| past which integration aborts as a blow-up.
MAX_HALVINGS = 40
SAFETY = 0.8
BLOWUP_CAP = 1e12
# Times within END_TOL * max(1, t_end) of each other are one time.
END_TOL = 1e-15


class FlowBlowupError(RuntimeError):
    """Raised when the integrated tensor exceeds the blow-up cap."""

    def __init__(self, t: float, size: float, cap: float):
        super().__init__(f"blow-up at t = {t:.6g}: max |component| = {size:.3e} exceeds cap {cap:.3e}")
        self.t = t
        self.size = size
        self.cap = cap


class TraceRow(NamedTuple):
    """One diagnostic row: extremal curvatures, minimized functionals,
    scalar curvature, and the step size / error estimate that produced it.
    It is the tuple of its fields, which are, in order, the trace columns
    (``TRACE_COLUMNS``)."""

    t: float
    kmin: float
    kmax: float
    min_iso: float
    min_pic2: float
    scalar: float
    dt: float
    err_est: float


TRACE_COLUMNS = TraceRow._fields


@dataclass(frozen=True)
class FlowTrace:
    """Diagnostic rows of a trajectory, strictly increasing in time.

    ``final`` is the tensor at ``rows[-1].t``, ``q_evals`` the number of
    Q evaluations and ``halvings`` the number of rejected (halved) step
    trials, when the trace was produced by ``integrate`` (None for traces
    read from disk).
    """

    rows: tuple[TraceRow, ...]
    final: CurvatureTensor | None = None
    q_evals: int | None = None
    halvings: int | None = None

    def __post_init__(self):
        if not self.rows:
            raise ValueError("trace must have at least one row")
        ts = [row.t for row in self.rows]
        if any(not np.all(np.isfinite(row)) for row in self.rows):
            raise ValueError("trace entries must be finite")
        if any(t1 <= t0 for t0, t1 in zip(ts, ts[1:])):
            raise ValueError("trace times must be strictly increasing")


@dataclass(frozen=True)
class FlowOpts:
    """Integrator options.

    ``dt`` is the largest step.  ``ode_tol`` is the per-step error
    tolerance of the step-size controller, mixed absolute and relative: a
    step from state y may err by ``ode_tol * max(1, max |y|)``, and a
    trace row's ``err_est`` is in that unit, the estimate over
    max(1, max |y|).  None disables it and runs plain fixed-step RK4 at
    ``dt`` (used to measure the method order).  ``normalize`` rescales
    after each step to hold scalar curvature at its initial value.
    Diagnostic rows lie on the time grid t = j * ``stride`` * ``dt`` and
    at t_end; the initial and final rows are always present.
    """

    dt: float = 0.01
    ode_tol: float | None = 1e-9
    normalize: bool = False
    stride: int = 1
    minimize: MinimizeOpts = field(default=MinimizeOpts(restarts=8))

    def __post_init__(self):
        if self.dt <= 0 or not np.isfinite(self.dt):
            raise ValueError("dt must be positive and finite")
        if self.ode_tol is not None and not (self.ode_tol > 0 and np.isfinite(self.ode_tol)):
            raise ValueError("ode_tol must be positive and finite, or None")
        if self.stride < 1:
            raise ValueError("stride must be at least 1")


# ---------------------------------------------------------------------------
# Reaction term


@single_threaded
def quadratic_reaction(r: CurvatureTensor) -> CurvatureTensor:
    """The quadratic reaction Q(R) = R^2 + R# of the curvature evolution
    equation.

    Maps the algebraic symmetry class to itself; on the constant-curvature
    ray Q(sphere(n, kappa)) = sphere(n, 2 (n-1) kappa^2).
    """
    return CurvatureTensor.from_operator(r.n, project(_reaction_raw(r.operator)))


# ---------------------------------------------------------------------------
# Frame decomposition of the reaction


def _frame_components(r: CurvatureTensor, frame: Frame) -> np.ndarray:
    """Curvature components in a completed orthonormal basis led by the 4-frame."""
    frame.require_rows(4)
    if frame.n != r.n:
        raise ValueError(f"dimension mismatch: tensor n={r.n}, frame n={frame.n}")
    b = complete_basis(frame)
    t = r.array
    for _ in range(4):
        t = np.tensordot(t, b, axes=([0], [1]))
    return t


def _block_sums(s: np.ndarray) -> tuple[float, float, float]:
    """The block sums (I1, I2, I3) of the reaction decomposition.

    The common summand is evaluated on the components ``s`` given by
    ``_frame_components``; the blocks split the (p, q) index range at 4:
    both small, small-large, both large.  For n = 4 the last two are empty.
    """
    a = s[0, :, 0, :] + s[1, :, 1, :]
    b = s[2, :, 2, :] + s[3, :, 3, :]
    c = s[0, 1, :, :] * s[2, 3, :, :]
    d = (s[0, :, 2, :] + s[1, :, 3, :]) * (s[2, :, 0, :] + s[3, :, 1, :])
    e = (s[0, :, 3, :] - s[1, :, 2, :]) * (s[3, :, 0, :] - s[2, :, 1, :])
    t = a * b - c - d - e
    return float(t[:4, :4].sum()), float(t[:4, 4:].sum()), float(t[4:, 4:].sum())


def decomposition_residual(r: CurvatureTensor, frame: Frame) -> float:
    """Residual of the reaction decomposition identity.

    The frame combination of Q(R) that defines the isotropic curvature
    equals two square sums plus 2 I1 + 4 I2 + 2 I3; the identity pins the
    Q convention, so the residual is round-off (< 1e-10) when the
    convention is right.
    """
    s = _frame_components(r, frame)
    lhs = isotropic_curvature(quadratic_reaction(r), frame)
    sq13 = float(((s[0, 2, :, :] - s[1, 3, :, :]) ** 2).sum())
    sq14 = float(((s[0, 3, :, :] + s[1, 2, :, :]) ** 2).sum())
    i1, i2, i3 = _block_sums(s)
    rhs = sq13 + sq14 + 2.0 * i1 + 4.0 * i2 + 2.0 * i3
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Integration


class _Diagnostics:
    """Warm-started per-row minimizations for trace diagnostics.

    A row makes at most two descents on R (``minimize_searches``): Kmin
    and Kmax as one signed stack of 2-frames, and NIC and PIC2 on R x R^2
    as one stack of 4-frames in R^{n+2}, the NIC starts padded with zeros.
    Each search keeps its own starts, lower bound and stop, and is
    warm-started from its own argmin of the previous row; a search whose
    warm start is at its stop is certified there and does not descend.
    """

    def __init__(self, opts: MinimizeOpts):
        self.opts = opts
        self.warm: dict[str, tuple[Frame, ...]] = {}

    def _run(self, r: CurvatureTensor, objective: str, searches: tuple[tuple[str, int, float], ...]) -> list[float]:
        group = [(flat, sign, self.warm.get(key, ())) for key, flat, sign in searches]
        reports = minimize_searches(r, group, objective, self.opts)
        for (key, _, _), rep in zip(searches, reports):
            self.warm[key] = (rep.argmin_frame,)
        return [rep.min_value for rep in reports]

    def row(self, t: float, r: CurvatureTensor, dt: float, err: float) -> TraceRow:
        kmin, neg_kmax = self._run(r, "sectional", (("kmin", 0, 1.0), ("kmax", 0, -1.0)))
        min_iso, min_pic2 = self._run(r, "isotropic", (("iso", 0, 1.0), ("pic2", 2, 1.0)))
        return TraceRow(
            t=t, kmin=kmin, kmax=-neg_kmax, min_iso=min_iso, min_pic2=min_pic2,
            scalar=scalar_curvature(r), dt=dt, err_est=err,
        )


def _step_toward(left: float, h: float, near: float) -> float:
    """The step to take with ``left`` to go to the next stop when the
    controller proposes h: all of ``left`` if it is at most h (give or
    take ``near``), and half of it if a step of h would leave a sliver,
    less than h / 2, so that no step before a stop is shorter than h / 2."""
    if left - h <= near:
        return left
    if left < 1.5 * h:
        return 0.5 * left
    return h


def _growth(err: float, tol: float) -> float:
    """Step-size factor after a step accepted with error estimate err
    (Hairer-Norsett-Wanner, *Solving ODEs I*, II.4): the estimate is the
    local error of the embedded third-order solution, O(h^4), so
    h (tol / err)^(1/4) would meet tol exactly; ``SAFETY`` aims below it,
    and the factor stays within [0.2, 2]."""
    if err == 0.0:
        return 2.0
    return min(2.0, max(0.2, SAFETY * (tol / err) ** 0.25))


@single_threaded
def integrate(r0: CurvatureTensor, t_end: float, opts: FlowOpts = FlowOpts()) -> FlowTrace:
    """Integrate dR/dt = Q(R) from 0 to t_end with diagnostics.

    Classical RK4 with its embedded third-order estimate
    (Hairer-Norsett-Wanner, *Solving ODEs I*, II.4-5): k5 = Q(y_{n+1}) is
    also the next step's k1 (first same as last), and the solution with
    weights (1/6, 1/3, 1/3, 0, 1/6) differs from RK4's, which is
    accepted, by (h/6)(k4 - k5).  A trial costs 4 Q.  One whose estimate
    exceeds tol = ``opts.ode_tol`` * max(1, max |y|), y the state at the
    start of the step (Atol = Rtol = ``ode_tol``), is halved and tried
    again; more than ``MAX_HALVINGS`` halvings of one step are a step-size
    underflow (RuntimeError).  The first step is ``opts.dt``, and each
    next one h times ``_growth(err, tol)``, at most ``opts.dt``.

    Rows lie at t = j * ``opts.stride`` * ``opts.dt`` and at t_end, so a
    row is a computed state: steps are cut to land on the next row time
    without a sliver (``_step_toward``), and a row time less than half a
    step before t_end gives way to t_end.  A row's ``err_est`` is the
    largest estimate since the previous row, each over its step's
    max(1, max |y|), so it is at most ``ode_tol``.  With ``ode_tol=None``
    every step is ``opts.dt`` (the last one cut to t_end) and the estimate
    is only recorded.  After a ``normalize`` rescale of y by c, k1 is
    c^2 k5, since Q is homogeneous of degree 2.  The blow-up guard aborts
    with FlowBlowupError when components pass ``BLOWUP_CAP``; because the
    tolerance grows with the state, the steps toward a finite-time
    singularity do not shrink without end, and the guard is reached.

    The state is the Lambda^2 operator of R, whose entries are exactly the
    distinct components of R up to sign, so the maxima above are the same
    as over the full array.  The trace counts Q evaluations and halvings.
    """
    if t_end <= 0 or not np.isfinite(t_end):
        raise ValueError("t_end must be positive and finite")
    n = r0.n
    y = r0.operator
    scalar0 = _scalar(y)
    size = float(np.abs(y).max())
    if opts.normalize and abs(scalar0) < 1e-12 * max(1.0, size):
        raise ValueError("cannot normalize: initial scalar curvature vanishes")
    diag = _Diagnostics(opts.minimize)
    rows = [diag.row(0.0, r0, 0.0, 0.0)]
    t = 0.0
    h = opts.dt
    # Overflow near a blow-up yields non-finite entries, which halve the
    # step or raise below, so the warnings are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = _reaction_raw(y)
    steps = halvings = 0
    q_evals = 1
    err_since_row = 0.0
    near = END_TOL * max(1.0, t_end)
    while t < t_end:
        scale = max(1.0, size)
        stop = min(t_end, len(rows) * opts.stride * opts.dt)
        if opts.ode_tol is None:
            h = opts.dt if t_end - t > opts.dt - near else t_end - t
            if t_end - stop <= near:
                stop = t_end
        else:
            tol = opts.ode_tol * scale
            if t_end - stop < 0.5 * h:
                stop = t_end
            h = _step_toward(stop - t, h, near)
        tries = 0
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                k2 = _reaction_raw(y + 0.5 * h * k1)
                k3 = _reaction_raw(y + 0.5 * h * k2)
                k4 = _reaction_raw(y + h * k3)
                y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                k5 = _reaction_raw(y_new)
                q_evals += 4
                err = h / 6.0 * float(np.abs(k4 - k5).max())
                if not np.isfinite(err):
                    err = float("inf")
                if opts.ode_tol is None or err <= tol:
                    break
                tries += 1
                if tries > MAX_HALVINGS:
                    raise RuntimeError(f"step size underflow at t = {t:.6g}: error estimate {err:.3e}")
                h *= 0.5
        halvings += tries
        y, k1 = y_new, k5
        size = float(np.abs(y).max())  # nan or inf with any non-finite entry
        if not np.isfinite(size):
            raise FlowBlowupError(t + h, float("inf"), BLOWUP_CAP)
        if opts.normalize:
            s_new = _scalar(y)
            if abs(s_new) < 1e-300 or (s_new > 0) != (scalar0 > 0):
                raise ValueError(f"normalization failed at t = {t + h:.6g}: scalar curvature degenerated")
            c = scalar0 / s_new
            y, k1 = c * y, (c * c) * k5  # Q is homogeneous of degree 2
            size = float(np.abs(y).max())
        if size > BLOWUP_CAP:
            raise FlowBlowupError(t + h, size, BLOWUP_CAP)
        steps += 1
        t = steps * opts.dt if opts.ode_tol is None else t + h
        err_since_row = max(err_since_row, err / scale)
        if t >= stop - near:
            t = stop
            r_now = CurvatureTensor.from_operator(n, project(y))
            rows.append(diag.row(t, r_now, h, err_since_row))
            err_since_row = 0.0
        if opts.ode_tol is not None:
            h = min(opts.dt, h * _growth(err, tol))
    # the last step lands on t_end, so its row's tensor is the final one
    return FlowTrace(rows=tuple(rows), final=r_now, q_evals=q_evals, halvings=halvings)


@dataclass(frozen=True)
class ConeMarginResult:
    """Trace plus verdict of a cone-margin experiment."""

    trace: FlowTrace
    verdict: bool
    worst_pic2: float


def cone_margin_experiment(r0: CurvatureTensor, t_end: float, opts: FlowOpts = FlowOpts()) -> ConeMarginResult:
    """Track the padded-nonnegativity margin along a trajectory.

    Requires the initial tensor to pass check_pic2; the verdict is whether
    min_pic2 stays at or above the negative decision margin on every
    diagnostic row.
    """
    ok0, _ = check_pic2(r0, opts.minimize)
    if not ok0:
        raise ValueError("initial tensor fails the padded nonnegativity check")
    trace = integrate(r0, t_end, opts)
    worst = min(row.min_pic2 for row in trace.rows)
    return ConeMarginResult(trace=trace, verdict=worst >= -opts.minimize.margin, worst_pic2=worst)


def sphere_kappa(n: int, kappa0: float, t: float) -> float:
    """Closed-form curvature of the constant-curvature ray.

    Solves kappa' = 2 (n-1) kappa^2, the scalar reduction of the reaction
    ODE on sphere(n, kappa)."""
    denom = 1.0 - 2.0 * (n - 1) * kappa0 * t
    if denom <= 0:
        raise ValueError(f"closed-form solution blows up before t = {t}")
    return kappa0 / denom
