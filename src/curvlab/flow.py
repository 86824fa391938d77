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
symmetric N x N matrix M[(i<j), (k<l)] = R_ijkl with N = n(n-1)/2, and Q
is evaluated on it directly (``lambda2``).  The dense n^4 tensor is built
only where a ``CurvatureTensor`` is needed: the diagnostic rows, the final
tensor and ``quadratic_reaction``.  ``integrate`` runs the one RK4
stepper; it, ``quadratic_reaction`` and ``decomposition_residual`` share
the one Q kernel.  BLAS runs on one thread
(``blas.single_threaded``), so the same input gives the same bytes on any
core count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from .blas import single_threaded
from .conditions import MinimizeOpts, check_pic2, isotropic_curvature, minimize_searches
from .frames import Frame, complete_basis
from .lambda2 import expand, operator
from .lambda2 import reaction as _reaction_raw  # looked up per call, so tests can count calls
from .tensors import CurvatureTensor, SYM_TOL_DEFAULT, project_curvature, scalar_curvature

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

# Richardson halvings allowed per step before a step-size underflow, the
# safety factor of the step-size controller, and the max |component| past
# which integration aborts as a blow-up.
MAX_HALVINGS = 40
SAFETY = 0.8
BLOWUP_CAP = 1e12
# A trajectory within this of t_end has reached it.
END_TOL = 1e-15


class FlowBlowupError(RuntimeError):
    """Raised when the integrated tensor exceeds the blow-up cap."""

    def __init__(self, t: float, size: float, cap: float):
        super().__init__(f"blow-up at t = {t:.6g}: max |component| = {size:.3e} exceeds cap {cap:.3e}")
        self.t = t
        self.size = size
        self.cap = cap


@dataclass(frozen=True)
class TraceRow:
    """One diagnostic row: extremal curvatures, minimized functionals,
    scalar curvature, and the step size / error estimate that produced it.
    Its fields, in order, are the trace columns (``TRACE_COLUMNS``)."""

    t: float
    kmin: float
    kmax: float
    min_iso: float
    min_pic2: float
    scalar: float
    dt: float
    err_est: float

    def astuple(self) -> tuple[float, ...]:
        return _row_values(self)


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRow))
_row_values = attrgetter(*TRACE_COLUMNS)


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
        if any(not np.all(np.isfinite(row.astuple())) for row in self.rows):
            raise ValueError("trace entries must be finite")
        if any(t1 <= t0 for t0, t1 in zip(ts, ts[1:])):
            raise ValueError("trace times must be strictly increasing")


@dataclass(frozen=True)
class FlowOpts:
    """Integrator options.

    ``dt`` is the largest step.  ``ode_tol`` is the per-step error
    tolerance of the step-size controller and of Richardson halving, mixed
    absolute and relative: a step from state y may err by ``ode_tol *
    max(1, max |y|)``, and a trace row's ``err_est`` is in that unit, the
    estimate over max(1, max |y|).  None disables both and runs plain
    fixed-step RK4 at ``dt`` (used to measure the method order).
    ``normalize`` rescales after each step to hold scalar curvature at its
    initial value.  ``stride`` controls how many accepted steps separate
    diagnostic rows; the initial and final rows are always present.
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


def _tensor(m: np.ndarray, n: int) -> CurvatureTensor:
    """Project and wrap, with the symmetry tolerance scaled to the data."""
    tol = max(SYM_TOL_DEFAULT, 1e-12 * float(np.abs(m).max(initial=0.0)))
    return project_curvature(expand(m, n), n, sym_tol=tol)


def _scalar(m: np.ndarray) -> float:
    """Scalar curvature of the tensor with Lambda^2 operator M."""
    return 2.0 * float(np.trace(m))


@single_threaded
def quadratic_reaction(r: CurvatureTensor) -> CurvatureTensor:
    """The quadratic reaction Q(R) = R^2 + R# of the curvature evolution
    equation.

    Maps the algebraic symmetry class to itself; on the constant-curvature
    ray Q(sphere(n, kappa)) = sphere(n, 2 (n-1) kappa^2).
    """
    return _tensor(_reaction_raw(operator(r.array)), r.n)


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


def _rk4(y: np.ndarray, h: float, k1: np.ndarray | None = None) -> np.ndarray:
    # Overflow near a blow-up yields non-finite entries; callers test for
    # them and either halve the step or raise, so the warnings are noise.
    # ``k1`` = Q(y) may be passed in when several steps start from y.
    with np.errstate(over="ignore", invalid="ignore"):
        if k1 is None:
            k1 = _reaction_raw(y)
        k2 = _reaction_raw(y + 0.5 * h * k1)
        k3 = _reaction_raw(y + 0.5 * h * k2)
        k4 = _reaction_raw(y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class _Diagnostics:
    """Warm-started per-row minimizations for trace diagnostics.

    A row makes two descents on R (``minimize_searches``): Kmin and Kmax
    as one signed stack of 2-frames, and NIC and PIC2 on R x R^2 as one
    stack of 4-frames in R^{n+2}, the NIC starts padded with zeros.  Each
    search keeps its own starts, lower bound and stop, and is warm-started
    from its own argmin of the previous row.
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


def _step_toward(left: float, h: float) -> float:
    """The step to take with ``left`` to go when the controller proposes h:
    all of ``left`` if it is at most h, and half of it if a step of h
    would leave a sliver, less than h / 2 but more than ``END_TOL``, so
    that no step to t_end is shorter than h / 2."""
    if left <= h:
        return left
    if left < 1.5 * h and left - h > END_TOL:
        return 0.5 * left
    return h


def _growth(err: float, tol: float) -> float:
    """Step-size factor after a step accepted with error estimate err
    (Hairer-Norsett-Wanner, *Solving ODEs I*, II.4): the local error of
    RK4 is O(h^5), so h (tol / err)^(1/5) would meet tol exactly;
    ``SAFETY`` aims below it, and the factor stays within [0.2, 2]."""
    if err == 0.0:
        return 2.0
    return min(2.0, max(0.2, SAFETY * (tol / err) ** 0.2))


@single_threaded
def integrate(r0: CurvatureTensor, t_end: float, opts: FlowOpts | None = None) -> FlowTrace:
    """Integrate dR/dt = Q(R) from 0 to t_end with diagnostics.

    Classical RK4 with Richardson error control: each step is compared
    against two half steps, the error estimate is max |full - halved| / 15,
    and the halved result is the one accepted.  A trial whose estimate
    exceeds the step's tolerance tol = ``opts.ode_tol`` * max(1, max |y|),
    y the state at the start of the step (Atol = Rtol = ``ode_tol``), is
    halved and tried again; more than ``MAX_HALVINGS`` halvings of one
    step are a step-size underflow (RuntimeError).  After each accepted
    step the next step is h times ``_growth(err, tol)``, at most
    ``opts.dt``, the first one is ``opts.dt``, and a step that would leave
    a sliver before t_end is cut to half the rest (``_step_toward``).
    A row's ``err_est`` is the largest estimate since the previous row,
    each over its step's max(1, max |y|), so an accepted step reports at
    most ``ode_tol``.  With ``ode_tol=None`` every step is ``opts.dt``
    (the last one cut to t_end), the full fixed-step result is used and
    the estimate is only recorded.  The blow-up guard aborts with
    FlowBlowupError when components pass ``BLOWUP_CAP``; because the
    tolerance grows with the state, the steps toward a finite-time
    singularity do not shrink without end, and the guard is reached.

    The state is the Lambda^2 operator of R, whose entries are exactly the
    distinct components of R up to sign, so the maxima above are the same
    as over the full array; the tensor is built only for diagnostic rows
    and the final tensor.  The trace counts the Q evaluations and halvings.
    """
    opts = opts or FlowOpts()
    if t_end <= 0 or not np.isfinite(t_end):
        raise ValueError("t_end must be positive and finite")
    n = r0.n
    y = operator(r0.array)
    scalar0 = _scalar(y)
    if opts.normalize and abs(scalar0) < 1e-12 * max(1.0, float(np.abs(y).max())):
        raise ValueError("cannot normalize: initial scalar curvature vanishes")
    diag = _Diagnostics(opts.minimize)
    rows = [diag.row(0.0, r0, 0.0, 0.0)]
    r_now = None
    t = 0.0
    h = opts.dt
    steps = q_evals = halvings = 0
    err_since_row = 0.0
    while t < t_end - END_TOL:
        scale = max(1.0, float(np.abs(y).max()))
        if opts.ode_tol is None:
            h = min(opts.dt, t_end - t)
        else:
            h = _step_toward(t_end - t, h)
            tol = opts.ode_tol * scale
        tries = 0
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = _reaction_raw(y)
        q_evals += 1
        while True:
            full = _rk4(y, h, k1)
            mid = _rk4(y, 0.5 * h, k1)
            halved = _rk4(mid, 0.5 * h)
            q_evals += 10
            err = float(np.abs(full - halved).max()) / 15.0
            if not np.isfinite(err):
                err = float("inf")
            if opts.ode_tol is None or err <= tol:
                break
            tries += 1
            if tries > MAX_HALVINGS:
                raise RuntimeError(f"step size underflow at t = {t:.6g}: error estimate {err:.3e}")
            h *= 0.5
        halvings += tries
        y = full if opts.ode_tol is None else halved
        if not np.all(np.isfinite(y)):
            raise FlowBlowupError(t + h, float("inf"), BLOWUP_CAP)
        if opts.normalize:
            s_new = _scalar(y)
            if abs(s_new) < 1e-300 or (s_new > 0) != (scalar0 > 0):
                raise ValueError(f"normalization failed at t = {t + h:.6g}: scalar curvature degenerated")
            y = y * (scalar0 / s_new)
        size = float(np.abs(y).max())
        if size > BLOWUP_CAP:
            raise FlowBlowupError(t + h, size, BLOWUP_CAP)
        t += h
        steps += 1
        err_since_row = max(err_since_row, err / scale)
        if steps % opts.stride == 0 or t >= t_end - END_TOL:
            r_now = _tensor(y, n)
            rows.append(diag.row(t, r_now, h, err_since_row))
            err_since_row = 0.0
        if opts.ode_tol is not None:
            h = min(opts.dt, h * _growth(err, tol))
    # the last row is at the last step, so its tensor is the final one
    final = r_now if r_now is not None else _tensor(y, n)
    return FlowTrace(rows=tuple(rows), final=final, q_evals=q_evals, halvings=halvings)


@dataclass(frozen=True)
class ConeMarginResult:
    """Trace plus verdict of a cone-margin experiment."""

    trace: FlowTrace
    verdict: bool
    worst_pic2: float


def cone_margin_experiment(r0: CurvatureTensor, t_end: float, opts: FlowOpts | None = None) -> ConeMarginResult:
    """Track the padded-nonnegativity margin along a trajectory.

    Requires the initial tensor to pass check_pic2; the verdict is whether
    min_pic2 stays at or above the negative decision margin on every
    diagnostic row.
    """
    opts = opts or FlowOpts()
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
