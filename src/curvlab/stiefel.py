"""Nonmonotone descent on stacks of Stiefel frames.

``descend`` minimizes a smooth function of orthonormal k-frames in R^n
from a stack of orthonormal starts shaped (S, k, n).  The objective is any
object whose ``batch(v)`` returns the values (S,) and Euclidean gradients
(S, k, n) on a stack of frames; the iteration budget and the step and
gradient tolerances are the module constants below.

All starts descend together as one batch, projected gradient descent with
alternating Barzilai-Borwein trial steps (the long and the short step by
turns: Wen-Yin 2013; Frassoldati-Zanni-Zanghirati 2008, *New adaptive
stepsize selections in gradient methods*), nonmonotone Armijo
backtracking (Zhang-Hager 2004, *A nonmonotone line search technique and
its application to unconstrained optimization*) and a Cholesky QR
retraction (Edelman-Arias-Smith 1998; Wen-Yin 2013), each start with its
own step, reference value and stopping.  Every stacked product is one
small matmul or LAPACK call per start, so a start's path does not depend
on which other starts share its batch.

One batch may carry several searches, each a run of consecutive starts
with its own sign (a search minimizes f or -f, so maxima come from the
same stack) and its own stop, a value none of its frames can go much
below: once one of its starts reaches it, the starts of that search stop
and the other searches go on.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

MAX_ITERS = 500
STEP_TOL = 1e-10
MAX_STEP = np.pi  # cap on t |p|_F of every trial, see retract
GRAD_TOL = 1e-8
# Zhang-Hager weight of the past in the reference value a trial must
# improve on: 0 is the monotone Armijo test, values near 1 an average of
# the whole path.
ETA = 0.85


def dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-start inner products <x[s], y[s]> of two stacks, one dot each."""
    s = len(x)
    return np.vecdot(x.reshape(s, -1), y.reshape(s, -1))


def tangent_project(grad: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project Euclidean gradients onto the Stiefel tangent spaces at a stack of frames."""
    gv = grad @ v.transpose(0, 2, 1)
    return grad - 0.5 * (gv + gv.transpose(0, 2, 1)) @ v


def orthonormal_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign-fixed Householder QR of the rows of each matrix in a stack
    (S, k, n), Gram-Schmidt in exact arithmetic, for rows of any
    conditioning: random starts, warm starts and ``frames.complete_basis``.

    Returns the orthonormal rows Q (C-contiguous) and |R_jj| (S, k): row j
    of Q[s] lies in the span of rows 0..j of m[s] with a positive inner
    product with row j, and |R_jj| is the norm of the part of that row
    orthogonal to rows 0..j-1, the rank test.
    """
    # The two LAPACK steps of np.linalg.qr without its wrapper, whose
    # checks, error-state contexts and triu cost more than the k <= 4
    # column factorization itself.  geqrf leaves R in the top of ``a``.
    a = m.transpose(0, 2, 1).copy()
    tau = _umath_linalg.qr_r_raw(a, signature="d->d")
    q = _umath_linalg.qr_reduced(a, tau, signature="dd->d")
    diag = np.diagonal(a, axis1=1, axis2=2)
    signs = np.where(diag < 0.0, -1.0, 1.0)
    return np.multiply(q.transpose(0, 2, 1), signs[:, :, None], order="C"), signs * diag


def retract(m: np.ndarray) -> np.ndarray:
    """Cholesky QR L^-1 m, with G = m m^T = L L^T, of a stack (S, k, n) of
    line-search trials m = v - t p, v orthonormal rows and p tangent at v:
    the rows ``orthonormal_rows`` returns, for one k x k factorization per
    start.  G = I + t^2 p p^T >= I, and with t |p|_F <= MAX_STEP its
    condition is at most 1 + MAX_STEP^2, so the rows are orthonormal to
    round-off (Fukaya et al. 2014, *CholeskyQR2*)."""
    l = _umath_linalg.cholesky_lo(m @ m.transpose(0, 2, 1), signature="d->d")
    return _umath_linalg.inv(l, signature="d->d") @ m


def _evaluate(obj, v: np.ndarray, sign: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Values and gradients of sign[s] f (of f if sign is None) on a stack
    of frames; the flips are exact, so -f is bitwise the negated f."""
    f, g = obj.batch(v)
    return (f, g) if sign is None else (sign * f, sign[:, None, None] * g)


def _line_search(obj, v, p, ref, slope, gnorm, sign, trial, tries: int = 60):
    """Armijo backtracking along -p for every start of a batch.

    Start s tries the retraction of v[s] - t p[s] for t = trial[s],
    trial[s] / 2, ... and accepts the first whose value is at most
    ref[s] - t slope[s]; it gives up after ``tries`` trials or once
    t gnorm[s] < ``STEP_TOL``.  The starts still searching are
    evaluated together, gathered into a smaller batch only when some of
    the batch stopped (``sign`` as in ``_evaluate``).  Returns the trial
    frames, values and gradients (accepted where ``ok``), the last steps
    and the mask ``ok``.
    """
    v_try = retract(v - trial[:, None, None] * p)
    f_try, g_try = _evaluate(obj, v_try, sign)
    ok = f_try <= ref - trial * slope
    if tries == 1 or ok.all():
        return v_try, f_try, g_try, trial, ok
    half = 0.5 * trial
    retry = ~(ok | (half * gnorm < STEP_TOL))
    if retry.all():
        return _line_search(obj, v, p, ref, slope, gnorm, sign, half, tries - 1)
    if retry.any():
        trial = trial.copy()
        sign = sign if sign is None else sign[retry]
        sub = _line_search(obj, *(x[retry] for x in (v, p, ref, slope, gnorm)), sign, half[retry], tries - 1)
        for x, y in zip((v_try, f_try, g_try, trial, ok), sub):
            x[retry] = y
    return v_try, f_try, g_try, trial, ok


def descend(obj, v0: np.ndarray, stops: Sequence[float], signs: Sequence[float], sizes: Sequence[int]):
    """Nonmonotone projected gradient descent from a stack of orthonormal
    starts (S, k, n).

    All starts descend together as one batch.  Each steps along its
    negative tangent-projected gradient with its own Barzilai-Borwein trial
    step and Armijo backtracking, retracting by Cholesky QR (``retract``).
    With s the step between frames and y the change of the projected
    gradient, the trial step alternates between the long step s.s/s.y,
    after odd iterations, and the short step s.y/y.y, after even ones,
    clipped to [1e-12, 1e6]; where s.y is not positive it is twice the
    accepted step.  Every trial step t is capped at t |p|_F <= ``MAX_STEP``.
    Each retracted frame goes through ``obj.batch`` once, for value and
    gradient together, so the accepted trial's gradient is reused.

    The Armijo test is Zhang-Hager's: a trial must improve on a reference
    value C, not on the current value, so the Barzilai-Borwein steps,
    which are nonmonotone by design, are mostly taken as they come.  C
    starts at the start value with weight Q = 1, and each accepted value f
    updates Q to ``ETA`` Q + 1 and C to C + (f - C) / Q, the average of
    the path's values weighted by ``ETA`` per step back.  Q depends only
    on the iteration count, so the starts still in the batch share one Q.
    Every accepted f is at most C, so C never increases and no start ends
    above its start value, but a start's values may rise on the way.

    ``sizes`` splits the starts into searches, runs of consecutive starts,
    and ``signs`` and ``stops`` give one value per search: its sign, +1 to
    minimize f and -1 to minimize -f, and its stop, a value no frame can
    go much below (a lower bound on the minimum plus a tolerance; -inf for
    a search with no stop).

    A start leaves the batch at one place, a check made after the first
    evaluation and after every iteration, and with its state there and
    the number of iterations so far as its result.  The check tests, in
    this order: a line search that failed in the iteration just made (by
    step tolerance or 60 halvings; the start has kept its last accepted
    frame), a projected gradient norm below ``GRAD_TOL``, a start of the
    same search whose value is at most the search's stop (then every start
    of that search leaves, and the other searches go on), and ``MAX_ITERS``
    iterations (then every start leaves).  A start's path up to its exit
    depends neither on the other starts nor on the other searches of its
    batch, but where its search stops depends on the other starts of that
    search.

    Returns per-start arrays: values of the signed functional, frames,
    iterations, grad norms and converged.
    """
    v = np.asarray(v0, dtype=float)
    search = np.repeat(np.arange(len(sizes)), sizes)
    stop = np.repeat(np.asarray(stops, dtype=float), sizes)
    sign = None if all(x == 1.0 for x in signs) else np.repeat(np.asarray(signs, dtype=float), sizes)
    val, grad = _evaluate(obj, v, sign)
    p = tangent_project(grad, v)
    gnorm = np.sqrt(dots(p, p))
    ids = np.arange(len(v))
    out_val, out_v, out_gnorm, out_iters = (np.empty_like(x) for x in (val, v, gnorm, ids))
    step = 1.0 / np.maximum(1.0, gnorm)
    ref, weight = val, 1.0
    it, failed = 0, None
    while True:
        # the one exit: a failed line search, GRAD_TOL, a start of the same
        # search at its stop, MAX_ITERS; the current state is the result
        done = gnorm < GRAD_TOL if failed is None else failed | (gnorm < GRAD_TOL)
        reached = val <= stop
        if reached.any():
            hit = np.zeros(len(sizes), dtype=bool)
            hit[search[reached]] = True
            done |= hit[search]
        if it == MAX_ITERS:
            done[:] = True
        if done.any():
            gone = ids[done]
            out_val[gone], out_v[gone], out_gnorm[gone], out_iters[gone] = val[done], v[done], gnorm[done], it
            if done.all():
                break
            keep = ~done
            ids, v, p, val, gnorm, step, ref = (x[keep] for x in (ids, v, p, val, gnorm, step, ref))
            stop, search, sign = stop[keep], search[keep], sign if sign is None else sign[keep]
        it += 1
        v_try, f_try, g_try, trial, ok = _line_search(obj, v, p, ref, 1e-4 * gnorm * gnorm, gnorm, sign, step)
        p_try = tangent_project(g_try, v_try)
        failed = None if ok.all() else ~ok
        if failed is not None:
            # these starts keep where they are and leave at the next check
            v_try[failed], p_try[failed], f_try[failed] = v[failed], p[failed], val[failed]
        # Barzilai-Borwein step for the next iteration, the long step s.s/s.y
        # after odd iterations and the short step s.y/y.y after even ones,
        # doubling the accepted step where the curvature s.y is not positive
        s, y = v_try - v, p_try - p
        sy = dots(s, y)
        curved = sy > 1e-300
        num, den = (dots(s, s), sy) if it % 2 else (sy, dots(y, y))
        bent = curved.all()  # then the guard below changes nothing
        bb = np.minimum(np.maximum(num / (den if bent else np.where(curved, den, 1.0)), 1e-12), 1e6)
        step = bb if bent else np.where(curved, bb, np.minimum(trial * 2.0, 1e6))
        v, p, val, gnorm = v_try, p_try, f_try, np.sqrt(dots(p_try, p_try))
        # a start below GRAD_TOL leaves at the check, before another trial
        step = np.minimum(step, MAX_STEP / np.maximum(gnorm, GRAD_TOL))
        # f <= C, so f - C <= 0 and C cannot grow even by round-off
        weight = ETA * weight + 1.0
        ref = ref + (val - ref) / weight
    return out_val, out_v, out_iters, out_gnorm, out_gnorm < GRAD_TOL
