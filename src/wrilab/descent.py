"""Projected steepest descent on the scalar velocity and basin mapping.

The landscape theorems predict where local descent ends up: far starts ride
the plateau to a velocity bound, near starts fall into the O(lam)-wide well
around the target.  The descent is deliberately plain - steepest descent with
Armijo backtracking and clamping to [c_min, c_max] - so the basin structure
reflects the objective, not optimizer heuristics.

basin_map runs the descents of every start under every objective in
lockstep, with their state in numpy arrays: velocity, value, gradient,
step, direction, iterations and phase (initial value, gradient pair or
Armijo trial).  Each round gathers the velocities that all running descents
need next, of the misfit and the penalty objectives alike.  A dict that
lives for one basin_map call holds the misfit of every velocity evaluated
so far, so each distinct velocity's misfit is computed once per call: the
round's velocities not yet in it go to one fwi_value call, and every row
reads its misfit from the dict.  Descents retrace each other's iterates and
Armijo trials (the starts are one initial step apart, and both objectives
share the misfit), so on cfg0 this sends 19,243 velocities to the kernel
instead of 65,973.  A penalty descent's values are then multiplied by
penalty_factor, which is what wri_value computes.  The result is bitwise
that of each descent run alone, one scalar call at a time:

- the batched misfit equals the unbatched one bit for bit, whatever else is
  in the batch, so a dict hit is the double a new evaluation would return;
- v * pf is pf * v, the double wri_value returns;
- each update (central difference, projection, -sign, clamp, Armijo test,
  step halving) is the same elementwise IEEE operation on arrays as on
  Python floats.

If a round's evaluation raises, it stores nothing; its velocities are then
evaluated one at a time, only those that succeed are stored, and only the
descents whose velocities raise are aborted.  A single descent
is basin_map on one start: basin_map(exp, [(kind, alpha)], [c0])[0][0].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .acoustics import separation_scale
from .objectives import Experiment, fwi_value, penalty_factor

# stop on a projected gradient at most _GRAD_TOL or once Armijo backtracking
# (factor _ARMIJO_FACTOR, sufficient decrease _ARMIJO_DECREASE) has shrunk
# the step to _STEP_TOL
_GRAD_TOL = 1e-8
_STEP_TOL = 1e-12
_ARMIJO_FACTOR = 0.5
_ARMIJO_DECREASE = 1e-4

# the phase of a descent: what its next evaluation is for
_VALUE, _GRADIENT, _TRIAL, _DONE = range(4)


@dataclass
class DescentReport:
    """Trajectory and outcome of one descent run."""

    c0: float
    c_final: float
    value_final: float
    grad_final: float
    iterations: int
    reason: str
    label: str
    history: list = field(default_factory=list)


def classify_minimizer(
    exp: Experiment, c: float, scan_points: int = 2001
) -> str:
    """Label a final velocity: target well, a bound, or an interior point.

    lower_bound   within one scan cell of c_min
    upper_bound   within one scan cell of c_max
    target        |c - c_star| <= L*lam (the excluded-neighborhood radius)
    interior_spurious   anything else

    Bounds are checked first: for wide pulses the L*lam radius can reach a
    bound, and a clamped iterate is a bound outcome regardless of the radius.
    """
    geo = exp.geo
    cell = (geo.c_max - geo.c_min) / (scan_points - 1)
    if abs(c - geo.c_min) <= cell:
        return "lower_bound"
    if abs(c - geo.c_max) <= cell:
        return "upper_bound"
    if abs(c - exp.c_star) <= separation_scale(geo) * exp.lam:
        return "target"
    return "interior_spurious"


def _values(exp: Experiment, cs: np.ndarray, objective: np.ndarray, alphas,
            misfit: dict) -> np.ndarray:
    """Objective values at velocities cs: the misfit of each velocity, read
    from misfit (velocity -> value), times penalty_factor on the rows whose
    objective has a weight.  The distinct velocities not yet in misfit are
    evaluated in one call and stored; a call that raises stores nothing."""
    keys = cs.tolist()
    new = sorted(set(keys).difference(misfit))
    if new:
        misfit.update(zip(new, fwi_value(exp, np.array(new)).value.tolist()))
    values = np.array([misfit[k] for k in keys])
    for j, alpha in enumerate(alphas):
        if alpha is not None:
            rows = objective == j
            values[rows] = penalty_factor(exp.geo, cs[rows], alpha) * values[rows]
    return values


def basin_map(
    exp: Experiment,
    objectives,
    starts,
    init_step: float | None = None,
    fd_h: float | None = None,
    max_iterations: int = 500,
    scan_points: int = 2001,
) -> list:
    """Projected steepest descent from every start under every objective.

    objectives is a sequence of (kind, alpha) pairs: ("fwi", None) for the
    misfit, ("wri", alpha) with alpha > 0 for the penalty objective.  The
    result holds one list of DescentReports per pair, in start order.

    Gradients are central finite differences with h = 1e-6 * (c_max - c_min)
    by default; the gradient is projected to zero when it points out of the
    feasible interval at a bound.  Each iteration halves the step length,
    from init_step (default (c_max - c_min)/100), until the Armijo
    sufficient-decrease condition holds.  A descent stops on a small projected
    gradient, a fully collapsed step, or the iteration cap.  init_step and
    fd_h must be positive and finite, max_iterations a nonnegative int.
    """
    alphas = []
    for kind, alpha in objectives:
        if kind == "fwi":
            alphas.append(None)
        elif kind == "wri":
            if alpha is None or not alpha > 0.0:
                raise ValueError("the wri objective needs a positive penalty "
                                 f"weight alpha; got {alpha}")
            alphas.append(alpha)
        else:
            raise ValueError(f"unknown descent objective kind {kind!r}")
    geo = exp.geo
    starts = [float(c0) for c0 in starts]
    for c0 in starts:
        if not (geo.c_min <= c0 <= geo.c_max):
            raise ValueError(f"start velocity {c0} outside [{geo.c_min}, {geo.c_max}]")
    span = geo.c_max - geo.c_min
    h = 1e-6 * span if fd_h is None else fd_h
    step0 = span / 100.0 if init_step is None else init_step
    for name, given in (("init_step", step0), ("fd_h", h)):
        if not 0.0 < given < np.inf:
            raise ValueError(f"{name} must be positive and finite; got {given}")
    if not (isinstance(max_iterations, (int, np.integer)) and max_iterations >= 0):
        raise ValueError(f"max_iterations must be a nonnegative int; got {max_iterations!r}")

    # descent r runs start r % len(starts) under objective r // len(starts)
    c = np.tile(np.array(starts, dtype=float), len(alphas))
    n = c.size
    value = np.zeros(n)
    grad = np.zeros(n)
    step = np.zeros(n)
    direction = np.zeros(n)
    trial = np.zeros(n)
    iterations = np.zeros(n, dtype=np.int64)
    phase = np.full(n, _VALUE)
    reason = np.full(n, "max_iterations", dtype=object)
    history = [[c0] for c0 in c.tolist()]
    misfit = {}  # velocity -> misfit, for this call only

    # each round evaluates, in one block: the first value of each descent
    # that has none, the gradient pair c +- h of each descent at _GRADIENT,
    # and the Armijo trial of each descent at _TRIAL
    while True:
        first, pair, tried = (np.flatnonzero(phase == at) for at in (_VALUE, _GRADIENT, _TRIAL))
        owner = np.concatenate((first, pair, pair, tried))
        if not owner.size:
            break
        cs = np.concatenate((c[first], c[pair] + h, c[pair] - h, trial[tried]))
        objective = owner // len(starts)
        try:
            values = _values(exp, cs, objective, alphas, misfit)
        except (ValueError, FloatingPointError):
            # some descent asked for a bad velocity: evaluate each velocity
            # alone, abort the descents whose velocities raise, and drop them
            values = np.empty(cs.size)
            for row, r in enumerate(owner.tolist()):
                if phase[r] == _DONE:
                    continue
                try:
                    values[row] = _values(exp, cs[row:row + 1], objective[row:row + 1],
                                          alphas, misfit)[0]
                except (ValueError, FloatingPointError) as err:
                    reason[r] = f"aborted: {err}"
                    value[r] = grad[r] = np.nan
                    phase[r] = _DONE
            values = values[phase[owner] != _DONE]
            first, pair, tried = (idx[phase[idx] != _DONE] for idx in (first, pair, tried))
        n1, n2 = first.size, first.size + pair.size
        value[first] = values[:n1]
        v_plus, v_minus = values[n1:n2], values[n2:n2 + pair.size]
        v_tried = values[n2 + pair.size:]

        raw = (v_plus - v_minus) / (2.0 * h)
        cp = c[pair]
        g = np.where(((cp <= geo.c_min) & (raw > 0.0))
                     | ((cp >= geo.c_max) & (raw < 0.0)), 0.0, raw)
        grad[pair] = g
        small = np.abs(g) <= _GRAD_TOL
        at_bound = ((cp == geo.c_min) | (cp == geo.c_max)) & (np.abs(raw) > _GRAD_TOL)
        stopped = pair[small]
        reason[stopped] = np.where(at_bound[small], "bound", "gradient").tolist()
        phase[stopped] = _DONE
        moving = pair[~small]
        direction[moving] = -np.sign(g[~small])
        step[moving] = step0

        accept = v_tried <= value[tried] - _ARMIJO_DECREASE * np.abs(grad[tried]) * np.abs(
            trial[tried] - c[tried])
        moved = tried[accept]
        c[moved] = trial[moved]
        value[moved] = v_tried[accept]
        iterations[moved] += 1
        for r, c_r in zip(moved.tolist(), c[moved].tolist()):
            history[r].append(c_r)
        rejected = tried[~accept]
        step[rejected] *= _ARMIJO_FACTOR

        # the loop test of the descent: a capped descent is done
        ready = np.concatenate((first, moved))
        phase[ready] = np.where(iterations[ready] < max_iterations, _GRADIENT, _DONE)

        # Armijo backtracking from each descent's current step: the first
        # step above _STEP_TOL that moves the clamped iterate is its trial
        idx = np.concatenate((moving, rejected))
        while idx.size:
            collapsed = idx[step[idx] <= _STEP_TOL]
            iterations[collapsed] += 1
            reason[collapsed] = "step"
            phase[collapsed] = _DONE
            idx = idx[step[idx] > _STEP_TOL]
            c_new = np.minimum(np.maximum(c[idx] + direction[idx] * step[idx],
                                          geo.c_min), geo.c_max)
            moves = c_new != c[idx]
            trial[idx[moves]] = c_new[moves]
            phase[idx[moves]] = _TRIAL
            idx = idx[~moves]
            step[idx] *= _ARMIJO_FACTOR

    reports = [
        DescentReport(
            c0=hist[0], c_final=c_r, value_final=v_r, grad_final=abs(g_r),
            iterations=it_r, reason=why, label=classify_minimizer(exp, c_r, scan_points),
            history=hist,
        )
        for hist, c_r, v_r, g_r, it_r, why in zip(
            history, c.tolist(), value.tolist(), grad.tolist(), iterations.tolist(),
            reason.tolist())
    ]
    return [reports[j * len(starts):(j + 1) * len(starts)] for j in range(len(alphas))]
