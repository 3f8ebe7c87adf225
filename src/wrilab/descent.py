"""Projected steepest descent on the scalar velocity and basin mapping.

The landscape theorems predict where local descent ends up: far starts ride
the plateau to a velocity bound, near starts fall into the O(lam)-wide well
around the target.  The descent is deliberately plain - steepest descent with
Armijo backtracking and clamping to [c_min, c_max] - so the basin structure
reflects the objective, not optimizer heuristics.

basin_map runs the descents of every start under every objective (the
misfit, or the penalty objective at a weight alpha) in lockstep, with their
state in numpy arrays: velocity, value, gradient, window of step halvings,
iterations and phase (gradient pair, Armijo search, waiting on a leader,
done).  The start values come first, in one call.  Then each round gathers
the velocities that all running descents need next, of the misfit and the
penalty objectives alike, and sends every row to fwi_value, in calls of at
most two velocities per descent.  A penalty descent's values are then
multiplied by penalty_factor, which is what wri_value computes.  The labels
of the final velocities are computed at the end, in one elementwise call.

Descents retrace each other: the starts are one initial step apart, so a
move often lands on a state another descent has reached.  The state after a
move is the objective, the velocity and the end hi of the window (below),
and with the iteration cap it fixes the rest of the descent.  basin_map
records each state with the first descent to reach it (its leader) and
that descent's move count there.  A descent whose move lands on a recorded
state follows the leader: it sends no rows until the leader is done, and
then takes the leader's moves after that state, as many as its own cap
allows.
It ends where the leader ended (value, gradient, stop reason and the
iterations after the state) if it takes them all, at max_iterations if its
cap stops it sooner, and it runs on from the leader's last state if the
leader's cap stopped the leader first.  A follower of a follower resolves
in turn.  On cfg0, 167 of the 202 descents take a leader's moves, and the
start values and the rounds send 23,052 velocities where every descent on
its own asks for 68,705.

An Armijo search tries the steps step0 * 0.5**k ("rungs" k = 0, 1, ...,
made by repeated halving) while the step is above _STEP_TOL, and moves to
the first rung that passes the sufficient-decrease test: a trial value v
passes if v < value - _ARMIJO_DECREASE * |g| * |dc|, or if it equals that
bar and the trial lies on c_min or c_max.  The bound case differs because
on the far plateau the value at a bound rounds equal to its neighbour's,
and the descent should still reach the bound.  So a descent never moves to
an equal value in the interior, and it stops (reason "step") where the
sufficient decrease rounds away.

A searching descent evaluates a window of rungs per round instead of one:
rungs 0..p after its gradient pair, p the rung it moved by at its previous
iteration (0 at its first), and the next 2 rungs after a window with no
accepted rung.  It moves to the first accepted rung of the window, the
trial the one-rung-at-a-time search accepts; the rungs after it are
evaluated in vain.  A descent usually accepts a rung near the last one, so
the window covers the halvings the one-at-a-time search makes anyway, in
one round: cfg0 makes 218 kernel calls (its start values and 217 rounds),
where one rung per round makes 572.

The result is bitwise that of each descent run alone, one scalar call at a
time:

- the batched misfit equals the unbatched one bit for bit, whatever else is
  in the batch;
- v * pf is pf * v, the double wri_value returns;
- each update (central difference, projection, sign, clamp, Armijo test,
  step halving) is the same elementwise IEEE operation on arrays as on
  Python floats;
- the window changes when a rung is evaluated, never which rung is
  accepted: the one-at-a-time search accepts the first rung that passes;
- a follower's moves are the ones it would make itself, since the moves
  after a state depend on the state alone until the cap stops them.

A gradient pair with c - h <= 0 (an fd_h of at least c_min) would ask
for a velocity that is not positive, where the one-at-a-time descent
raises: that descent is aborted before the round is built, with NaN value
and gradient.  Every other velocity it asks for is positive.  A single
descent is basin_map on one start: basin_map(exp, [alpha], [c0])[0][0].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .objectives import Experiment, fwi_value, penalty_factor

# stop on a projected gradient at most _GRAD_TOL or once Armijo backtracking
# (factor _ARMIJO_FACTOR, sufficient decrease _ARMIJO_DECREASE) has shrunk
# the step to _STEP_TOL
_GRAD_TOL = 1e-8
_STEP_TOL = 1e-12
_ARMIJO_FACTOR = 0.5
_ARMIJO_DECREASE = 1e-4

# the phase of a descent: what its next evaluation is for, or that it waits
# on a leader (see basin_map) or is done
_GRADIENT, _TRIAL, _FOLLOW, _DONE = range(4)


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


def _require_scan_points(scan_points):
    if not (isinstance(scan_points, (int, np.integer)) and scan_points >= 2):
        raise ValueError(f"scan_points must be an int of at least 2; got {scan_points!r}")


def classify_minimizer(exp: Experiment, c, scan_points: int = 2001):
    """Label final velocities: target well, a bound, or an interior point.

    target        arrival-time shift |tau(c) - tau(c_star)| <= lam/2, where
                  the pulse overlaps the data's
    lower_bound   within one scan cell of c_min
    upper_bound   within one scan cell of c_max
    interior_spurious   anything else

    The target zone is checked first, so that a coarse scan grid, whose
    bound cells are wide, cannot call an end point in the well a bound.
    Elementwise in c: a number gets a str, an array an array of str.
    scan_points, the points of the scan grid, must be an int of at least 2.
    """
    _require_scan_points(scan_points)
    geo = exp.geo
    c = np.asarray(c, dtype=float)
    cell = (geo.c_max - geo.c_min) / (scan_points - 1)
    label = np.select(
        [np.abs(geo.transit_time(c) - geo.transit_time(exp.c_star)) <= 0.5 * exp.lam,
         np.abs(c - geo.c_min) <= cell, np.abs(c - geo.c_max) <= cell],
        ["target", "lower_bound", "upper_bound"], "interior_spurious")
    return str(label) if label.ndim == 0 else label


def _values(exp: Experiment, cs: np.ndarray, objective: np.ndarray, alphas,
            chunk: int) -> np.ndarray:
    """Objective values at velocities cs: the misfit of each row, from
    fwi_value in calls of at most chunk velocities, times penalty_factor on
    the rows whose objective has a weight."""
    values = np.concatenate([fwi_value(exp, cs[i:i + chunk]).value
                             for i in range(0, cs.size, chunk)])
    for j, alpha in enumerate(alphas):
        if alpha is not None:
            rows = objective == j
            values[rows] = penalty_factor(exp.geo, cs[rows], alpha) * values[rows]
    return values


def basin_map(
    exp: Experiment,
    alphas,
    starts,
    init_step: float | None = None,
    fd_h: float | None = None,
    max_iterations: int = 500,
    scan_points: int = 2001,
) -> list:
    """Projected steepest descent from every start under every objective.

    alphas holds one penalty weight per objective: None for the misfit,
    alpha > 0 with a finite alpha^2 for the penalty objective.  The result holds one list of
    DescentReports per weight, in start order.

    Gradients are central finite differences with h = 1e-6 * (c_max - c_min)
    by default; the gradient is projected to zero when it points out of the
    feasible interval at a bound.  Each iteration halves the step length,
    from init_step (default (c_max - c_min)/100), until the Armijo
    sufficient-decrease condition holds: strictly in the interior, with
    equality allowed for a trial on c_min or c_max (see the module
    docstring).  A descent stops on a small projected gradient, a fully
    collapsed step, or the iteration cap.  init_step and fd_h must be
    positive and finite, max_iterations a nonnegative int, and init_step
    short of the interval: neither c_min + init_step nor c_max - init_step
    may reach the other bound.

    The descents run in lockstep, a descent's Armijo search evaluates a
    window of step halvings per round, and a descent that moves to a state
    another descent has reached takes that descent's moves from there on
    (see the module docstring); every report equals that of the descent run
    alone, one objective call at a time, bit for bit.
    """
    alphas = list(alphas)
    for alpha in alphas:
        # an infinite alpha^2 makes every penalty value NaN
        if alpha is not None and not (alpha > 0.0 and alpha * alpha < np.inf):
            raise ValueError("the penalty objective needs a positive weight "
                             f"alpha with a finite square; got {alpha}")
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
    if geo.c_min + step0 >= geo.c_max or geo.c_max - step0 <= geo.c_min:
        raise ValueError("init_step must not reach from one velocity bound to the "
                         f"other; got {step0} on [{geo.c_min}, {geo.c_max}]")
    if not (isinstance(max_iterations, (int, np.integer)) and max_iterations >= 0):
        raise ValueError(f"max_iterations must be a nonnegative int; got {max_iterations!r}")
    _require_scan_points(scan_points)

    # rung k of an Armijo search has step step0 * 0.5**k, made by repeated
    # halving; the search stops once the step is at most _STEP_TOL
    steps, step = [], step0
    while step > _STEP_TOL:
        steps.append(step)
        step *= _ARMIJO_FACTOR
    steps = np.array(steps)

    # descent r runs start r % len(starts) under objective r // len(starts);
    # the start values come first, in one call
    c = np.tile(np.array(starts, dtype=float), len(alphas))
    n = c.size
    if not n:  # no descent, and no start value to ask for
        return [[] for _ in alphas]
    value = _values(exp, c, np.arange(n) // len(starts), alphas, 2 * n)
    grad = np.zeros(n)
    # the window of rungs [lo, hi); a move sets hi past its rung, so a
    # gradient pair's window is 0..p, p the rung of the last move (0 before)
    lo = np.zeros(n, dtype=np.int64)
    hi = np.ones(n, dtype=np.int64)
    iterations = np.zeros(n, dtype=np.int64)
    phase = np.full(n, _GRADIENT if max_iterations else _DONE)
    reason = np.full(n, "max_iterations", dtype=object)
    # each descent's start and, after each move, its (c, value, gradient
    # the move used, hi)
    path = [[(c0, None, None, 1)] for c0 in c.tolist()]
    # the state (objective, c, hi) after a move -> the descent that reached
    # it first and its move count there; a follower r waits on lead[r],
    # which reached r's state at move count lead_at[r]
    reached = {}
    lead = np.zeros(n, dtype=np.int64)
    lead_at = np.zeros(n, dtype=np.int64)

    # each round evaluates, in one block: the gradient pair c +- h of each
    # descent at _GRADIENT, and the window of rungs of each descent at
    # _TRIAL, one row per rung
    while True:
        # a follower whose leader is done takes the leader's path after the
        # shared state, as far as its own cap lets it; if the leader's cap
        # stopped the leader first, the follower runs on from there.
        # Chains of followers resolve in turn.
        while True:
            waiting = (phase == _FOLLOW).nonzero()[0]
            ended = waiting[phase[lead[waiting]] == _DONE]
            if not ended.size:
                break
            for r, leader, at in zip(ended.tolist(), lead[ended].tolist(),
                                     lead_at[ended].tolist()):
                tail = path[leader][at + 1:at + 1 + max_iterations - iterations[r]]
                path[r] += tail
                iterations[r] += len(tail)
                if iterations[r] >= max_iterations:
                    c[r], value[r], grad[r], hi[r] = tail[-1]
                    phase[r] = _DONE
                elif reason[leader] == "max_iterations":
                    c[r], value[r], hi[r] = c[leader], value[leader], hi[leader]
                    phase[r] = _GRADIENT
                else:
                    c[r], value[r], grad[r] = c[leader], value[leader], grad[leader]
                    reason[r] = reason[leader]
                    # plus 1 where the leader's step collapsed
                    iterations[r] += iterations[leader] - at - len(tail)
                    phase[r] = _DONE

        pair, tried = (phase == _GRADIENT).nonzero()[0], (phase == _TRIAL).nonzero()[0]
        # a pair whose c - h is not positive aborts, where the one-at-a-time
        # descent raises; the round starts again, so that its followers
        # resolve first.  Every c is at least c_min, so only an h of at
        # least c_min can abort.
        if h >= geo.c_min:
            aborted = pair[c[pair] <= h]
            if aborted.size:
                reason[aborted] = "aborted: velocity must be positive"
                value[aborted] = grad[aborted] = np.nan
                phase[aborted] = _DONE
                continue
        if not (pair.size or tried.size):
            break
        lo_tried = lo[tried]
        count = hi[tried] - lo_tried
        group = count.cumsum() - count  # the first row of each window
        rung_owner = tried.repeat(count)
        rung = np.arange(rung_owner.size) + (lo_tried - group).repeat(count)
        c_old, g_old = c[rung_owner], grad[rung_owner]
        rung_c = np.minimum(np.maximum(c_old - np.sign(g_old) * steps[rung], geo.c_min),
                            geo.c_max)
        cp = c[pair]
        cs = np.concatenate((cp + h, cp - h, rung_c))
        objective = np.concatenate((pair, pair, rung_owner)) // len(starts)
        values = _values(exp, cs, objective, alphas, 2 * n)
        v_rung = values[2 * pair.size:]

        raw = (values[:pair.size] - values[pair.size:2 * pair.size]) / (2.0 * h)
        g = np.where(((cp <= geo.c_min) & (raw > 0.0))
                     | ((cp >= geo.c_max) & (raw < 0.0)), 0.0, raw)
        grad[pair] = g
        small = np.abs(g) <= _GRAD_TOL
        moving = pair[~small]
        if moving.size < pair.size:
            at_bound = ((cp == geo.c_min) | (cp == geo.c_max)) & (np.abs(raw) > _GRAD_TOL)
            stopped = pair[small]
            reason[stopped] = np.where(at_bound[small], "bound", "gradient").tolist()
            phase[stopped] = _DONE

        # each searching descent moves to its first accepted rung, the trial
        # the one-rung-at-a-time search accepts; a rung whose clamped trial
        # is c is never accepted (its value is c's), only a trial on a bound
        # may equal the bar, and the rungs after the accepted one go unused
        bar = value[rung_owner] - _ARMIJO_DECREASE * np.abs(g_old) * np.abs(rung_c - c_old)
        on_bound = (rung_c == geo.c_min) | (rung_c == geo.c_max)
        accept = (rung_c != c_old) & ((v_rung < bar) | (on_bound & (v_rung == bar)))
        hit = np.minimum.reduceat(np.where(accept, np.arange(accept.size), accept.size), group)
        found = hit < accept.size
        rejected = tried[~found]
        take = hit[found]
        moved = rung_owner[take]
        c_moved, v_moved, hi_moved = rung_c[take], v_rung[take], rung[take] + 1
        c[moved], value[moved], hi[moved] = c_moved, v_moved, hi_moved
        iterations[moved] += 1

        # the loop test of the descent: a capped descent is done
        it_moved = iterations[moved]
        phase[moved] = np.where(it_moved < max_iterations, _GRADIENT, _DONE)

        # a running descent whose state another descent reached first
        # follows it
        for r, c_r, v_r, g_r, hi_r, it_r in zip(
                moved.tolist(), c_moved.tolist(), v_moved.tolist(),
                grad[moved].tolist(), hi_moved.tolist(), it_moved.tolist()):
            path[r].append((c_r, v_r, g_r, hi_r))
            if it_r >= max_iterations:
                continue
            # the leader is never r at an earlier move, nor a descent whose
            # chain of leaders leads back to r: either needs a cycle of
            # moves.  Values never rise along a descent and fall at every
            # interior move, so each move of a cycle would go from one bound
            # to the other, and init_step is too short for that
            leader, at = reached.setdefault((r // len(starts), c_r, hi_r), (r, it_r))
            if leader != r:
                lead[r], lead_at[r], phase[r] = leader, at, _FOLLOW

        # the next windows: rungs 0..p after a gradient pair, p the rung of
        # the descent's last move, and the next 2 rungs after a window with
        # no accepted rung; a descent past the last rung stops, its step
        # collapsed
        lo[moving] = 0
        lo[rejected], hi[rejected] = hi[rejected], hi[rejected] + 2
        idx = np.concatenate((moving, rejected))
        hi[idx] = np.minimum(hi[idx], steps.size)
        phase[idx] = _TRIAL
        collapsed = idx[lo[idx] >= steps.size]
        if collapsed.size:
            iterations[collapsed] += 1
            reason[collapsed] = "step"
            phase[collapsed] = _DONE

    labels = classify_minimizer(exp, c, scan_points).tolist()
    reports = [
        DescentReport(
            c0=trail[0][0], c_final=c_r, value_final=v_r, grad_final=abs(g_r),
            iterations=it_r, reason=why, label=label,
            history=[step[0] for step in trail],
        )
        for trail, c_r, v_r, g_r, it_r, why, label in zip(
            path, c.tolist(), value.tolist(), grad.tolist(), iterations.tolist(),
            reason.tolist(), labels)
    ]
    return [reports[j * len(starts):(j + 1) * len(starts)] for j in range(len(alphas))]
