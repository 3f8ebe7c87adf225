"""Projected steepest descent on the scalar velocity and basin mapping.

The landscape theorems predict where local descent ends up: far starts ride
the plateau to a velocity bound, near starts fall into the O(lam)-wide well
around the target.  The descent is deliberately plain - steepest descent with
Armijo backtracking and clamping to [c_min, c_max].  Its labels reflect the
objective only while the rung-0 shift |tau'(c_star)| * init_step is short
against lam: resolved at 0.5 lam, not at 0.75 lam.  The default init_step,
(c_max - c_min)/100, is 0.19 lam on cfg0 at lam 0.04; at lam 0.01 it is
0.75 lam, and 100 of 202 bump_derivative labels move once it is resolved.

basin_map runs the descents of every start under every objective (the
misfit, or the penalty objective at a weight alpha) in lockstep, with their
state in numpy arrays: velocity, value, gradient, window of step halvings,
chain depth (below), iterations and phase (gradient pair, Armijo search,
waiting on a leader, done).  The start values come first, in one call.
Then each round gathers the velocities that all running descents need
next, of the misfit and the penalty objectives alike, and sends every row
to fwi_value in one call; the kernel samples them in blocks of its own.
A penalty descent's values are then multiplied by penalty_factor, which is
what wri_value computes.  The labels of the final velocities are computed
at the end, in one elementwise call.

Descents retrace each other: the starts are one initial step apart, so a
move often lands on a state another descent has reached.  The state after a
move is the objective and the velocity, and with the iteration cap it
fixes the rest of the descent: the one-at-a-time search starts every
Armijo search at rung 0, so the window (below) chooses which rungs a round
evaluates, never the moves.  basin_map records each state with the first
descent to reach it (its leader) and that descent's move count there.  A
descent whose move lands on a recorded state follows the leader: it sends
no rows until the leader is done, and then takes the leader's moves after
that state, as many as its own cap allows.  It ends where the leader
ended (value, gradient, stop reason and the iterations after the state) if
it takes them all, at max_iterations if its cap stops it sooner, and it
runs on from the leader's last state if the leader's cap stopped the
leader first.  A follower of a follower resolves in turn.  Followers are
resolved at the top of every round.  On cfg0, 167 of the 202 descents take
a leader's moves, and the start values and the rounds send 24,432
velocities where every descent on its own asks for 70,830.

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
one round.

A descent whose window is rung 0 alone sends a chain instead: up to depth
iterations at rung 0 ("links") in one round, each a trial and the gradient
pair at it.  Link j tries c_j = clamp(c_(j-1) - sign(g) * step0), g the
gradient the chain starts from, and the round makes the moves the
one-at-a-time descent makes: link j moves from link j - 1's state, and the
chain breaks at the first link whose trial is rejected (the search goes on
to rungs 1 and 2) or whose gradient turns its sign.  It also ends at a link
whose gradient stops the descent, at the cap, and at a move onto a
recorded state; the links after the end are dropped.  depth is 1 at first,
doubles after a chain that made all its links, up to _CHAIN_DEPTH, and is
1 again after a break.  A descent riding the plateau, where rung 0 nearly
always passes, so moves up to _CHAIN_DEPTH times per round instead of once
per two rounds: cfg0 makes 96 kernel calls, its start values and 95
rounds, on 24,432 velocities, where windows without chains make 218 (217
rounds) on 23,052 and one rung per round 572; the 1,380 more velocities
are links dropped after a chain's end.

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
- a link's trial is the one-at-a-time trial while the gradient keeps its
  sign: the walk is monotone, so clamping each partial sum clamps every
  step, and no link after a break is used;
- a follower's moves are the ones it would make itself, since the moves
  after a state depend on the state alone until the cap stops them.

fd_h must be short of c_min: every velocity a descent asks for, a
gradient pair's c - fd_h included, is then positive, and basin_map
refuses a longer fd_h before any kernel call.  A single descent is
basin_map on one start: basin_map(exp, [alpha], [c0])[0][0].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .acoustics import _check_steps
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

# the most rung-0 iterations a chain sends in one round (see basin_map)
_CHAIN_DEPTH = 8


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


def classify_minimizer(exp: Experiment, c):
    """Label final velocities: target well, a bound, or an interior point.

    target        arrival-time shift |tau(c) - tau(c_star)| <= lam/2, where
                  the pulse overlaps the data's
    lower_bound   c <= c_min + _STEP_TOL
    upper_bound   c >= c_max - _STEP_TOL
    interior_spurious   anything else

    The target zone is checked first.  A bound is resolved to the descent's
    own step: every Armijo rung is longer than _STEP_TOL and trials are
    clamped, so from there every trial toward the bound is the bound.
    Elementwise in c: a number gets a str, an array an array of str.
    """
    geo = exp.geo
    c = np.asarray(c, dtype=float)
    label = np.select(
        [np.abs(geo.transit_time(c) - geo.transit_time(exp.c_star)) <= 0.5 * exp.lam,
         c <= geo.c_min + _STEP_TOL, c >= geo.c_max - _STEP_TOL],
        ["target", "lower_bound", "upper_bound"], "interior_spurious")
    return str(label) if label.ndim == 0 else label


def _values(exp: Experiment, cs: np.ndarray, objective: np.ndarray, alphas) -> np.ndarray:
    """Objective values at velocities cs: the misfit of each row, from one
    fwi_value call, times penalty_factor on the rows whose objective has a
    weight."""
    values = fwi_value(exp, cs).value
    for j, alpha in enumerate(alphas):
        if alpha is not None:
            rows = objective == j
            values[rows] = penalty_factor(exp.geo, cs[rows], alpha) * values[rows]
    return values


def _armijo(geo, trial, c_from, v, value_from, g_from) -> np.ndarray:
    """Which trials pass the sufficient-decrease test: a trial value v
    passes below the bar, and at the bar only for a trial on c_min or c_max
    (a trial at c_from itself has the bar for its value, and never passes)."""
    bar = value_from - _ARMIJO_DECREASE * np.abs(g_from) * np.abs(trial - c_from)
    accept = v < bar
    ties = (v == bar).nonzero()[0]
    if ties.size:
        t = trial[ties]
        accept[ties] = (t != c_from[ties]) & ((t == geo.c_min) | (t == geo.c_max))
    return accept


def _stop_reasons(geo, c, raw) -> list:
    """Why descents at c whose projected gradient is small stop: "bound"
    where their raw gradient raw is not small (it points out of the
    interval at a bound), else "gradient"."""
    at_bound = ((c == geo.c_min) | (c == geo.c_max)) & (np.abs(raw) > _GRAD_TOL)
    return np.where(at_bound, "bound", "gradient").tolist()


def basin_map(
    exp: Experiment,
    alphas,
    starts,
    init_step: float | None = None,
    fd_h: float | None = None,
    max_iterations: int = 500,
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
    positive and finite, max_iterations a nonnegative int, init_step
    short of the interval (neither c_min + init_step nor c_max - init_step
    may reach the other bound) and fd_h below c_min, so that every gradient
    pair's c - fd_h is positive.

    The descents run in lockstep, a descent's Armijo search evaluates a
    window of step halvings per round, a descent moving by the first step
    sends a chain of such moves per round, and a descent that moves to a
    state another descent has reached takes that descent's moves from there
    on (see the module docstring); every report equals that of the descent
    run alone, one objective call at a time, bit for bit.
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
    step0, h = _check_steps(geo, init_step, fd_h)
    if not (isinstance(max_iterations, (int, np.integer)) and max_iterations >= 0):
        raise ValueError(f"max_iterations must be a nonnegative int; got {max_iterations!r}")

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
    value = _values(exp, c, np.arange(n) // len(starts), alphas)
    grad = np.zeros(n)
    # the window of rungs [lo, hi); a move sets hi past its rung, so a
    # gradient pair's window is 0..p, p the rung of the last move (0 before)
    lo = np.zeros(n, dtype=np.int64)
    hi = np.ones(n, dtype=np.int64)
    iterations = np.zeros(n, dtype=np.int64)
    phase = np.full(n, _GRADIENT if max_iterations else _DONE)
    reason = np.full(n, "max_iterations", dtype=object)
    # the links of a descent's next chain, short of its cap
    depth = np.ones(n, dtype=np.int64)
    # each descent's start and, after each move, its (c, value, gradient
    # the move used)
    path = [[(c0, None, None)] for c0 in c.tolist()]
    # the state (objective, c) after a move -> the descent that reached it
    # first and its move count there; a follower r waits on lead[r], which
    # reached r's state at move count lead_at[r]
    reached = {}
    lead = np.zeros(n, dtype=np.int64)
    lead_at = np.zeros(n, dtype=np.int64)

    # each round evaluates, in one block: the gradient pair c +- h of each
    # descent at _GRADIENT, the window of rungs of each descent at _TRIAL,
    # one row per rung, and the chain of each descent at _TRIAL whose window
    # is rung 0 alone, a trial and its gradient pair per link
    while True:
        # a follower whose leader is done takes the leader's path after the
        # shared state, as far as its own cap lets it; if the leader's cap
        # stopped the leader first, the follower runs on from there.  A
        # follower of a follower resolves in turn.
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
                    c[r], value[r], grad[r] = tail[-1]
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
        alone = hi[tried] == 1
        chain, tried = tried[alone], tried[~alone]
        if not (pair.size or tried.size or chain.size):
            break
        lo_tried = lo[tried]
        count = hi[tried] - lo_tried
        group = count.cumsum() - count  # the first row of each window
        rung_owner = tried.repeat(count)
        rung = np.arange(rung_owner.size) + (lo_tried - group).repeat(count)
        c_old, g_old = c[rung_owner], grad[rung_owner]
        rung_c = np.minimum(np.maximum(c_old - np.sign(g_old) * steps[rung], geo.c_min),
                            geo.c_max)
        link_c, link_owner = np.empty(0), chain
        if chain.size:
            # a chain's links are its next iterations at rung 0, as many as
            # depth and its cap allow; the trial of each link steps on from
            # the one before the way the chain's gradient points.  Clamping
            # each partial sum of the walk clamps every step: the walk is
            # monotone.
            room = max_iterations - iterations[chain]
            links = np.minimum(depth[chain], room)
            head = links.cumsum() - links  # the first link of each chain
            walk = np.empty((chain.size, _CHAIN_DEPTH + 1))
            walk[:, 0] = c[chain]
            walk[:, 1:] = (np.sign(grad[chain]) * step0)[:, None]
            walk = np.minimum(np.maximum(np.subtract.accumulate(walk, axis=1), geo.c_min),
                              geo.c_max)
            sent = np.arange(_CHAIN_DEPTH) < links[:, None]
            link_c, link_from = walk[:, 1:][sent], walk[:, :-1][sent]
            link_owner = chain.repeat(links)

        # a gradient pair at each descent at _GRADIENT and at each link
        cp = np.concatenate((c[pair], link_c))
        owner = np.concatenate((pair, link_owner))
        cs = np.concatenate((cp + h, cp - h, rung_c, link_c))
        objective = np.concatenate((owner, owner, rung_owner, link_owner)) // len(starts)
        values = _values(exp, cs, objective, alphas)
        raw = (values[:cp.size] - values[cp.size:2 * cp.size]) / (2.0 * h)
        g_all = np.where(((cp <= geo.c_min) & (raw > 0.0))
                         | ((cp >= geo.c_max) & (raw < 0.0)), 0.0, raw)
        small_all = np.abs(g_all) <= _GRAD_TOL
        v_rung = values[2 * cp.size:2 * cp.size + rung_c.size]

        grad[pair], small = g_all[:pair.size], small_all[:pair.size]
        moving = pair[~small]
        if moving.size < pair.size:
            stopped = pair[small]
            reason[stopped] = _stop_reasons(geo, cp[:pair.size][small], raw[:pair.size][small])
            phase[stopped] = _DONE

        # each searching descent moves to its first accepted rung, the trial
        # the one-rung-at-a-time search accepts; the rungs after it go unused
        accept = _armijo(geo, rung_c, c_old, v_rung, value[rung_owner], g_old)
        hit = np.minimum.reduceat(np.where(accept, np.arange(accept.size), accept.size), group)
        found = hit < accept.size
        rejected = tried[~found]
        take = hit[found]
        moved = rung_owner[take]
        c_moved, v_moved = rung_c[take], v_rung[take]
        c[moved], value[moved], hi[moved] = c_moved, v_moved, rung[take] + 1
        iterations[moved] += 1
        # the loop test of the descent: a capped descent is done
        it_moved = iterations[moved]
        phase[moved] = np.where(it_moved < max_iterations, _GRADIENT, _DONE)
        # each move: (descent, c, value, gradient the move used, move count)
        moves = zip(moved.tolist(), c_moved.tolist(), v_moved.tolist(), grad[moved].tolist(),
                    it_moved.tolist())

        if chain.size:
            # each chain makes the moves the one-at-a-time descent makes:
            # link j moves from link j - 1's state.  A chain breaks at its
            # first link whose trial is rejected (the search goes on to
            # rungs 1 and 2) or whose gradient stops the descent or turns;
            # it ends there or at its last link, and the links after the
            # end go unused
            v_link = values[2 * cp.size + rung_c.size:]
            g_link, small_link = g_all[pair.size:], small_all[pair.size:]
            value_from, g_from = np.empty_like(v_link), np.empty_like(g_link)
            value_from[1:], g_from[1:] = v_link[:-1], g_link[:-1]
            value_from[head], g_from[head] = value[chain], grad[chain]
            passed = _armijo(geo, link_c, link_from, v_link, value_from, g_from)
            broken = ~passed | small_link | (np.sign(g_link) != np.sign(g_from))
            ends = broken.copy()
            ends[head + links - 1] = True
            row = np.arange(link_c.size)
            last = np.minimum.reduceat(np.where(ends, row, row.size), head)
            took = passed[last]
            went = (row < (last + took).repeat(links)).nonzero()[0]
            it_link = (iterations[chain] + 1 - head).repeat(links)[went] + went
            moves = itertools.chain(moves, zip(
                link_owner[went].tolist(), link_c[went].tolist(), v_link[went].tolist(),
                g_from[went].tolist(), it_link.tolist()))
            made = last - head + took
            iterations[chain] += made
            # a descent takes the state of its last move, with the gradient
            # there, or with the one the move used where its cap stopped it
            capped = took & (made == room)
            stepped = made > 0
            mover, end = chain[stepped], (last + took - 1)[stepped]
            c[mover], value[mover] = link_c[end], v_link[end]
            grad[mover] = np.where(capped[stepped], g_from[end], g_link[end])
            phase[chain[capped]] = _DONE
            halted = took & ~capped & small_link[last]
            if halted.any():
                rows = last[halted]
                reason[chain[halted]] = _stop_reasons(geo, link_c[rows], raw[pair.size + rows])
                phase[chain[halted]] = _DONE
            # a chain that made all its links runs a longer one next
            depth[chain] = np.where(broken[last], 1, np.minimum(2 * depth[chain], _CHAIN_DEPTH))
            rejected = np.concatenate((rejected, chain[~took]))

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

        # each move extends the descent's path; a running descent whose
        # state another descent reached first follows it from there, at the
        # move count of that move, whatever its chain did after it (its
        # velocity, value and gradient are set when it resolves)
        cut = -1
        for r, c_r, v_r, g_r, it_r in moves:
            if r == cut:
                continue
            path[r].append((c_r, v_r, g_r))
            if it_r >= max_iterations:
                continue
            # the leader is never r at an earlier move, nor a descent whose
            # chain of leaders leads back to r: either needs a cycle of
            # moves.  Values never rise along a descent and fall at every
            # interior move, so each move of a cycle would go from one bound
            # to the other, and init_step is too short for that
            leader, at = reached.setdefault((r // len(starts), c_r), (r, it_r))
            if leader != r:
                iterations[r], reason[r], phase[r] = it_r, "max_iterations", _FOLLOW
                lead[r], lead_at[r] = leader, at
                cut = r

    labels = classify_minimizer(exp, c).tolist()
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
