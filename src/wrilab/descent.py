"""Projected steepest descent on the scalar velocity and basin mapping.

The landscape theorems predict where local descent ends up: far starts ride
the plateau to a velocity bound, near starts fall into the O(lam)-wide well
around the target.  The descent is deliberately plain - steepest descent with
Armijo backtracking and clamping to [c_min, c_max] - so the basin structure
reflects the objective, not optimizer heuristics.

basin_map runs the descents from all starts in lockstep.  Each start is a
generator (_descent) that keeps its own state - gradient or Armijo phase,
step, direction, iterations, stop reason and history - and yields the
velocities whose values it needs next; every round evaluates the velocities
of all running starts in one batched objective call.  The batched objective
equals the unbatched one bit for bit, so each start follows exactly the path
it would follow alone.  An evaluation that raises aborts its own start only.
descend is basin_map on a single start.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .acoustics import separation_scale
from .objectives import Experiment, make_objective


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


def _descent(
    exp: Experiment, c0: float, h: float, step0: float, grad_tol: float,
    step_tol: float, max_iterations: int, armijo_factor: float,
    armijo_decrease: float, scan_points: int,
):
    """One projected descent from c0, driven by basin_map.

    Yields a tuple of velocities and receives their objective values in that
    order; an exception thrown in at a yield aborts the run.  Returns the
    DescentReport.
    """
    geo = exp.geo

    def projected_grad(c: float, g: float) -> float:
        if c <= geo.c_min and g > 0.0:
            return 0.0
        if c >= geo.c_max and g < 0.0:
            return 0.0
        return g

    c = c0
    history = [c]
    iterations = 0
    reason = "max_iterations"
    grad = 0.0
    try:
        value, = yield (c,)
        while iterations < max_iterations:
            f_plus, f_minus = yield (c + h, c - h)
            raw = (f_plus - f_minus) / (2.0 * h)
            grad = projected_grad(c, raw)
            if abs(grad) <= grad_tol:
                at_bound = c in (geo.c_min, geo.c_max) and abs(raw) > grad_tol
                reason = "bound" if at_bound else "gradient"
                break
            direction = -np.sign(grad)
            step = step0
            moved = False
            while step > step_tol:
                c_new = min(max(c + direction * step, geo.c_min), geo.c_max)
                if c_new != c:
                    v_new, = yield (c_new,)
                    if v_new <= value - armijo_decrease * abs(grad) * abs(c_new - c):
                        c, value = c_new, v_new
                        moved = True
                        break
                step *= armijo_factor
            iterations += 1
            if not moved:
                reason = "step"
                break
            history.append(c)
    except (ValueError, FloatingPointError) as err:
        return DescentReport(
            c0=c0, c_final=c, value_final=float("nan"),
            grad_final=float("nan"), iterations=iterations,
            reason=f"aborted: {err}", label=classify_minimizer(exp, c, scan_points),
            history=history,
        )
    return DescentReport(
        c0=c0, c_final=c, value_final=value, grad_final=abs(grad),
        iterations=iterations, reason=reason,
        label=classify_minimizer(exp, c, scan_points), history=history,
    )


def basin_map(
    exp: Experiment,
    kind: str,
    starts,
    alpha: float | None = None,
    variant: str = "normalized",
    init_step: float | None = None,
    fd_h: float | None = None,
    grad_tol: float = 1e-8,
    step_tol: float = 1e-12,
    max_iterations: int = 500,
    armijo_factor: float = 0.5,
    armijo_decrease: float = 1e-4,
    scan_points: int = 2001,
) -> list:
    """Projected steepest descent from every start, run in lockstep.

    Gradients are central finite differences with h = 1e-6 * (c_max - c_min)
    by default; the gradient is projected to zero when it points out of the
    feasible interval at a bound.  Each iteration backtracks the step length
    by armijo_factor until the sufficient-decrease condition holds.  A start
    stops on a small projected gradient, a fully collapsed step, or the
    iteration cap.  Reports come in start order.
    """
    geo = exp.geo
    starts = [float(c0) for c0 in starts]
    for c0 in starts:
        if not (geo.c_min <= c0 <= geo.c_max):
            raise ValueError(f"start velocity {c0} outside [{geo.c_min}, {geo.c_max}]")
    span = geo.c_max - geo.c_min
    h = 1e-6 * span if fd_h is None else fd_h
    step0 = span / 100.0 if init_step is None else init_step
    func = make_objective(exp, kind, alpha=alpha, variant=variant)
    runs = [
        _descent(exp, c0, h, step0, grad_tol, step_tol, max_iterations,
                 armijo_factor, armijo_decrease, scan_points)
        for c0 in starts
    ]
    reports = [None] * len(runs)
    needs = {i: next(run) for i, run in enumerate(runs)}
    while needs:
        try:
            values = iter(func(np.array([c for cs in needs.values() for c in cs])).tolist())
        except (ValueError, FloatingPointError):
            values = None  # some start asked for a bad velocity: evaluate apart
        for i, cs in list(needs.items()):
            try:
                try:
                    got = ([next(values) for _ in cs] if values is not None
                           else [func(c) for c in cs])
                except (ValueError, FloatingPointError) as err:
                    needs[i] = runs[i].throw(err)
                else:
                    needs[i] = runs[i].send(got)
            except StopIteration as stop:
                reports[i] = stop.value
                del needs[i]
    return reports


def descend(
    exp: Experiment,
    kind: str,
    c0: float,
    alpha: float | None = None,
    variant: str = "normalized",
    init_step: float | None = None,
    fd_h: float | None = None,
    grad_tol: float = 1e-8,
    step_tol: float = 1e-12,
    max_iterations: int = 500,
    armijo_factor: float = 0.5,
    armijo_decrease: float = 1e-4,
    scan_points: int = 2001,
) -> DescentReport:
    """Projected steepest descent from c0, clamped to [c_min, c_max].

    basin_map on the single start c0; see there for the method.
    """
    return basin_map(
        exp, kind, [c0], alpha=alpha, variant=variant, init_step=init_step,
        fd_h=fd_h, grad_tol=grad_tol, step_tol=step_tol,
        max_iterations=max_iterations, armijo_factor=armijo_factor,
        armijo_decrease=armijo_decrease, scan_points=scan_points,
    )[0]


def golden_section_min(
    exp: Experiment,
    kind: str,
    bracket: tuple,
    alpha: float | None = None,
    variant: str = "normalized",
    tol: float = 1e-10,
) -> float:
    """Derivative-free minimization inside a bracket, to width tol.

    Returns the midpoint of the final bracket; used as a cross-check on
    descend endpoints.
    """
    a, b = float(bracket[0]), float(bracket[1])
    geo = exp.geo
    if not (geo.c_min <= a < b <= geo.c_max):
        raise ValueError("bracket must satisfy c_min <= a < b <= c_max")
    func = make_objective(exp, kind, alpha=alpha, variant=variant)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = func(x1), func(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = func(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = func(x2)
    return 0.5 * (a + b)
