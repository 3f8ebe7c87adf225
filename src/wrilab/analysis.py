"""The checks behind the two far-region argmin claims.

The far region is {c : |c - c_star| > L*lam} with L = 2 c_max^2 / offset; on
it the misfit sits on the plateau (1/2)(1/(4c^2) + 1/(4c_*^2)) and the penalty
objective is a linear fractional function of c^2 whose monotonicity direction
is the sign of beta = (z_max - z_min)/c_*^2 - 4 alpha^2.  far_region_verify
scans the region once: it evaluates the misfit there once and takes each
penalty objective as penalty_factor times that misfit, compares the argmin
locations against the predictions, and checks the monotonicity/flatness
structure directly.

The derivative blow-up diagnostic renders "the c-derivative is unbounded as
lam -> 0" as a measured log-log slope of max_c |dJ/dc| versus lam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acoustics import (
    Geometry, Wavelet, _in_far_region, _require_width, lambda_admissible_max,
    separation_scale,
)
from .objectives import Experiment, fwi_plateau, fwi_value, make_experiment, penalty_factor


@dataclass
class TheoremReport:
    """Outcome of one far-region argmin check."""

    theorem: int
    lam: float
    alpha: float | None
    big_l: float
    lam0: float
    beta: float | None
    applicable: bool
    predicted_c: float | None
    argmin_c: float | None
    passed: bool
    cell: float
    detail: dict


def beta_parameter(geo: Geometry, c_star: float, alpha: float) -> float:
    """Sign determinant of the far-region penalty landscape's monotonicity."""
    return geo.extent / c_star**2 - 4.0 * alpha * alpha


def far_region_verify(exp: Experiment, alphas,
                      scan_points: int = 2001) -> list[TheoremReport]:
    """Check the far-region argmins of the misfit and of the penalty objective.

    Returns the theorem-1 report, then one theorem-2 report per alpha, all
    from one scan: the misfit is evaluated once on the far region of a
    scan_points velocity grid, and each alpha's penalty values are that
    misfit times penalty_factor, the doubles wri_value returns.

    Theorem 1: the far plateau is strictly decreasing in c, so the misfit's
    far argmin is the region's largest velocity, c_max when the upper far
    segment is nonempty.  The plateau value is checked to 0.5% and its
    strict decrease on each segment as well.

    Theorem 2: beta > 0 predicts the smallest far velocity (c_min when the
    lower far segment is nonempty), beta < 0 the largest (c_max), and
    beta = 0 a flat far landscape (relative variation below 1e-9).  The
    monotonicity of each segment is checked against sign(beta) as well.

    A prediction must also lie within one grid cell of the argmin.  Every
    report is not applicable when lam reaches the admissible bound or the
    far region is empty.
    """
    geo = exp.geo
    cell = (geo.c_max - geo.c_min) / (scan_points - 1)
    heads = [(1, None, None)]
    heads += [(2, a, beta_parameter(geo, exp.c_star, a)) for a in alphas]

    def reports(outcomes):
        return [TheoremReport(
            theorem=theorem, lam=exp.lam, alpha=alpha, big_l=separation_scale(geo),
            lam0=lambda_admissible_max(geo), beta=beta, cell=cell, **outcome,
        ) for (theorem, alpha, beta), outcome in zip(heads, outcomes)]

    try:
        _require_width(geo, exp.lam)
    except ValueError:
        reason = "pulse width above admissible bound"
    else:
        cs = np.linspace(geo.c_min, geo.c_max, scan_points)
        far_idx = np.flatnonzero(_in_far_region(geo, cs, exp.c_star, exp.lam))
        reason = None if far_idx.size else "empty far region"
    if reason is not None:
        return reports([dict(applicable=False, predicted_c=None, argmin_c=None,
                             passed=False, detail={"reason": reason}) for _ in heads])

    far_cs = cs[far_idx]
    misfit = fwi_value(exp, far_cs).value
    on_segment = np.diff(far_idx) == 1  # neighbours on one contiguous segment

    def judged(values, predicted, passed, detail):
        argmin = float(far_cs[np.argmin(values)])
        if predicted is not None:
            passed = passed and abs(argmin - predicted) <= cell + 1e-12
        return dict(applicable=True, predicted_c=predicted, argmin_c=argmin,
                    passed=bool(passed), detail=detail)

    lower, upper = float(far_cs[0]), float(far_cs[-1])
    decreasing = bool(np.all(np.diff(misfit)[on_segment] < 0.0))
    plateau = fwi_plateau(exp, far_cs)
    plateau_dev = float(np.max(np.abs(misfit - plateau) / plateau))
    outcomes = [judged(misfit, upper, decreasing and plateau_dev <= 5e-3, {
        "monotone_decreasing": decreasing,
        "max_plateau_rel_dev": plateau_dev,
        "upper_segment_reaches_c_max": upper == geo.c_max,
    })]
    for _, alpha, beta in heads[1:]:
        values = penalty_factor(geo, far_cs, alpha) * misfit
        if beta == 0.0:
            variation = float((values.max() - values.min())
                              / max(values.mean(), np.finfo(float).tiny))
            outcomes.append(judged(values, None, variation <= 1e-9,
                                   {"flat_relative_variation": variation}))
            continue
        steps = np.diff(values)[on_segment]
        monotone = bool(np.all(steps > 0.0) if beta > 0.0 else np.all(steps < 0.0))
        predicted, bound = (lower, geo.c_min) if beta > 0.0 else (upper, geo.c_max)
        outcomes.append(judged(values, predicted, monotone, {
            "monotone_matches_beta_sign": monotone,
            "predicted_segment_reaches_bound": predicted == bound,
        }))
    return reports(outcomes)


def nonsmoothness_diagnostic(geo: Geometry, c_star: float, lams, objective) -> dict:
    """Measure how the largest |dJ/dc| grows as the bump pulse narrows.

    For each pulse width, scans objective(exp, cs) on a velocity grid with
    step at most lam/10, takes central-difference derivatives, and records
    the interior maximum M(lam).  Returns the log-log slope of M versus lam;
    a slope near -1 renders "the value changes by O(1) over an O(lam)-wide
    interval".
    """
    lams = list(lams)
    if len(lams) < 3:
        raise ValueError("need at least three pulse widths to fit a slope")
    for lam in lams:
        _require_width(geo, lam)
    max_grads = []
    for lam in lams:
        exp = make_experiment(geo, c_star, Wavelet("bump", lam))
        npts = int(np.ceil((geo.c_max - geo.c_min) / (lam / 10.0))) + 1
        cs = np.linspace(geo.c_min, geo.c_max, npts)
        dj = np.gradient(objective(exp, cs), cs)
        max_grads.append(float(np.max(np.abs(dj[1:-1]))))
    slope = float(np.polyfit(np.log(lams), np.log(max_grads), 1)[0])
    return {
        "lams": lams,
        "max_grads": max_grads,
        "slope": slope,
        "grad_ratio": float(max(max_grads) / min(max_grads)),
    }
