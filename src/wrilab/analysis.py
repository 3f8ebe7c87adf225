"""The checks behind the two far-region argmin claims.

The far region is {c : |c - c_star| > L*lam} with L = 2 c_max^2 / offset; on
it the misfit sits on the plateau (1/2)(1/(4c^2) + 1/(4c_*^2)) and the penalty
objective is a linear fractional function of c^2 whose monotonicity direction
is the sign of beta = (z_max - z_min)/c_*^2 - 4 alpha^2.  The verifiers below
scan those regions, compare argmin locations against the predictions, and
check the monotonicity/flatness structure directly.

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
from .objectives import Experiment, fwi_plateau, fwi_value, make_experiment, wri_value


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


def _far_segments(mask: np.ndarray) -> list:
    """Index slices of the contiguous runs of a boolean mask."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [idx.size - 1]))
    return [slice(idx[a], idx[b] + 1) for a, b in zip(starts, ends)]


def _far_argmin(exp: Experiment, func, scan_points: int):
    """Scan func over the far region of a scan_points velocity grid.

    Returns the grid cs, the far mask, the values (NaN off the far region),
    the far indices and the far argmin (None if the region is empty).
    """
    geo = exp.geo
    cs = np.linspace(geo.c_min, geo.c_max, scan_points)
    mask = _in_far_region(geo, cs, exp.c_star, exp.lam)
    vals = np.full(cs.shape, np.nan)
    vals[mask] = func(cs[mask])
    far_idx = np.flatnonzero(mask)
    argmin_c = float(cs[far_idx[np.argmin(vals[far_idx])]]) if far_idx.size else None
    return cs, mask, vals, far_idx, argmin_c


def _far_verify(exp: Experiment, scan_points: int, func, judge, theorem: int,
                alpha: float | None = None, beta: float | None = None) -> TheoremReport:
    """The steps the two far-region verifiers share.

    Not applicable when lam reaches the admissible bound or the far region is
    empty.  Otherwise scans func, the objective as a function of a velocity
    array, there; judge(cs, far_idx, vals, segments) returns the predicted
    argmin (or None), the theorem's own pass condition and the detail dict,
    and a prediction must also lie within one cell of the argmin.
    """
    geo = exp.geo
    cell = (geo.c_max - geo.c_min) / (scan_points - 1)
    base = dict(
        theorem=theorem, lam=exp.lam, alpha=alpha, big_l=separation_scale(geo),
        lam0=lambda_admissible_max(geo), beta=beta, cell=cell,
    )

    def not_applicable(reason: str) -> TheoremReport:
        return TheoremReport(
            **base, applicable=False, predicted_c=None, argmin_c=None,
            passed=False, detail={"reason": reason},
        )

    try:
        _require_width(geo, exp.lam)
    except ValueError:
        return not_applicable("pulse width above admissible bound")
    cs, mask, vals, far_idx, argmin_c = _far_argmin(exp, func, scan_points)
    if argmin_c is None:
        return not_applicable("empty far region")
    predicted, passed, detail = judge(cs, far_idx, vals, _far_segments(mask))
    if predicted is not None:
        passed = passed and abs(argmin_c - predicted) <= cell + 1e-12
    return TheoremReport(
        **base, applicable=True, predicted_c=predicted, argmin_c=argmin_c,
        passed=bool(passed), detail=detail,
    )


def theorem1_verify(exp: Experiment, scan_points: int = 2001) -> TheoremReport:
    """Check that the far-region misfit minimizer sits at the upper bound.

    The far plateau is strictly decreasing in c, so the argmin over the far
    region is its largest velocity: c_max when the upper far segment is
    nonempty, and otherwise the region's right endpoint.  Also verifies the
    plateau value itself to 0.5% and its strict monotone decrease.
    """

    def judge(cs, far_idx, vals, segments):
        predicted = float(cs[far_idx[-1]])
        monotone = all(np.all(np.diff(vals[seg]) < 0.0) for seg in segments)
        plateau = fwi_plateau(exp, cs[far_idx])
        plateau_dev = float(np.max(np.abs(vals[far_idx] - plateau) / plateau))
        return predicted, monotone and plateau_dev <= 5e-3, {
            "monotone_decreasing": bool(monotone),
            "max_plateau_rel_dev": plateau_dev,
            "upper_segment_reaches_c_max": bool(predicted == exp.geo.c_max),
        }

    return _far_verify(exp, scan_points, lambda c: fwi_value(exp, c).value,
                       judge, theorem=1)


def beta_parameter(geo: Geometry, c_star: float, alpha: float) -> float:
    """Sign determinant of the far-region penalty landscape's monotonicity."""
    return geo.extent / c_star**2 - 4.0 * alpha * alpha


def theorem2_verify(
    exp: Experiment, alpha: float, scan_points: int = 2001
) -> TheoremReport:
    """Check the far-region argmin of the penalty objective against beta.

    beta > 0 predicts the smallest far velocity (c_min when the lower far
    segment is nonempty), beta < 0 the largest (c_max), and beta = 0 a flat
    far landscape (relative variation below 1e-9).  Monotonicity of the far
    values in c^2 is checked against sign(beta) as well.
    """
    geo = exp.geo
    beta = beta_parameter(geo, exp.c_star, alpha)

    def judge(cs, far_idx, vals, segments):
        far_vals = vals[far_idx]
        if beta == 0.0:
            variation = float(
                (far_vals.max() - far_vals.min()) / max(far_vals.mean(), np.finfo(float).tiny)
            )
            return None, variation <= 1e-9, {"flat_relative_variation": variation}
        if beta > 0.0:
            predicted = float(cs[far_idx[0]])
            monotone = all(np.all(np.diff(vals[seg]) > 0.0) for seg in segments)
            reaches_bound = predicted == geo.c_min
        else:
            predicted = float(cs[far_idx[-1]])
            monotone = all(np.all(np.diff(vals[seg]) < 0.0) for seg in segments)
            reaches_bound = predicted == geo.c_max
        return predicted, monotone, {
            "monotone_matches_beta_sign": bool(monotone),
            "predicted_segment_reaches_bound": bool(reaches_bound),
        }

    return _far_verify(exp, scan_points, lambda c: wri_value(exp, c, alpha),
                       judge, theorem=2, alpha=alpha, beta=beta)


def alpha_sweep_argmin(exp: Experiment, alphas, scan_points: int = 2001) -> dict:
    """Far-region argmin of the penalty objective across a small-alpha sweep.

    Requires beta > 0 for every alpha; reports the per-alpha argmin, whether
    the far region (the mask each alpha's scan used) is the same for every
    alpha, and whether every argmin sits at the far region's smallest velocity.
    """
    geo = exp.geo
    betas = [beta_parameter(geo, exp.c_star, a) for a in alphas]
    if any(b <= 0.0 for b in betas):
        raise ValueError("alpha sweep requires beta > 0 for every alpha")
    argmins = []
    masks = []
    lower_extreme = None
    for alpha in alphas:
        cs, mask, _, far_idx, argmin_c = _far_argmin(
            exp, lambda c: wri_value(exp, c, alpha), scan_points)
        if argmin_c is None:
            raise ValueError("empty far region in alpha sweep")
        argmins.append(argmin_c)
        masks.append(mask)
        lower_extreme = float(cs[far_idx[0]])
    return {
        "alphas": list(alphas),
        "betas": betas,
        "argmins": argmins,
        "far_region_lower_extreme": lower_extreme,
        "far_region_alpha_independent": all(
            np.array_equal(mask, masks[0]) for mask in masks),
        "all_at_lower_extreme": all(a == lower_extreme for a in argmins),
    }


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
