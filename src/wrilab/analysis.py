"""Landscape scans and the checks behind the two far-region argmin claims.

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
from .objectives import Experiment, fwi_plateau, make_experiment, make_objective


@dataclass(frozen=True)
class SupportReport:
    """Pulse-support disjointness, exact and by the far-region bound."""

    disjoint: bool
    far_condition: bool

    def __bool__(self) -> bool:
        return self.disjoint


def supports_disjoint(geo: Geometry, c: float, c_star: float, lam: float) -> SupportReport:
    """True iff the arrival intervals [tau, tau + lam] do not overlap.

    Also evaluates the sufficient condition |c - c_star| > L*lam, which
    implies disjointness but not conversely.
    """
    _require_width(geo, lam)
    gap = abs(geo.transit_time(c) - geo.transit_time(c_star))
    return SupportReport(
        disjoint=gap > lam,
        far_condition=bool(_in_far_region(geo, c, c_star, lam)),
    )


@dataclass
class ScanResult:
    """Objective values over a velocity grid."""

    c_values: np.ndarray
    values: dict
    meta: dict


def scan_landscape(exp: Experiment, objectives, c_values, jobs: int = 1) -> ScanResult:
    """Evaluate named objectives over a velocity grid.

    objectives is a sequence of (name, callable) pairs; each callable takes
    the whole grid as a 1-D array, as the make_objective functions do, so
    every column is one batched call.  jobs is accepted for compatibility and
    ignored: the scan runs in one thread.
    """
    cs = np.asarray(c_values, dtype=float)
    if cs.ndim != 1 or cs.size == 0:
        raise ValueError("scan grid must be a nonempty 1d array")
    if cs.size > 1 and not np.all(np.diff(cs) > 0.0):
        raise ValueError("scan grid must be strictly increasing")
    if cs[0] < exp.geo.c_min - 1e-12 or cs[-1] > exp.geo.c_max + 1e-12:
        raise ValueError("scan grid must stay within [c_min, c_max]")
    values = {name: np.asarray(f(cs), dtype=float) for name, f in objectives}
    return ScanResult(cs, values, {"lam": exp.lam, "n_points": int(cs.size)})


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


def _far_scan(exp: Experiment, func, scan_points: int):
    geo = exp.geo
    cs = np.linspace(geo.c_min, geo.c_max, scan_points)
    mask = _in_far_region(geo, cs, exp.c_star, exp.lam)
    vals = np.full(cs.shape, np.nan)
    vals[mask] = func(cs[mask])
    return cs, mask, vals


def _far_argmin(exp: Experiment, func, scan_points: int):
    """_far_scan plus the far indices and the far argmin (None if the region is empty)."""
    cs, mask, vals = _far_scan(exp, func, scan_points)
    far_idx = np.flatnonzero(mask)
    argmin_c = float(cs[far_idx[np.argmin(vals[far_idx])]]) if far_idx.size else None
    return cs, mask, vals, far_idx, argmin_c


def _far_verify(exp: Experiment, scan_points: int, judge, theorem: int,
                alpha: float | None = None, beta: float | None = None) -> TheoremReport:
    """The steps the two far-region verifiers share.

    Not applicable when lam reaches the admissible bound or the far region is
    empty.  Otherwise scans the misfit (theorem 1) or the penalty objective
    (theorem 2) there; judge(cs, far_idx, vals, segments) returns the
    predicted argmin (or None), the theorem's own pass condition and the
    detail dict, and a prediction must also lie within one cell of the argmin.
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
    func = make_objective(exp, "fwi" if theorem == 1 else "wri", alpha=alpha)
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

    return _far_verify(exp, scan_points, judge, theorem=1)


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

    return _far_verify(exp, scan_points, judge, theorem=2, alpha=alpha, beta=beta)


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
        func = make_objective(exp, "wri", alpha=alpha)
        cs, mask, _, far_idx, argmin_c = _far_argmin(exp, func, scan_points)
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


def nonsmoothness_diagnostic(
    geo: Geometry, c_star: float, lams, kind: str,
    alpha: float | None = None, variant: str = "normalized",
    wavelet_kind: str = "bump",
) -> dict:
    """Measure how the largest |dJ/dc| grows as the pulse narrows.

    For each pulse width, scans the objective on a velocity grid with step at
    most lam/10, takes central-difference derivatives, and records the
    interior maximum M(lam).  Returns the log-log slope of M versus lam; a
    slope near -1 renders "the value changes by O(1) over an O(lam)-wide
    interval".
    """
    lams = list(lams)
    if len(lams) < 3:
        raise ValueError("need at least three pulse widths to fit a slope")
    for lam in lams:
        _require_width(geo, lam)
    max_grads = []
    for lam in lams:
        exp = make_experiment(geo, c_star, Wavelet(wavelet_kind, lam))
        func = make_objective(exp, kind, alpha=alpha, variant=variant)
        npts = int(np.ceil((geo.c_max - geo.c_min) / (lam / 10.0))) + 1
        cs = np.linspace(geo.c_min, geo.c_max, npts)
        vals = func(cs)
        dj = np.gradient(vals, cs)
        max_grads.append(float(np.max(np.abs(dj[1:-1]))))
    slope = float(np.polyfit(np.log(lams), np.log(max_grads), 1)[0])
    return {
        "kind": kind,
        "lams": lams,
        "max_grads": max_grads,
        "slope": slope,
        "grad_ratio": float(max(max_grads) / min(max_grads)),
    }
