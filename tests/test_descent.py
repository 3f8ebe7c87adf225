"""Projected descent, basin labeling, and the lockstep basin map."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wrilab.acoustics import Wavelet
from wrilab.descent import DescentReport, basin_map, classify_minimizer
from wrilab.objectives import make_experiment, make_objective


# -- labeling -----------------------------------------------------------------

def test_classify_minimizer_labels(exp02, exp04):
    assert classify_minimizer(exp02, 1.0) == "target"
    assert classify_minimizer(exp02, 1.2) == "target"
    assert classify_minimizer(exp02, 1.5) == "interior_spurious"
    assert classify_minimizer(exp02, 2.0) == "upper_bound"
    assert classify_minimizer(exp02, 0.5005) == "lower_bound"
    # wide pulse: the target radius covers c_min, but a clamped point is a
    # bound outcome, not a target one
    assert classify_minimizer(exp04, 0.5) == "lower_bound"
    assert classify_minimizer(exp04, 1.0) == "target"


# -- descent outcomes ---------------------------------------------------------

def test_descend_stationary_at_target(exp02):
    # the FD gradient at the exact minimum is ~1e-7, so descent may take one
    # micro-step before the line search collapses; it must not leave the well
    rep = basin_map(exp02, [("fwi", None)], [1.0])[0][0]
    assert rep.iterations <= 5
    assert rep.label == "target"
    assert rep.reason in ("gradient", "step")
    assert rep.c_final == pytest.approx(1.0, abs=1e-6)


def test_descend_far_start_rides_plateau_to_upper_bound(exp02):
    rep = basin_map(exp02, [("fwi", None)], [1.8])[0][0]
    assert rep.c_final == 2.0
    assert rep.label == "upper_bound"
    assert rep.reason == "bound"


def test_descend_low_start_walks_into_the_well(exp02):
    # the misfit plateau decreases toward larger c, so a low start moves right
    # and falls into the target well on the way
    rep = basin_map(exp02, [("fwi", None)], [0.6])[0][0]
    assert rep.label == "target"
    assert abs(rep.c_final - 1.0) <= 0.32


def test_descend_penalty_directions_flip(exp02):
    # small alpha: the far penalty landscape increases with c
    low, high = basin_map(exp02, [("wri", 0.25)], [0.6, 1.8])[0]
    assert low.c_final == 0.5
    assert low.label == "lower_bound"
    assert high.label == "target"


def test_descend_validates_start_and_tracks_history(exp02):
    with pytest.raises(ValueError, match="outside"):
        basin_map(exp02, [("fwi", None)], [0.4])
    rep = basin_map(exp02, [("fwi", None)], [1.8])[0][0]
    func = make_objective(exp02, "fwi")
    vals = [func(c) for c in rep.history]
    assert all(v1 >= v2 for v1, v2 in zip(vals, vals[1:]))
    assert rep.history[0] == 1.8
    assert rep.history[-1] == rep.c_final


def test_descend_labels_invariant_under_halved_step(exp02):
    starts = np.linspace(0.5, 2.0, 21)
    objectives = [("fwi", None), ("wri", 0.25)]
    default = [[r.label for r in reps] for reps in basin_map(exp02, objectives, starts)]
    halved = [[r.label for r in reps]
              for reps in basin_map(exp02, objectives, starts, init_step=0.0075)]
    assert default == halved


def test_basin_map_preserves_start_order(exp02):
    starts = [1.8, 0.6, 1.0]
    reports, = basin_map(exp02, [("fwi", None)], starts)
    assert [r.c0 for r in reports] == starts


def test_fwi_upper_basin_boundary_within_excluded_band(exp02):
    # bisect the boundary between target-well capture and plateau escape
    def is_target(c0):
        return basin_map(exp02, [("fwi", None)], [c0])[0][0].label == "target"

    lo, hi = 1.0, 1.8
    assert is_target(lo) and not is_target(hi)
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if is_target(mid):
            lo = mid
        else:
            hi = mid
    assert 1.0 < hi <= 1.0 + 0.32


# -- lockstep basin map against the single-start loop -------------------------

def scalar_descend_oracle(exp, kind, c0, alpha=None, fd_h=None, max_iterations=500):
    """The one-start descent loop, one objective call at a time, as it was
    written before basin_map ran its starts in lockstep."""
    geo = exp.geo
    span = geo.c_max - geo.c_min
    h = 1e-6 * span if fd_h is None else fd_h
    step0 = span / 100.0
    tol_grad, tol_step, backtrack, sufficient = 1e-8, 1e-12, 0.5, 1e-4
    func = make_objective(exp, kind, alpha=alpha)

    def projected_grad(c, g):
        if c <= geo.c_min and g > 0.0:
            return 0.0
        if c >= geo.c_max and g < 0.0:
            return 0.0
        return g

    c = float(c0)
    history = [c]
    iterations = 0
    reason = "max_iterations"
    grad = 0.0
    try:
        value = func(c)
        while iterations < max_iterations:
            raw = (func(c + h) - func(c - h)) / (2.0 * h)
            grad = projected_grad(c, raw)
            if abs(grad) <= tol_grad:
                at_bound = c in (geo.c_min, geo.c_max) and abs(raw) > tol_grad
                reason = "bound" if at_bound else "gradient"
                break
            direction = -np.sign(grad)
            step = step0
            moved = False
            while step > tol_step:
                c_new = min(max(c + direction * step, geo.c_min), geo.c_max)
                if c_new != c:
                    v_new = func(c_new)
                    if v_new <= value - sufficient * abs(grad) * abs(c_new - c):
                        c, value = c_new, v_new
                        moved = True
                        break
                step *= backtrack
            iterations += 1
            if not moved:
                reason = "step"
                break
            history.append(c)
    except (ValueError, FloatingPointError) as err:
        return DescentReport(
            c0=float(c0), c_final=c, value_final=float("nan"),
            grad_final=float("nan"), iterations=iterations,
            reason=f"aborted: {err}", label=classify_minimizer(exp, c),
            history=history,
        )
    return DescentReport(
        c0=float(c0), c_final=c, value_final=value, grad_final=abs(grad),
        iterations=iterations, reason=reason,
        label=classify_minimizer(exp, c), history=history,
    )


def assert_same_reports(reports, oracles):
    assert len(reports) == len(oracles)
    for rep, ref in zip(reports, oracles):
        for f in dataclasses.fields(DescentReport):
            a, b = getattr(rep, f.name), getattr(ref, f.name)
            both_nan = isinstance(a, float) and math.isnan(a) and math.isnan(b)
            assert a == b or both_nan, (ref.c0, f.name, a, b)


@pytest.mark.parametrize("max_iterations", [500, 5])
@pytest.mark.parametrize("kind,alpha", [("fwi", None), ("wri", 0.25)])
def test_lockstep_basin_map_equals_scalar_descents(exp02, kind, alpha, max_iterations):
    # alone and in a joint call with the other objective, every descent
    # equals its one-call-at-a-time oracle
    starts = np.linspace(0.5, 2.0, 31)
    oracles = [scalar_descend_oracle(exp02, kind, c0, alpha=alpha,
                                     max_iterations=max_iterations)
               for c0 in starts]
    alone, = basin_map(exp02, [(kind, alpha)], starts, max_iterations=max_iterations)
    assert_same_reports(alone, oracles)
    objectives = [("fwi", None), ("wri", 0.25)]
    joint = basin_map(exp02, objectives, starts, max_iterations=max_iterations)
    assert_same_reports(joint[objectives.index((kind, alpha))], oracles)


@settings(max_examples=2, deadline=None, database=None)
@given(c_star=st.floats(0.9, 1.1))
def test_lockstep_equals_scalar_descents_at_drawn_target(geo, c_star):
    exp = make_experiment(geo, c_star, Wavelet("bump", 0.02))
    starts = np.linspace(0.5, 2.0, 21)
    objectives = [("fwi", None), ("wri", 0.25)]
    joint = basin_map(exp, objectives, starts)
    for (kind, alpha), reports in zip(objectives, joint):
        oracles = [scalar_descend_oracle(exp, kind, c0, alpha=alpha) for c0 in starts]
        assert_same_reports(basin_map(exp, [(kind, alpha)], starts)[0], oracles)
        assert_same_reports(reports, oracles)


def test_lockstep_abort_stays_with_its_start(exp02):
    # h above c_min: only the lowest start's c - h is not a positive velocity
    starts = [0.5, 1.0, 1.8]
    reports, = basin_map(exp02, [("fwi", None)], starts, fd_h=0.55, max_iterations=5)
    assert reports[0].reason == "aborted: velocity must be positive"
    assert reports[0].history == [0.5] and reports[0].iterations == 0
    assert not any(rep.reason.startswith("aborted") for rep in reports[1:])
    assert_same_reports(reports, [
        scalar_descend_oracle(exp02, "fwi", c0, fd_h=0.55, max_iterations=5)
        for c0 in starts
    ])
    assert_same_reports(basin_map(exp02, [("fwi", None)], [0.5], fd_h=0.55)[0],
                        reports[:1])
    # in a joint call the misfit reports are the same, and each penalty
    # descent equals its oracle: the lowest start aborts under both
    # objectives, and no other descent does
    fwi, wri = basin_map(exp02, [("fwi", None), ("wri", 0.25)], starts, fd_h=0.55,
                         max_iterations=5)
    assert_same_reports(fwi, reports)
    assert_same_reports(wri, [
        scalar_descend_oracle(exp02, "wri", c0, alpha=0.25, fd_h=0.55, max_iterations=5)
        for c0 in starts
    ])
    assert [rep.reason.startswith("aborted") for rep in fwi + wri] == [
        True, False, False, True, False, False]


@pytest.mark.parametrize("objectives,message", [
    ([("annihilator", None)], "unknown descent objective kind 'annihilator'"),
    ([("fwi", None), ("wri", None)], "needs a positive penalty weight"),
    ([("wri", 0.0)], "needs a positive penalty weight"),
    ([("wri", -0.25)], "needs a positive penalty weight"),
    ([("wri", float("nan"))], "needs a positive penalty weight"),
])
def test_basin_map_rejects_bad_objectives_before_evaluating(geo, kernel_calls,
                                                            objectives, message):
    exp = make_experiment(geo, 1.0, Wavelet("bump", 0.02))
    with pytest.raises(ValueError, match=message):
        basin_map(exp, objectives, [1.0])
    assert kernel_calls == [] and exp._last_misfit is None
