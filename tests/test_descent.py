"""Projected descent, basin labeling, and the lockstep basin map."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import wrilab.descent
import wrilab.objectives
from wrilab.acoustics import Geometry, Wavelet
from wrilab.descent import DescentReport, basin_map, classify_minimizer
from wrilab.objectives import fwi_value, make_experiment, wri_value


# -- labeling -----------------------------------------------------------------

def test_classify_minimizer_labels(exp02, exp04):
    # target means an arrival-time shift of at most lam/2: c in
    # [0.5/0.51, 0.5/0.49] for lam = 0.02
    assert classify_minimizer(exp02, 1.0) == "target"
    assert classify_minimizer(exp02, 0.99) == "target"
    assert classify_minimizer(exp02, 1.2) == "interior_spurious"
    assert classify_minimizer(exp02, 1.5) == "interior_spurious"
    assert classify_minimizer(exp02, 2.0) == "upper_bound"
    assert classify_minimizer(exp04, 0.5) == "lower_bound"
    assert classify_minimizer(exp04, 1.0) == "target"
    # a bound is resolved to the descent's step tolerance, not to a grid
    tol = wrilab.descent._STEP_TOL
    assert classify_minimizer(exp02, 0.5005) == "interior_spurious"
    assert classify_minimizer(exp02, 2.0 - 2.0 * tol) == "interior_spurious"
    assert classify_minimizer(exp02, 2.0 - tol) == "upper_bound"


def _shift(exp, c):
    """Arrival-time shift of velocity c from the target's."""
    return abs(exp.geo.transit_time(c) - exp.geo.transit_time(exp.c_star))


def _scalar_label(exp, c):
    """classify_minimizer's rules on one Python float, one test at a time."""
    geo = exp.geo
    if abs(geo.offset / c - geo.offset / exp.c_star) <= 0.5 * exp.lam:
        return "target"
    if c <= geo.c_min + wrilab.descent._STEP_TOL:
        return "lower_bound"
    if c >= geo.c_max - wrilab.descent._STEP_TOL:
        return "upper_bound"
    return "interior_spurious"


def _doubles_around(x, k):
    """The 2k + 1 consecutive doubles centred on the positive double x."""
    return (np.float64(x).view(np.int64) + np.arange(-k, k + 1)).view(np.float64)


@pytest.mark.parametrize("grid_points", [2001, 7, 5, 3])
def test_array_labels_equal_scalar_labels_at_every_boundary(geo, grid_points):
    # lam = 2^-6 makes lam/2 a shift the arrival times reach exactly, and
    # the 81 doubles around each edge, lam/2 on either side of the target
    # and _STEP_TOL inside each bound, cross it; a scan grid of grid_points
    # follows them, and one cell inside a bound is no longer a bound
    exp = make_experiment(geo, 1.0, Wavelet("bump", 2.0**-6))
    tau_star = geo.offset / exp.c_star
    tol = wrilab.descent._STEP_TOL
    edges = [geo.offset / (tau_star + 0.5 * exp.lam), geo.offset / (tau_star - 0.5 * exp.lam),
             geo.c_min + tol, geo.c_max - tol]
    grid = np.linspace(geo.c_min, geo.c_max, grid_points)
    grid_labels = classify_minimizer(exp, grid)
    assert grid_labels.tolist() == [_scalar_label(exp, c) for c in grid.tolist()]
    assert (grid_labels[0], grid_labels[-1]) == ("lower_bound", "upper_bound")
    assert {grid_labels[1], grid_labels[-2]} == {"interior_spurious"}
    cs = np.concatenate([_doubles_around(x, 40) for x in edges])
    labels = classify_minimizer(exp, cs)
    assert labels.shape == cs.shape
    assert labels.tolist() == [classify_minimizer(exp, c) for c in cs.tolist()]
    assert labels.tolist() == [_scalar_label(exp, c) for c in cs.tolist()]
    shift = np.abs(geo.offset / cs - tau_star)
    for block in np.split(shift, 4)[:2]:
        assert {-1, 0, 1} == set(np.sign(block - 0.5 * exp.lam).tolist())
    assert np.array_equal(labels == "target", shift <= 0.5 * exp.lam)
    assert np.split(labels, 4)[2].tolist() == [
        "lower_bound"] * 41 + ["interior_spurious"] * 40
    assert np.split(labels, 4)[3].tolist() == [
        "interior_spurious"] * 40 + ["upper_bound"] * 41


def test_basin_map_without_descents_evaluates_nothing(exp02, kernel_calls):
    assert basin_map(exp02, [None, 0.25], []) == [[], []]
    assert basin_map(exp02, [], [1.0]) == []
    assert kernel_calls == []


def _cfg0_descents(geo, wavelet, alphas):
    """An experiment on cfg0's geometry, dt and first width 0.04, and its
    descents from cfg0's 101 starts."""
    exp = make_experiment(geo, 1.0, Wavelet(wavelet, 0.04), dt=0.00025)
    return exp, basin_map(exp, alphas, np.linspace(0.5, 2.0, 101))


def test_target_label_excludes_interior_minima(geo):
    # bump_derivative's objectives have interior minima beyond lam/2, where
    # 32 misfit and 65 penalty descents stop
    exp, (fwi, wri) = _cfg0_descents(geo, "bump_derivative", [None, 0.25])
    for reports, n in ((fwi, 32), (wri, 65)):
        beyond = [r for r in reports if _shift(exp, r.c_final) > 0.5 * exp.lam
                  and r.label not in ("lower_bound", "upper_bound")]
        assert len(beyond) == n
        assert all(r.label == "interior_spurious" for r in beyond)


def test_cfg0_bump_derivative_descents_all_stop_before_their_cap(geo):
    # the misfit and penalty objectives of bump_derivative have interior
    # minima, where a descent that took equal values would hop between two
    # velocities until its cap of 500 iterations
    exp, joint = _cfg0_descents(geo, "bump_derivative", [None, 0.25])
    counts = [{"target": 4, "interior_spurious": 32, "upper_bound": 65},
              {"target": 4, "interior_spurious": 65, "lower_bound": 32}]
    for alpha, reports, count in zip([None, 0.25], joint, counts):
        assert not [r for r in reports if r.reason == "max_iterations"]
        assert Counter(r.label for r in reports) == count
        assert_same_reports(reports[::4], [scalar_descend_oracle(exp, alpha, r.c0)
                                           for r in reports[::4]])


def test_cfg0_far_misfit_descents_end_exactly_on_the_upper_bound(geo):
    # on the far plateau the misfit at c_max rounds equal to its
    # neighbour's, so the last move of the five moving descents, onto the
    # bound, is a move to an equal value; the Armijo test takes it on a
    # bound, and they stop at c_max itself, where the gradient projects to 0
    exp, (fwi,) = _cfg0_descents(geo, "bump", [None])
    far = [r for r in fwi if r.c0 >= 1.925]
    assert [r.iterations for r in far] == [6, 5, 4, 3, 2, 0]
    assert all((r.c_final, r.reason, r.grad_final) == (geo.c_max, "bound", 0.0)
               for r in far)


def test_penalty_descent_just_short_of_the_upper_bound_reads_upper_bound(geo):
    # at alpha 0.5 this config's penalty value at c_max rounds 1 ulp above
    # its neighbour's, so the descent escaping to c_max stops on "step"
    # 5e-15 short of it; every rung is longer than _STEP_TOL, so from there
    # every trial toward c_max is c_max, and the label is the bound's
    exp = make_experiment(geo, 1.0688843703050097, Wavelet("bump", 0.04), dt=0.00025)
    rep = basin_map(exp, [0.5], [1.205])[0][0]
    assert (rep.c_final, rep.reason, rep.label) == (1.999999999999995, "step", "upper_bound")
    assert wri_value(exp, geo.c_max, 0.5) > rep.value_final


def test_target_label_excludes_descents_that_never_move(geo):
    # alpha = 0.5 makes beta = 0 on cfg0: the far penalty plateau is flat,
    # and 90 penalty descents away from the well and both bounds stop where
    # they start
    exp, (_, wri) = _cfg0_descents(geo, "bump", [None, 0.5])
    still = [r for r in wri if r.c_final == r.c0 and _shift(exp, r.c0) > 0.5 * exp.lam
             and r.label not in ("lower_bound", "upper_bound")]
    assert len(still) == 90
    assert all(r.label == "interior_spurious" for r in still)


# -- descent outcomes ---------------------------------------------------------

def test_descend_stationary_at_target(exp02):
    # the FD gradient at the exact minimum is ~1e-7, so descent may take one
    # micro-step before the line search collapses; it must not leave the well
    rep = basin_map(exp02, [None], [1.0])[0][0]
    assert rep.iterations <= 5
    assert rep.label == "target"
    assert rep.reason in ("gradient", "step")
    assert rep.c_final == pytest.approx(1.0, abs=1e-6)


def test_descend_far_start_rides_plateau_to_upper_bound(exp02):
    rep = basin_map(exp02, [None], [1.8])[0][0]
    assert rep.c_final == 2.0
    assert rep.label == "upper_bound"
    assert rep.reason == "bound"


def test_descend_low_start_walks_into_the_well(exp02):
    # the misfit plateau decreases toward larger c, so a low start moves right
    # and falls into the target well on the way
    rep = basin_map(exp02, [None], [0.6])[0][0]
    assert rep.label == "target"
    assert abs(rep.c_final - 1.0) <= 0.32


def test_descend_penalty_directions_flip(exp02):
    # small alpha: the far penalty landscape increases with c
    low, high = basin_map(exp02, [0.25], [0.6, 1.8])[0]
    assert low.c_final == 0.5
    assert low.label == "lower_bound"
    assert high.label == "target"


def test_descend_validates_start_and_tracks_history(exp02):
    with pytest.raises(ValueError, match="outside"):
        basin_map(exp02, [None], [0.4])
    rep = basin_map(exp02, [None], [1.8])[0][0]
    vals = [fwi_value(exp02, c).value for c in rep.history]
    assert all(v1 >= v2 for v1, v2 in zip(vals, vals[1:]))
    assert rep.history[0] == 1.8
    assert rep.history[-1] == rep.c_final


def test_descend_labels_invariant_under_halved_step(exp02):
    starts = np.linspace(0.5, 2.0, 21)
    default = [[r.label for r in reps] for reps in basin_map(exp02, [None, 0.25], starts)]
    halved = [[r.label for r in reps]
              for reps in basin_map(exp02, [None, 0.25], starts, init_step=0.0075)]
    assert default == halved


def test_basin_map_preserves_start_order(exp02):
    starts = [1.8, 0.6, 1.0]
    reports, = basin_map(exp02, [None], starts)
    assert [r.c0 for r in reports] == starts


def test_fwi_upper_basin_boundary_within_excluded_band(exp02):
    # bisect the boundary between target-well capture and plateau escape
    def is_target(c0):
        return basin_map(exp02, [None], [c0])[0][0].label == "target"

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

def scalar_descend_oracle(exp, alpha, c0, init_step=None, fd_h=None,
                          max_iterations=500, misfit=None):
    """The one-start descent loop, one objective call at a time, as it was
    written before basin_map ran its starts in lockstep; alpha None is the
    misfit, which misfit(c) replaces if given.  The Armijo test is strict
    but for a trial on a bound, which may equal the bar: on the far plateau
    the value at a bound rounds equal to its neighbour's."""
    geo = exp.geo
    span = geo.c_max - geo.c_min
    h = 1e-6 * span if fd_h is None else fd_h
    step0 = span / 100.0 if init_step is None else init_step
    tol_grad, tol_step, backtrack, sufficient = 1e-8, 1e-12, 0.5, 1e-4

    def func(c):
        if misfit is not None:
            return misfit(c)
        return fwi_value(exp, c).value if alpha is None else wri_value(exp, c, alpha)

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
                    bar = value - sufficient * abs(grad) * abs(c_new - c)
                    if v_new < bar or (v_new == bar and c_new in (geo.c_min, geo.c_max)):
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
@pytest.mark.parametrize("alpha", [None, 0.25], ids=["fwi-None", "wri-0.25"])
def test_lockstep_basin_map_equals_scalar_descents(exp02, alpha, max_iterations):
    # alone and in a joint call with the other objective, every descent
    # equals its one-call-at-a-time oracle
    starts = np.linspace(0.5, 2.0, 31)
    oracles = [scalar_descend_oracle(exp02, alpha, c0, max_iterations=max_iterations)
               for c0 in starts]
    alone, = basin_map(exp02, [alpha], starts, max_iterations=max_iterations)
    assert_same_reports(alone, oracles)
    alphas = [None, 0.25]
    joint = basin_map(exp02, alphas, starts, max_iterations=max_iterations)
    assert_same_reports(joint[alphas.index(alpha)], oracles)


@settings(max_examples=2, deadline=None, database=None)
@given(c_star=st.floats(0.9, 1.1))
def test_lockstep_equals_scalar_descents_at_drawn_target(geo, c_star):
    exp = make_experiment(geo, c_star, Wavelet("bump", 0.02))
    starts = np.linspace(0.5, 2.0, 21)
    alphas = [None, 0.25]
    joint = basin_map(exp, alphas, starts)
    for alpha, reports in zip(alphas, joint):
        oracles = [scalar_descend_oracle(exp, alpha, c0) for c0 in starts]
        assert_same_reports(basin_map(exp, [alpha], starts)[0], oracles)
        assert_same_reports(reports, oracles)


def test_basin_map_lets_a_kernel_fault_propagate(exp02, monkeypatch):
    # every velocity basin_map asks for is positive, so a kernel that raises
    # is a fault, not a descent outcome
    def raising(exp, c):
        raise ValueError("injected fault")

    monkeypatch.setattr(wrilab.objectives, "_pulse_terms", raising)
    with pytest.raises(ValueError, match="injected fault"):
        basin_map(exp02, [None, 0.25], [0.6, 1.0, 1.8])


@pytest.fixture()
def rounds(monkeypatch):
    """Copies of the velocities basin_map asks for, one array per call of
    _values: the start values, then one per round."""
    asked = []
    values = wrilab.descent._values

    def recording(exp, cs, *args):
        asked.append(cs.copy())
        return values(exp, cs, *args)

    monkeypatch.setattr(wrilab.descent, "_values", recording)
    return asked


@pytest.mark.parametrize("alpha,c0", [(None, 0.8), (0.25, 1.25), (None, 1.5)],
                         ids=["fwi-None-0.8", "wri-0.25-1.25", "fwi-None-1.5"])
def test_lockstep_sends_one_kernel_call_per_round(exp02, kernel_calls, rounds, alpha, c0):
    # a window can ask for dozens of rungs at once, and a chain on the
    # plateau (from 1.5) for 24 velocities; the start value and each round
    # go to the kernel in one call, whatever their size
    reports, = basin_map(exp02, [alpha], [c0])
    assert max(cs.size for cs in rounds) > 2
    assert kernel_calls == [cs.size for cs in rounds]
    assert_same_reports(reports, [scalar_descend_oracle(exp02, alpha, c0)])


@settings(max_examples=3, deadline=None, database=None)
@given(c_star=st.floats(0.9, 1.1),
       wavelet=st.sampled_from(["bump", "bump_derivative"]),
       init_step=st.one_of(st.sampled_from([1e-12, 7e-13, 1.5e-12, 3e-12]),
                           st.floats(1e-4, 0.05)),
       fd_h=st.floats(1e-8, 1e-3),
       max_iterations=st.one_of(st.integers(0, 6), st.just(500)))
@example(c_star=1.0, wavelet="bump", init_step=1e-12, fd_h=1.5e-6, max_iterations=500)
@example(c_star=0.97, wavelet="bump", init_step=3e-12, fd_h=1.5e-6, max_iterations=500)
@example(c_star=1.03, wavelet="bump", init_step=0.015, fd_h=1.5e-6, max_iterations=4)
@example(c_star=1.0, wavelet="bump_derivative", init_step=0.015, fd_h=1.5e-6,
         max_iterations=500)
def test_lockstep_windows_equal_scalar_descents(geo, c_star, wavelet, init_step, fd_h,
                                                max_iterations):
    # the window edges: no rung (init_step at most the step tolerance), one
    # or two rungs, and iteration caps that stop descents mid-search; both
    # pulses, since bump_derivative's objectives have interior minima
    exp = make_experiment(geo, c_star, Wavelet(wavelet, 0.02))
    starts = np.linspace(0.5, 2.0, 5)
    alphas = [None, 0.25]
    joint = basin_map(exp, alphas, starts, init_step=init_step, fd_h=fd_h,
                      max_iterations=max_iterations)
    for alpha, reports in zip(alphas, joint):
        assert_same_reports(reports, [
            scalar_descend_oracle(exp, alpha, c0, init_step=init_step, fd_h=fd_h,
                                  max_iterations=max_iterations)
            for c0 in starts
        ])


@pytest.mark.parametrize("alphas", [[None, 0.0], [0.0], [-0.25], [float("nan")],
                                    [float("inf")], [1e200]])
def test_basin_map_rejects_bad_objectives_before_evaluating(geo, kernel_calls, alphas):
    exp = make_experiment(geo, 1.0, Wavelet("bump", 0.02))
    with pytest.raises(ValueError, match="needs a positive weight"):
        basin_map(exp, alphas, [1.0])
    assert kernel_calls == []


@pytest.mark.parametrize("kwargs,message", [
    ({"init_step": float("nan")}, "init_step must be positive and finite"),
    ({"init_step": 0.0}, "init_step must be positive and finite"),
    ({"init_step": -0.015}, "init_step must be positive and finite"),
    ({"init_step": float("inf")}, "init_step must be positive and finite"),
    ({"fd_h": float("nan")}, "fd_h must be positive and finite"),
    ({"fd_h": 0.0}, "fd_h must be positive and finite"),
    ({"fd_h": -1.5e-6}, "fd_h must be positive and finite"),
    ({"fd_h": float("inf")}, "fd_h must be positive and finite"),
    ({"max_iterations": -1}, "max_iterations must be a nonnegative int"),
    ({"max_iterations": 2.5}, "max_iterations must be a nonnegative int"),
    ({"max_iterations": float("nan")}, "max_iterations must be a nonnegative int"),
    ({"max_iterations": None}, "max_iterations must be a nonnegative int"),
    ({"init_step": 1.5}, "init_step must not reach from one velocity bound to the other"),
    ({"init_step": 2.0}, "init_step must not reach from one velocity bound to the other"),
])
def test_basin_map_rejects_bad_step_parameters_before_evaluating(geo, kernel_calls,
                                                                 kwargs, message):
    exp = make_experiment(geo, 1.0, Wavelet("bump", 0.02))
    with pytest.raises(ValueError, match=message):
        basin_map(exp, [None, 0.25], [0.6, 1.0, 1.8], **kwargs)
    assert kernel_calls == []


def test_basin_map_misfit_values_live_for_one_call(exp02, kernel_velocities):
    # a second identical call on the same experiment evaluates exactly what
    # the first did: nothing carries over between calls
    starts = np.linspace(0.5, 2.0, 11)
    first = basin_map(exp02, [None, 0.25], starts)
    n = len(kernel_velocities)
    second = basin_map(exp02, [None, 0.25], starts)
    assert n > 0 and len(kernel_velocities) == 2 * n
    for a, b in zip(kernel_velocities[:n], kernel_velocities[n:]):
        assert np.array_equal(a, b)
    for reports, again in zip(first, second):
        assert_same_reports(again, reports)


# -- descents that reach each other's states -----------------------------------

# starts one exact step apart: a rung-0 move lands on another start's
# velocity, so descents keep landing on states other descents reached
STEP = 2.0**-6


def _assert_oracles(exp, alphas, starts, joint, **kwargs):
    for alpha, reports in zip(alphas, joint):
        assert_same_reports(reports, [scalar_descend_oracle(exp, alpha, c0, **kwargs)
                                      for c0 in starts])


def _patch_misfit(monkeypatch, misfit):
    """Make misfit(cs) basin_map's misfit; returns its scalar form for the
    oracle, evaluated on a numpy double as basin_map's batches are."""
    monkeypatch.setattr(wrilab.descent, "fwi_value",
                        lambda exp, cs: wrilab.objectives.ObjectiveValue(misfit(cs)))
    return lambda c: float(misfit(np.float64(c)))


@pytest.mark.parametrize("max_iterations", [3, 5, 17, 500])
def test_followers_equal_scalar_descents(exp02, max_iterations):
    # at caps 3, 5 and 17 most followers' caps stop them within their
    # leader's moves; at 500 every follower takes its leader's end
    starts = 0.5 + STEP * np.arange(97)
    alphas = [None, 0.25]
    joint = basin_map(exp02, alphas, starts, init_step=STEP, max_iterations=max_iterations)
    _assert_oracles(exp02, alphas, starts, joint, init_step=STEP,
                    max_iterations=max_iterations)


@pytest.mark.parametrize("max_iterations", [2, 3, 29, 30, 31, 32, 500])
def test_a_follower_of_a_follower_equals_scalar_descents(exp02, max_iterations):
    # three misfit starts on the plateau above the well step toward c_max
    # together: at the second move the middle one lands where the top one
    # was after its first and follows it, and the lowest follows the middle
    # one.  The top one stops at the bound after 30 moves; each cap from 29
    # to 32 stops a different set of them on the way.
    starts = 1.5 + STEP * np.arange(3)
    reports, = basin_map(exp02, [None], starts, init_step=STEP,
                         max_iterations=max_iterations)
    _assert_oracles(exp02, [None], starts, [reports], init_step=STEP,
                    max_iterations=max_iterations)
    if max_iterations == 500:
        assert [(r.reason, r.iterations) for r in reports] == [
            ("bound", 32), ("bound", 31), ("bound", 30)]


@pytest.mark.parametrize("max_iterations", [0, 1, 3, 500])
def test_duplicated_starts_equal_scalar_descents(exp02, kernel_calls, max_iterations):
    starts = [1.3, 1.3, 0.6, 1.3]
    alphas = [None, 0.25]
    joint = basin_map(exp02, alphas, starts, max_iterations=max_iterations)
    sent = sum(kernel_calls)
    _assert_oracles(exp02, alphas, starts, joint, max_iterations=max_iterations)
    if max_iterations == 500:
        # after their first move the copies of 1.3 send no rows
        kernel_calls.clear()
        basin_map(exp02, alphas, [1.3, 0.6])
        assert sent < 1.2 * sum(kernel_calls)


def test_a_follower_runs_on_past_its_capped_leader(exp02, monkeypatch, rounds):
    # on a misfit -c with a spike of 10 on (1.5 + 2e-6, 1.75 - 2e-6), the
    # start 0.5 steps by 0.25 to 2.0 in 6 moves and 4 rounds: its gradient
    # pair, then chains of 1, 2 and 3 moves.  The start 1.5 - 2**-16 tries
    # rungs 0..13 into the spike over 7 rounds and moves to 1.5 by rung 14
    # in round 9, long after the first start reached 1.5 at its fourth move
    # by rung 0: the state is the velocity, whatever window found it, so it
    # follows from there.  With a cap of 6 the first start stops at 2.0 on
    # its cap; the follower, at 3 of its 6 moves, runs on from there and
    # stops at the bound.  It sends no row after round 9 but that gradient
    # pair at 2.0.
    scalar = _patch_misfit(
        monkeypatch, lambda c: np.where((c > 1.5 + 2e-6) & (c < 1.75 - 2e-6), 10.0, -c))
    starts = [0.5, 1.5 - 2.0**-16]
    calls = []
    for max_iterations in (6, 7, 500):
        rounds.clear()
        reports, = basin_map(exp02, [None], starts, init_step=0.25, fd_h=1e-6,
                             max_iterations=max_iterations)
        _assert_oracles(exp02, [None], starts, [reports], init_step=0.25, fd_h=1e-6,
                        max_iterations=max_iterations, misfit=scalar)
        assert reports[1].history == [starts[1], 1.5, 1.75, 2.0]
        assert (reports[1].reason, reports[1].iterations) == ("bound", 3)
        calls.append(len(rounds))
    assert (reports[0].reason, reports[0].iterations) == ("bound", 6)
    # the start values and 9 rounds, and the gradient pair where the cap of
    # 6 stopped the leader
    assert calls == [11, 10, 10]


def test_descents_into_an_interior_minimum_stop_on_a_collapsed_step(geo):
    # bump_derivative's misfit has an interior minimum near c = 0.9705 on
    # this geometry.  Once the sufficient decrease rounds away there, a
    # trial of equal value is no move, so the descents stop on a collapsed
    # step, at one velocity, before even the lowest cap
    exp = make_experiment(geo, 1.0, Wavelet("bump_derivative", 0.02))
    starts = [0.82, 0.84, 0.86, 0.88, 0.9]
    runs = []
    for max_iterations in (25, 60, 500):
        reports, = basin_map(exp, [None], starts, init_step=0.02,
                             max_iterations=max_iterations)
        _assert_oracles(exp, [None], starts, [reports], init_step=0.02,
                        max_iterations=max_iterations)
        assert all(r.reason == "step" and r.iterations < 25
                   and len(set(r.history)) == len(r.history) for r in reports)
        ends = {r.c_final for r in reports}
        assert len(ends) == 1 and abs(ends.pop() - 0.9705) < 1e-4
        runs.append(reports)
    assert_same_reports(runs[1], runs[0])
    assert_same_reports(runs[2], runs[0])


@pytest.mark.parametrize("max_iterations", [1, 2, 3, 4, 7, 50])
def test_descents_whose_trials_only_equal_their_value_stop_after_one_iteration(
        exp02, monkeypatch, max_iterations):
    # a misfit of 1e6 but 2 ulps lower at 1 + h and 1.25 - h: each of 1 and
    # 1.25 sees a descent direction toward the other, whose value equals its
    # own.  The Armijo test takes no equal value in the interior, so
    # neither descent moves, and both stop on a collapsed step.
    h = 1e-3
    low = 1e6 - 2.0**-32

    scalar = _patch_misfit(
        monkeypatch, lambda c: np.where((c == 1.0 + h) | (c == 1.25 - h), low, 1e6))
    starts = [1.0, 1.25]
    reports, = basin_map(exp02, [None], starts, init_step=0.25, fd_h=h,
                         max_iterations=max_iterations)
    _assert_oracles(exp02, [None], starts, [reports], init_step=0.25, fd_h=h,
                    max_iterations=max_iterations, misfit=scalar)
    assert [(r.reason, r.iterations, r.history) for r in reports] == [
        ("step", 1, [1.0]), ("step", 1, [1.25])]


def test_a_trial_that_rounds_to_a_bound_start_is_no_move(monkeypatch):
    # at c_min = 2**14 a double is 2**-38 apart from the next, so the last
    # rung, 2**-39, rounds back to c_min: that trial's value equals the bar
    # and lies on a bound, yet it is no move.  The gradient points up from
    # c_min and every other trial is rejected, so the descent stops on a
    # collapsed step where it started
    geo = Geometry(z_min=0.0, z_max=1.0, z_s=0.3, z_r=0.8, T=1.5, rho=1.0,
                   c_min=2.0**14, c_max=2.0**15)
    exp = make_experiment(geo, 2.0**14 + 2.0**13, Wavelet("bump", 0.02))
    scalar = _patch_misfit(monkeypatch, lambda c: np.where(
        c == 2.0**14 + 0.75, -1.0, np.where(c > 2.0**14, 10.0, 0.0)))
    reports, = basin_map(exp, [None], [2.0**14], init_step=1.0, fd_h=0.75)
    _assert_oracles(exp, [None], [2.0**14], [reports], init_step=1.0, fd_h=0.75,
                    misfit=scalar)
    assert (reports[0].reason, reports[0].iterations, reports[0].history) == (
        "step", 1, [2.0**14])


# -- chains of rung-0 iterations -------------------------------------------------

def _chain_links(max_iterations):
    """The links of each chain a descent that always moves by rung 0 sends:
    1, 2, 4, then _CHAIN_DEPTH per chain, the last one cut by the cap."""
    links, depth, left = [], 1, max_iterations
    while left:
        links.append(min(depth, left))
        left -= links[-1]
        depth = min(2 * depth, wrilab.descent._CHAIN_DEPTH)
    return links


@pytest.mark.parametrize("max_iterations", range(1, 13))
def test_a_plateau_chain_stops_at_the_cap(exp02, rounds, max_iterations):
    # the start 1.5 rides the far misfit plateau toward c_max by rung 0
    # alone for 34 moves: after its gradient pair it sends chains of 1, 2,
    # 4 and 8 links, a trial and a gradient pair each, and every cap from 1
    # to 12 falls inside one of them
    reports, = basin_map(exp02, [None], [1.5], max_iterations=max_iterations)
    assert_same_reports(reports, [scalar_descend_oracle(exp02, None, 1.5,
                                                        max_iterations=max_iterations)])
    assert reports[0].reason == "max_iterations"
    assert [cs.size for cs in rounds[2:]] == [3 * k for k in _chain_links(max_iterations)]


def test_a_chain_moves_onto_a_finished_descents_state(exp02, monkeypatch, rounds):
    # on a misfit -c with steps of 0.25, the start 1.25 moves to 1.5 in
    # round 2 and to 1.75 and 2.0, where it stops on the bound, in round 3.
    # The start 0.5 reaches 1.25 in round 3, and the first link of its
    # 4-link chain in round 4 lands on 1.5: it follows the finished
    # descent, its other 3 links unused, and takes its last 2 moves
    scalar = _patch_misfit(monkeypatch, lambda c: -c)
    starts = [1.25, 0.5]
    reports, = basin_map(exp02, [None], starts, init_step=0.25, fd_h=1e-6)
    _assert_oracles(exp02, [None], starts, [reports], init_step=0.25, fd_h=1e-6,
                    misfit=scalar)
    assert reports[1].history == [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    assert (reports[1].reason, reports[1].iterations) == ("bound", 6)
    assert [cs.size for cs in rounds] == [2, 4, 6, 12, 12]


def test_a_follower_of_a_long_finished_descent_resolves(exp02, monkeypatch, rounds):
    # on a misfit -c with a spike of 10 on (1.25 + 2e-6, 1.5 - 2e-6), the
    # start 1.25 steps by 0.25 to 2.0 and stops on the bound in round 3.
    # The start 1.25 - 2**-16 tries rungs 0..13 into the spike, moves to
    # 1.25 by rung 14 in round 9, and lands on 1.5 in round 11,
    # where no descent stops: it must still look up its leader, which is
    # done, and take its moves
    scalar = _patch_misfit(
        monkeypatch, lambda c: np.where((c > 1.25 + 2e-6) & (c < 1.5 - 2e-6), 10.0, -c))
    starts = [1.25, 1.25 - 2.0**-16]
    reports, = basin_map(exp02, [None], starts, init_step=0.25, fd_h=1e-6)
    _assert_oracles(exp02, [None], starts, [reports], init_step=0.25, fd_h=1e-6,
                    misfit=scalar)
    assert reports[1].history == [starts[1], 1.25, 1.5, 1.75, 2.0]
    assert (reports[1].reason, reports[1].iterations) == ("bound", 4)
    assert len(rounds) == 12


def test_a_chain_over_the_well_turns_with_the_gradient(exp02, monkeypatch, rounds):
    # on a misfit (c - 1.65)^2 with steps of 0.25, the start 0.5 sends a
    # 4-link chain from 1.25 in round 4: its second link, 1.75, is past the
    # minimum, and the gradient there turns, so links 3 and 4 go unused and
    # the next chain heads back
    scalar = _patch_misfit(monkeypatch, lambda c: (c - 1.65) ** 2)
    reports, = basin_map(exp02, [None], [0.5], init_step=0.25, fd_h=1e-6)
    _assert_oracles(exp02, [None], [0.5], [reports], init_step=0.25, fd_h=1e-6,
                    misfit=scalar)
    assert reports[0].history[:7] == [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 1.625]
    assert rounds[4].size == 12 and rounds[5].size == 3


def test_a_chain_whose_trial_is_rejected_searches_on(exp02, monkeypatch, rounds):
    # on a misfit -c with a spike of 10 on (1.7, 1.8), the start 0.5 sends a
    # 4-link chain from 1.25 in round 4: its second trial, 1.75, is in the
    # spike, so the descent stays at 1.5 and tries rungs 1 and 2 next
    scalar = _patch_misfit(monkeypatch, lambda c: np.where((c > 1.7) & (c < 1.8), 10.0, -c))
    reports, = basin_map(exp02, [None], [0.5], init_step=0.25, fd_h=1e-6)
    _assert_oracles(exp02, [None], [0.5], [reports], init_step=0.25, fd_h=1e-6,
                    misfit=scalar)
    assert reports[0].history == [0.5, 0.75, 1.0, 1.25, 1.5, 1.625, 1.875, 2.0]
    assert (reports[0].reason, reports[0].iterations) == ("bound", 7)
    assert rounds[4].size == 12
    assert np.array_equal(rounds[5], [1.625, 1.5625])


def test_chains_stop_on_both_bounds(exp02, monkeypatch, rounds):
    # on a misfit -(c - 1.3)^2 with steps of 0.25, the start 1.25 reaches
    # c_min at the last link of its second chain, and the start 1.5 reaches
    # c_max at the first; both stop there on the projected gradient
    scalar = _patch_misfit(monkeypatch, lambda c: -(c - 1.3) ** 2)
    starts = [1.25, 1.5]
    reports, = basin_map(exp02, [None], starts, init_step=0.25, fd_h=1e-6)
    _assert_oracles(exp02, [None], starts, [reports], init_step=0.25, fd_h=1e-6,
                    misfit=scalar)
    assert [(r.c_final, r.reason, r.iterations, r.grad_final) for r in reports] == [
        (0.5, "bound", 3, 0.0), (2.0, "bound", 2, 0.0)]
    assert [cs.size for cs in rounds] == [2, 4, 6, 12]


@pytest.mark.parametrize("fd_h,chains", [(0.55, False), (0.45, True)])
def test_no_chain_is_sent_where_a_gradient_pair_could_abort(exp02, rounds, fd_h, chains):
    # with an fd_h of at least c_min a gradient pair at c_min would ask for
    # a velocity that is not positive, so basin_map refuses it before any
    # kernel call.  Below c_min it runs, and sends chains on the plateau
    if not chains:
        with pytest.raises(ValueError, match="fd_h must be below c_min"):
            basin_map(exp02, [None], [1.8], fd_h=fd_h)
        assert rounds == []
        return
    reports, = basin_map(exp02, [None], [1.8], fd_h=fd_h)
    assert_same_reports(reports, [scalar_descend_oracle(exp02, None, 1.8, fd_h=fd_h)])
    assert reports[0].reason == "bound"
    assert max(cs.size for cs in rounds[1:]) > 2
