"""Far-region landscape structure: scans, argmin checks, width diagnostics."""

import dataclasses

import numpy as np
import pytest

from wrilab.acoustics import (
    Wavelet, _in_far_region, lambda_admissible_max, point_forward, separation_scale,
)
from wrilab.analysis import beta_parameter, far_region_verify, nonsmoothness_diagnostic
from wrilab.objectives import Experiment, fwi_plateau, fwi_value, make_experiment


# -- scales -------------------------------------------------------------------

def test_admissible_width_bound(geo):
    assert lambda_admissible_max(geo) == pytest.approx(0.5)
    faster_floor = dataclasses.replace(geo, c_min=0.8)
    assert lambda_admissible_max(faster_floor) > lambda_admissible_max(geo)


def test_separation_scale(geo):
    assert separation_scale(geo) == pytest.approx(16.0)
    assert separation_scale(dataclasses.replace(geo, c_max=4.0)) == pytest.approx(64.0)
    assert separation_scale(geo) * 0.02 == pytest.approx(0.32)


def test_far_region_implies_disjoint_pulses(geo):
    lam = 0.02
    assert _in_far_region(geo, 2.0, 1.0, lam)
    assert not _in_far_region(geo, 1.0, 1.0, lam)
    # |c - c_star| > L*lam is sufficient for the arrival intervals
    # [tau, tau + lam] to be disjoint, and not necessary
    cs = np.linspace(0.5, 2.0, 2001)
    far = _in_far_region(geo, cs, 1.0, lam)
    disjoint = np.abs(geo.transit_time(cs) - geo.transit_time(1.0)) > lam
    assert far.any()
    assert np.all(disjoint[far])
    assert np.any(disjoint & ~far)


# -- scans --------------------------------------------------------------------

def test_misfit_scan_values_and_argmin(geo, exp02):
    assert abs(fwi_value(exp02, np.array([1.0])).value[0]) <= 1e-12
    cs = np.linspace(0.5, 2.0, 3001)
    vals = fwi_value(exp02, cs).value
    assert vals.shape == (3001,)
    assert cs[np.argmin(vals)] == pytest.approx(1.0, abs=1e-12)
    far = np.abs(cs - 1.0) > separation_scale(geo) * exp02.lam
    plateau = np.array([fwi_plateau(exp02, c) for c in cs[far]])
    assert np.max(np.abs(vals[far] - plateau) / plateau) <= 5e-3


# -- misfit argmin at the upper bound ------------------------------------------

def test_theorem1_upper_bound_argmin(exp02, exp04):
    for exp in (exp02, exp04):
        rep = far_region_verify(exp, ())[0]
        assert rep.applicable and rep.passed
        assert rep.predicted_c == pytest.approx(2.0)
        assert rep.argmin_c == pytest.approx(2.0)
        assert rep.detail["monotone_decreasing"]
        assert rep.detail["max_plateau_rel_dev"] <= 5e-3


def test_theorem1_wide_pulse_not_applicable(geo):
    w = Wavelet("bump", 0.6)
    data = point_forward(geo, 1.0, w, geo.data_grid(0.6 / 40.0))
    wide = Experiment(geo, 1.0, w, data)
    rep = far_region_verify(wide, ())[0]
    assert not rep.applicable and not rep.passed
    assert rep.detail["reason"] == "pulse width above admissible bound"


# -- penalty argmin controlled by beta -----------------------------------------

def test_beta_parameter_values(geo):
    assert beta_parameter(geo, 1.0, 0.25) == pytest.approx(0.75, abs=1e-12)
    assert beta_parameter(geo, 1.0, 0.5) == 0.0
    assert beta_parameter(geo, 1.0, 0.6) == pytest.approx(-0.44, abs=1e-12)


def test_theorem2_three_beta_regimes(exp02):
    low = far_region_verify(exp02, [0.25])[1]
    assert low.passed and low.beta > 0.0
    assert low.predicted_c == pytest.approx(0.5)
    assert low.argmin_c == pytest.approx(0.5)
    assert low.detail["predicted_segment_reaches_bound"]
    high = far_region_verify(exp02, [0.6])[1]
    assert high.passed and high.beta < 0.0
    assert high.predicted_c == pytest.approx(2.0)
    assert high.argmin_c == pytest.approx(2.0)
    flat = far_region_verify(exp02, [0.5])[1]
    assert flat.passed and flat.beta == 0.0
    assert flat.predicted_c is None
    assert flat.detail["flat_relative_variation"] <= 1e-9


def test_theorem2_wide_pulse_truncates_lower_segment(exp04):
    # at lam = 0.04 the far region is only {c > 1.64}: the lower far segment
    # falls below c_min, so beta > 0 predicts that segment's smallest velocity
    rep = far_region_verify(exp04, [0.25])[1]
    assert rep.applicable and rep.passed
    assert rep.predicted_c == pytest.approx(1.64, abs=rep.cell + 1e-9)
    assert rep.argmin_c == rep.predicted_c
    assert not rep.detail["predicted_segment_reaches_bound"]


# -- one scan for both theorems ------------------------------------------------

def test_far_region_verify_reports_equal_one_alpha_calls(exp04, exp02, exp01):
    # the misfit is evaluated once and shared across alphas: each report of
    # one call equals the report of a call for its alpha alone
    alphas = (0.25, 0.5, 0.6)
    for exp in (exp04, exp02, exp01):
        reports = far_region_verify(exp, alphas)
        assert [rep.theorem for rep in reports] == [1, 2, 2, 2]
        assert [rep.alpha for rep in reports] == [None, *alphas]
        for i, alpha in enumerate(alphas):
            alone = far_region_verify(exp, [alpha])
            assert reports[0] == alone[0]
            assert reports[1 + i] == alone[1]


def test_far_region_verify_not_applicable_reports(geo):
    alphas = (0.25, 0.5, 0.6)
    # at lam = 0.1 the far region |c - 1| > 1.6 misses [0.5, 2] entirely
    empty = far_region_verify(make_experiment(geo, 1.0, Wavelet("bump", 0.1)), alphas)
    lam0 = lambda_admissible_max(geo)
    w = Wavelet("bump", lam0)
    at_bound = far_region_verify(
        Experiment(geo, 1.0, w, point_forward(geo, 1.0, w, geo.data_grid(lam0 / 40.0))),
        alphas)
    for reports, reason in ((empty, "empty far region"),
                            (at_bound, "pulse width above admissible bound")):
        assert [rep.alpha for rep in reports] == [None, *alphas]
        for rep in reports:
            assert not rep.applicable and not rep.passed
            assert rep.predicted_c is None and rep.argmin_c is None
            assert rep.detail == {"reason": reason}
        assert [rep.beta for rep in reports[1:]] == [
            beta_parameter(geo, 1.0, a) for a in alphas]


# -- derivative growth as the pulse narrows ------------------------------------

def misfit(exp, cs):
    return fwi_value(exp, cs).value


def test_nonsmoothness_slope_near_minus_one(geo):
    out = nonsmoothness_diagnostic(geo, 1.0, [0.08, 0.04, 0.02], misfit)
    assert set(out) == {"lams", "max_grads", "slope", "grad_ratio"}
    assert -1.3 < out["slope"] < -0.7
    # the derivative cap grows monotonically as the pulse narrows
    assert out["max_grads"] == sorted(out["max_grads"])


def test_nonsmoothness_validation(geo):
    with pytest.raises(ValueError, match="at least three pulse widths"):
        nonsmoothness_diagnostic(geo, 1.0, [0.08, 0.04], misfit)
    with pytest.raises(ValueError, match="below the admissible bound"):
        nonsmoothness_diagnostic(geo, 1.0, [0.1, 0.2, 0.5], misfit)
