"""Far-region landscape structure: scans, argmin checks, width diagnostics."""

import dataclasses

import numpy as np
import pytest

from wrilab import analysis
from wrilab.acoustics import (
    Wavelet, _in_far_region, lambda_admissible_max, point_forward, separation_scale,
)
from wrilab.analysis import (
    alpha_sweep_argmin, beta_parameter, nonsmoothness_diagnostic, theorem1_verify,
    theorem2_verify,
)
from wrilab.objectives import Experiment, fwi_plateau, fwi_value, wri_value


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
        rep = theorem1_verify(exp)
        assert rep.applicable and rep.passed
        assert rep.predicted_c == pytest.approx(2.0)
        assert rep.argmin_c == pytest.approx(2.0)
        assert rep.detail["monotone_decreasing"]
        assert rep.detail["max_plateau_rel_dev"] <= 5e-3


def test_theorem1_wide_pulse_not_applicable(geo):
    w = Wavelet("bump", 0.6)
    data = point_forward(geo, 1.0, w, geo.data_grid(0.6 / 40.0))
    wide = Experiment(geo, 1.0, w, data)
    rep = theorem1_verify(wide)
    assert not rep.applicable and not rep.passed
    assert rep.detail["reason"] == "pulse width above admissible bound"


# -- penalty argmin controlled by beta -----------------------------------------

def test_beta_parameter_values(geo):
    assert beta_parameter(geo, 1.0, 0.25) == pytest.approx(0.75, abs=1e-12)
    assert beta_parameter(geo, 1.0, 0.5) == 0.0
    assert beta_parameter(geo, 1.0, 0.6) == pytest.approx(-0.44, abs=1e-12)


def test_theorem2_three_beta_regimes(exp02):
    low = theorem2_verify(exp02, 0.25)
    assert low.passed and low.beta > 0.0
    assert low.predicted_c == pytest.approx(0.5)
    assert low.argmin_c == pytest.approx(0.5)
    assert low.detail["predicted_segment_reaches_bound"]
    high = theorem2_verify(exp02, 0.6)
    assert high.passed and high.beta < 0.0
    assert high.predicted_c == pytest.approx(2.0)
    assert high.argmin_c == pytest.approx(2.0)
    flat = theorem2_verify(exp02, 0.5)
    assert flat.passed and flat.beta == 0.0
    assert flat.predicted_c is None
    assert flat.detail["flat_relative_variation"] <= 1e-9


def test_theorem2_wide_pulse_truncates_lower_segment(exp04):
    # at lam = 0.04 the far region is only {c > 1.64}: the lower far segment
    # falls below c_min, so beta > 0 predicts that segment's smallest velocity
    rep = theorem2_verify(exp04, 0.25)
    assert rep.applicable and rep.passed
    assert rep.predicted_c == pytest.approx(1.64, abs=rep.cell + 1e-9)
    assert rep.argmin_c == rep.predicted_c
    assert not rep.detail["predicted_segment_reaches_bound"]


def test_alpha_sweep_argmin_persists(exp02):
    out = alpha_sweep_argmin(exp02, [0.25, 0.1, 0.01])
    assert out["argmins"] == [0.5, 0.5, 0.5]
    assert out["all_at_lower_extreme"]
    assert out["far_region_lower_extreme"] == 0.5
    assert all(b > 0.0 for b in out["betas"])
    with pytest.raises(ValueError, match="beta > 0 for every alpha"):
        alpha_sweep_argmin(exp02, [0.25, 0.6])


def test_alpha_sweep_far_region_independence_is_measured(exp02, monkeypatch):
    alphas = [0.25, 0.1, 0.01]
    masks = [analysis._far_argmin(exp02, lambda c, a=a: wri_value(exp02, c, a), 2001)[1]
             for a in alphas]
    out = alpha_sweep_argmin(exp02, alphas)
    assert out["far_region_alpha_independent"] == all(
        np.array_equal(m, masks[0]) for m in masks)
    # a far mask that moves with alpha must show in the key
    far_argmin = analysis._far_argmin
    calls = []

    def shifting_far_argmin(exp, func, scan_points):
        cs, mask, vals, far_idx, argmin_c = far_argmin(exp, func, scan_points)
        calls.append(None)
        if len(calls) == 2:
            mask = mask.copy()
            mask[np.flatnonzero(mask)[-1]] = False
        return cs, mask, vals, far_idx, argmin_c

    monkeypatch.setattr(analysis, "_far_argmin", shifting_far_argmin)
    assert not alpha_sweep_argmin(exp02, alphas)["far_region_alpha_independent"]


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
