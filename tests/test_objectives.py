"""Misfit and penalty objectives: values, identities, and gradients."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wrilab import (
    Experiment, Trace, Wavelet, WriConfig, annihilator_value, eval_interp,
    fwi_plateau, fwi_value, gradient, make_experiment, make_objective,
    normal_constant, quadratic_form_checks, weight_apply, wri_value,
)


def pulse_moments(n=2**16 + 1):
    """Centroid and variance of the unit-width bump energy density."""
    w = Wavelet.bump(1.0)
    s = np.linspace(0.0, 1.0, n)
    y = w.value(s) ** 2
    m0 = np.trapezoid(y, s)
    mu = np.trapezoid(s * y, s) / m0
    var = np.trapezoid((s - mu) ** 2 * y, s) / m0
    return mu, var


def inconsistent_experiment(geo):
    """Data made of two displaced arrivals: no single velocity explains it."""
    w = Wavelet.bump(0.02)
    grid = geo.data_grid(0.0005)
    t = grid.times()
    d = 0.7 * w.value(t - 0.45) + 0.4 * w.value(t - 0.62)
    return Experiment(geo, 1.0, w, Trace(grid, d))


# -- experiment construction --------------------------------------------------

def test_make_experiment_defaults_and_width_guard(geo):
    exp = make_experiment(geo, 1.0, Wavelet.bump(0.04))
    assert exp.data.grid.dt == pytest.approx(0.001)
    assert exp.data.grid.t0 == 0.0
    assert exp.lam == 0.04
    with pytest.raises(ValueError, match="pulse width lam"):
        make_experiment(geo, 1.0, Wavelet.bump(0.5))
    with pytest.raises(ValueError, match="pulse width lam"):
        make_experiment(geo, 1.0, Wavelet.bump(0.7))


# -- least-squares misfit -----------------------------------------------------

def test_fwi_zero_at_target_and_plateau_value(exp02):
    assert abs(fwi_value(exp02, 1.0).value) <= 1e-12
    assert fwi_value(exp02, 2.0).value == pytest.approx(0.15625, rel=1e-9)
    assert fwi_value(exp02, 0.5).value == pytest.approx(0.625, rel=1e-9)
    diag = fwi_value(exp02, 2.0).diagnostics
    assert set(diag) == {"route", "transit_time", "data_term", "cross_term",
                         "prediction_term"}
    assert diag["cross_term"] == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError, match="velocity must be positive"):
        fwi_value(exp02, 0.0)


def test_fwi_record_length_invariance(geo, exp02):
    # pulses live well inside [0, T]; enlarging T cannot change the misfit,
    # the data norm or the data moments the annihilator reads
    geo_long = dataclasses.replace(geo, T=2.0)
    pairs = [(exp02, make_experiment(geo_long, 1.0, exp02.wavelet)),
             (inconsistent_experiment(geo), inconsistent_experiment(geo_long))]
    for short, long_ in pairs:
        assert long_.data.grid.n > short.data.grid.n
        assert long_.half_data_norm2 == short.half_data_norm2
        for c in (0.6, 1.0, 1.37, 2.0):
            assert fwi_value(long_, c).value == fwi_value(short, c).value
            for variant in ("signed", "squared", "normalized"):
                assert (annihilator_value(long_, c, variant)
                        == annihilator_value(short, c, variant))


def test_fwi_plateau_formula_and_domain(exp02):
    assert fwi_plateau(exp02, 2.0) == pytest.approx(0.15625)
    assert fwi_plateau(exp02, 0.5) == pytest.approx(0.625)
    with pytest.raises(ValueError, match="plateau formula not applicable"):
        fwi_plateau(exp02, 1.1)


# -- penalty objective --------------------------------------------------------

def test_wri_zero_at_target_both_routes(exp02):
    closed = wri_value(exp02, 1.0, WriConfig(alpha=0.25))
    assert abs(closed.value) <= 1e-12
    var = wri_value(exp02, 1.0, WriConfig(alpha=0.25, route="variational"))
    assert abs(var.value) <= 1e-12


def test_wri_closed_form_far_value(exp02):
    # factor 0.0625/(0.0625+0.0625) = 1/2 times the plateau 0.15625
    out = wri_value(exp02, 2.0, WriConfig(alpha=0.25))
    assert out.value == pytest.approx(0.078125, rel=1e-9)
    assert out.diagnostics["factor"] == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.25, 0.6])
@pytest.mark.parametrize("c", [0.8, 1.5])
def test_wri_variational_matches_closed_form(exp02, c, alpha):
    closed = wri_value(exp02, c, WriConfig(alpha=alpha)).value
    var = wri_value(exp02, c, WriConfig(alpha=alpha, route="variational",
                                        dz=0.0025))
    assert abs(var.value - closed) <= 1e-10 * closed
    diag = var.diagnostics
    assert diag["cg_converged"]
    assert abs(diag["two_term_sum"] - var.value) <= 1e-10 * var.value


def test_wri_ratio_identity_holds_for_inconsistent_data(geo):
    # alpha^2/(k + alpha^2) links penalty and misfit values for any data
    exp = inconsistent_experiment(geo)
    for c in (0.9, 1.4):
        fwi = fwi_value(exp, c).value
        assert fwi > 1e-3
        for alpha in (0.25, 0.6):
            var = wri_value(exp, c, WriConfig(alpha=alpha, route="variational"))
            factor = alpha**2 / (normal_constant(geo, c) + alpha**2)
            assert var.value == pytest.approx(factor * fwi, rel=1e-10)


def test_wri_value_increases_with_alpha(exp02):
    fwi = fwi_value(exp02, 1.6).value
    vals = [wri_value(exp02, 1.6, WriConfig(alpha=a)).value
            for a in (0.1, 0.2, 0.5, 0.8, 1.2)]
    assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))
    assert all(v < fwi for v in vals)


def test_wri_config_validation(exp02):
    with pytest.raises(ValueError, match="alpha must be positive"):
        WriConfig(alpha=0.0)
    with pytest.raises(ValueError, match="unknown wri route"):
        WriConfig(alpha=0.25, route="direct")
    with pytest.raises(ValueError, match="velocity must be positive"):
        wri_value(exp02, -1.0, WriConfig(alpha=0.25))


# -- residual weight ----------------------------------------------------------

def test_weight_apply_scalar_and_general(geo, exp02):
    grid = exp02.data.grid
    zero = Trace(grid, np.zeros(grid.n))
    assert np.all(weight_apply(exp02, 1.0, 0.25, zero).samples == 0.0)
    # u(c_*, 1/4) = (1/32) / (1/4 + 1/16) = 0.1 exactly
    out = weight_apply(exp02, 1.0, 0.25, exp02.data)
    assert np.allclose(out.samples, 0.1 * exp02.data.samples, rtol=1e-13)
    gen = weight_apply(exp02, 1.3, 0.4, exp02.data, path="general")
    ref = weight_apply(exp02, 1.3, 0.4, exp02.data, path="scalar")
    assert np.linalg.norm(gen.samples - ref.samples) <= 1e-6 * np.linalg.norm(ref.samples)
    with pytest.raises(ValueError, match="unknown weight path"):
        weight_apply(exp02, 1.0, 0.25, exp02.data, path="exact")
    with pytest.raises(ValueError, match="alpha must be positive"):
        weight_apply(exp02, 1.0, -0.5, exp02.data)


# -- annihilator moments ------------------------------------------------------

def test_annihilator_matches_independent_moment_oracle(geo, exp02):
    mu, var = pulse_moments()
    lam = exp02.lam
    tau_s = geo.transit_time(1.0)
    for c in (0.7, 1.0, 1.3, 2.0):
        predicted = (tau_s - geo.transit_time(c) + lam * mu) ** 2 + lam**2 * var
        got = annihilator_value(exp02, c, "normalized")
        assert got == pytest.approx(predicted, rel=1e-9)


def test_annihilator_small_at_target_and_far_limit(exp02, exp01):
    lam = exp02.lam
    assert annihilator_value(exp02, 1.0, "normalized") <= lam**2
    # far from the target the value approaches the squared shift (tau* - tau)^2
    far = annihilator_value(exp01, 2.0, "normalized")
    assert abs(far / 0.0625 - 1.0) <= 0.05


def test_annihilator_variant_relations(exp02):
    m0 = exp02._moments[0]
    for c in (0.8, 1.0, 1.6):
        norm = annihilator_value(exp02, c, "normalized")
        sq = annihilator_value(exp02, c, "squared")
        assert sq == pytest.approx(norm * m0 / (4.0 * c * c), rel=1e-12)
    assert annihilator_value(exp02, 2.0, "signed") > 0.0
    assert annihilator_value(exp02, 0.6, "signed") < 0.0


def test_annihilator_lower_bound_on_disjoint_supports(geo, exp02):
    lam = exp02.lam
    big_l = 16.0
    tau_s = geo.transit_time(1.0)
    for c in np.linspace(0.5, 2.0, 101):
        shift = abs(tau_s - geo.transit_time(c))
        if abs(c - 1.0) > big_l * lam and shift > lam:
            assert annihilator_value(exp02, c, "normalized") >= (shift - lam) ** 2


def test_annihilator_dual_route_direct_quadrature(geo, exp02):
    # independent route: sample u(t) = (1/2c) d(t + tau) on a grid covering
    # negative times (slow models push the back-propagated pulse before t = 0)
    grid = exp02.data.grid
    t = grid.dt * np.arange(-(grid.n - 1), grid.n)
    for c, tol in ((0.8, 1e-12), (1.0, 1e-12), (1.7, 1e-2)):
        tau = geo.transit_time(c)
        u = eval_interp(exp02.data, t + tau) / (2.0 * c)
        m0 = grid.dt * np.sum(u * u)
        m2 = grid.dt * np.sum(t * t * u * u)
        assert annihilator_value(exp02, c, "normalized") == pytest.approx(
            m2 / m0, rel=tol)


def test_annihilator_errors(geo, exp02):
    with pytest.raises(ValueError, match="unknown annihilator variant"):
        annihilator_value(exp02, 1.0, "absolute")
    grid = geo.data_grid(0.001)
    silent = Experiment(geo, 1.0, Wavelet.bump(0.04), Trace(grid, np.zeros(grid.n)))
    with pytest.raises(ValueError, match="undefined for zero data"):
        annihilator_value(silent, 1.0, "normalized")
    assert annihilator_value(silent, 1.0, "signed") == 0.0


# -- quadratic-form rewrite ---------------------------------------------------

def test_quadratic_forms_recombine(exp02):
    for c in (0.8, 1.0, 1.2):
        out = quadratic_form_checks(exp02, c)
        assert out["resid_reconstructed"] <= 1e-8
        assert out["resid_three_term"] <= 1e-8
        assert out["resid_cross_term"] <= 1e-8
    at_target = quadratic_form_checks(exp02, 1.0)
    assert abs(at_target["direct_value"]) <= 1e-12
    with pytest.raises(ValueError, match="both pulse supports inside"):
        quadratic_form_checks(exp02, 0.33)


# -- gradients ----------------------------------------------------------------

def test_gradient_far_field_and_at_target(exp02):
    # far from the target only the prediction energy varies: dJ/dc = -1/(4c^3)
    assert gradient(exp02, 2.0) == pytest.approx(-1.0 / 32.0, rel=1e-2)
    assert abs(gradient(exp02, 1.0)) <= 1e-8


@pytest.mark.parametrize("c", [0.98, 2.0])
def test_gradient_fd_matches_analytic(exp02, c):
    ana = gradient(exp02, c)
    fd = gradient(exp02, c, method="central_fd", h=1e-5)
    assert fd == pytest.approx(ana, rel=1e-4)


def test_gradient_errors(exp02):
    with pytest.raises(ValueError, match="fwi kind only"):
        gradient(exp02, 1.0, kind="wri", method="analytic_fwi")
    with pytest.raises(ValueError, match="step h must be positive"):
        gradient(exp02, 1.0, method="central_fd", h=0.0)
    with pytest.raises(ValueError, match="unknown gradient method"):
        gradient(exp02, 1.0, method="forward_fd")


def test_make_objective_dispatch(exp02):
    f = make_objective(exp02, "fwi")
    assert f(2.0) == fwi_value(exp02, 2.0).value
    g = make_objective(exp02, "wri", alpha=0.25)
    assert g(2.0) == wri_value(exp02, 2.0, WriConfig(alpha=0.25)).value
    h = make_objective(exp02, "annihilator", variant="squared")
    assert h(1.5) == annihilator_value(exp02, 1.5, "squared")
    with pytest.raises(ValueError, match="needs a penalty weight"):
        make_objective(exp02, "wri")
    with pytest.raises(ValueError, match="unknown objective kind"):
        make_objective(exp02, "travel_time")


# -- velocity as a batch axis -------------------------------------------------

def scalar_fwi_oracle(exp, c):
    """The misfit of one velocity as evaluated before the batched kernel."""
    grid = exp.data.grid
    tau = exp.geo.offset / c
    j0 = max(0, int(math.ceil((tau - grid.t0) / grid.dt - 1e-12)))
    j1 = min(grid.n - 1, int(math.floor((tau + exp.lam - grid.t0) / grid.dt + 1e-12)))
    win = slice(j0, max(j0, j1 + 1))
    t = grid.t0 + grid.dt * np.arange(win.start, win.stop)
    pred = exp.wavelet.value(t - tau) / (2.0 * c)
    cross = grid.dt * float(np.dot(exp.data.samples[win], pred))
    half_pred2 = 0.5 * grid.dt * float(np.dot(pred, pred))
    return exp.half_data_norm2 - cross + half_pred2


@st.composite
def batch_cases(draw, geo):
    """An experiment and velocities including both bounds and grid-aligned windows."""
    lam = draw(st.sampled_from([0.01, 0.02, 0.04]))
    dt = draw(st.sampled_from([None, 0.00025, 0.0005]))
    kind = draw(st.sampled_from(["bump", "bump_derivative"]))
    c_star = draw(st.floats(0.9, 1.1))
    exp = make_experiment(geo, c_star, Wavelet(kind, lam), dt=dt)
    step = exp.data.grid.dt
    j_lo = math.ceil(geo.offset / (geo.c_max * step))
    j_hi = math.floor(geo.offset / (geo.c_min * step))
    # window start tau = j dt or window end tau + lam = j dt on a grid point
    start_on_grid = st.integers(j_lo, j_hi).map(lambda j: geo.offset / (j * step))
    end_on_grid = st.integers(j_lo + math.ceil(lam / step), j_hi).map(
        lambda j: geo.offset / (j * step - lam))
    velocity = st.one_of(
        st.floats(geo.c_min, geo.c_max), st.sampled_from([geo.c_min, geo.c_max]),
        start_on_grid, end_on_grid,
    ).map(lambda c: min(max(c, geo.c_min), geo.c_max))
    cs = np.array(draw(st.lists(velocity, min_size=1, max_size=40)))
    return exp, cs


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_batched_objectives_equal_scalar_values(geo, data):
    exp, cs = data.draw(batch_cases(geo))
    alpha = data.draw(st.floats(0.05, 1.0))
    oracle = np.array([scalar_fwi_oracle(exp, c) for c in cs])
    batched = fwi_value(exp, cs).value
    assert np.array_equal(batched, oracle)
    wri = make_objective(exp, "wri", alpha=alpha)
    a2 = alpha**2
    wri_oracle = np.array([a2 / (normal_constant(exp.geo, c) + a2) * v
                           for c, v in zip(cs.tolist(), oracle.tolist())])
    assert np.array_equal(wri(cs), wri_oracle)
    funcs = [make_objective(exp, "fwi"), wri] + [
        make_objective(exp, "annihilator", variant=v)
        for v in ("signed", "squared", "normalized")]
    for func in funcs:
        assert np.array_equal(func(cs), [func(float(c)) for c in cs])


def test_batched_values_follow_input_shape(exp02):
    single = fwi_value(exp02, 1.2)
    assert isinstance(single.value, float)
    assert isinstance(single.diagnostics["cross_term"], float)
    batch = fwi_value(exp02, [1.2, 1.5])
    assert batch.value.shape == (2,)
    assert batch.value[0] == single.value
    assert fwi_value(exp02, np.array([])).value.shape == (0,)
    with pytest.raises(ValueError, match="velocity must be positive"):
        fwi_value(exp02, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="velocity must be positive"):
        annihilator_value(exp02, np.array([1.0, -1.0]))
    variational = make_objective(exp02, "wri", alpha=0.25, route="variational")
    closed = make_objective(exp02, "wri", alpha=0.25)
    cs = np.array([0.8, 1.2])
    assert np.allclose(variational(cs), closed(cs), rtol=1e-6)
