"""Misfit and penalty objectives: values, identities, and batched evaluation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wrilab.acoustics import Wavelet, normal_constant, point_forward
from wrilab.checks import quadratic_form_residual, weight_paths_error, wri_variational
from wrilab.cli import PRESETS, build_run_config, main
from wrilab.grids import Trace, _window_bounds, eval_interp
from wrilab.objectives import (
    Experiment, _pulse_terms, annihilator_value, fwi_plateau, fwi_value,
    make_experiment, make_objective, penalty_factor, wri_value,
)
from wrilab.operators import cg_solve_dataspace, make_aligned_S
from oracles import reference_wavelet_value


def pulse_moments(n=2**16 + 1):
    """Centroid and variance of the unit-width bump energy density."""
    w = Wavelet("bump", 1.0)
    s = np.linspace(0.0, 1.0, n)
    y = w.value(s) ** 2
    m0 = np.trapezoid(y, s)
    mu = np.trapezoid(s * y, s) / m0
    var = np.trapezoid((s - mu) ** 2 * y, s) / m0
    return mu, var


def inconsistent_experiment(geo):
    """Data made of two displaced arrivals: no single velocity explains it."""
    w = Wavelet("bump", 0.02)
    grid = geo.data_grid(0.0005)
    t = grid.times()
    d = 0.7 * w.value(t - 0.45) + 0.4 * w.value(t - 0.62)
    return Experiment(geo, 1.0, w, Trace(grid, d))


# -- experiment construction --------------------------------------------------

def test_make_experiment_defaults_and_width_guard(geo):
    exp = make_experiment(geo, 1.0, Wavelet("bump", 0.04))
    assert exp.data.grid.dt == pytest.approx(0.001)
    assert exp.data.grid.t0 == 0.0
    assert exp.lam == 0.04
    with pytest.raises(ValueError, match="pulse width lam"):
        make_experiment(geo, 1.0, Wavelet("bump", 0.5))
    with pytest.raises(ValueError, match="pulse width lam"):
        make_experiment(geo, 1.0, Wavelet("bump", 0.7))


# -- least-squares misfit -----------------------------------------------------

def test_fwi_zero_at_target_and_plateau_value(exp02):
    assert abs(fwi_value(exp02, 1.0).value) <= 1e-12
    assert fwi_value(exp02, 2.0).value == pytest.approx(0.15625, rel=1e-9)
    assert fwi_value(exp02, 0.5).value == pytest.approx(0.625, rel=1e-9)
    _, cross, _ = _pulse_terms(exp02, np.array([2.0]))
    assert cross[0] == pytest.approx(0.0, abs=1e-15)
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
    assert abs(wri_value(exp02, 1.0, 0.25)) <= 1e-12
    assert abs(wri_variational(exp02, 1.0, 0.25, 0.0025)) <= 1e-12


def test_wri_closed_form_far_value(exp02):
    # factor 0.0625/(0.0625+0.0625) = 1/2 times the plateau 0.15625
    assert wri_value(exp02, 2.0, 0.25) == pytest.approx(0.078125, rel=1e-9)
    assert penalty_factor(exp02.geo, 2.0, 0.25) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.25, 0.6])
@pytest.mark.parametrize("c", [0.8, 1.5])
def test_wri_variational_matches_closed_form(exp02, c, alpha):
    closed = wri_value(exp02, c, alpha)
    var = wri_variational(exp02, c, alpha, 0.0025)
    assert abs(var - closed) <= 1e-10 * closed
    # the two terms of the inner minimization at the optimal source g = S^T e
    grid = exp02.data.grid
    pred = point_forward(exp02.geo, c, exp02.wavelet, grid)
    r = Trace(grid, exp02.data.samples - pred.samples)
    op = make_aligned_S(exp02.geo, c, grid, 0.0025)
    rep = cg_solve_dataspace(op, alpha, r)
    assert rep.converged
    g = op.adjoint_block(rep.solution.samples, 0,
                         np.empty((op.zgrid.m, op.field_tgrid.n)))
    resid = r.samples - op.apply_blocks([(0, g)]).samples
    resid_term = 0.5 * r.grid.dt * float(np.dot(resid, resid))
    gw = op.z_weight * op.field_tgrid.dt
    penalty_term = 0.5 * alpha**2 * gw * float(np.dot(g.ravel(), g.ravel()))
    assert abs(resid_term + penalty_term - var) <= 1e-10 * var


def test_wri_ratio_identity_holds_for_inconsistent_data(geo):
    # alpha^2/(k + alpha^2) links penalty and misfit values for any data
    exp = inconsistent_experiment(geo)
    for c in (0.9, 1.4):
        fwi = fwi_value(exp, c).value
        assert fwi > 1e-3
        for alpha in (0.25, 0.6):
            var = wri_variational(exp, c, alpha, geo.extent / 400.0)
            factor = alpha**2 / (normal_constant(geo, c) + alpha**2)
            assert var == pytest.approx(factor * fwi, rel=1e-10)


def test_wri_value_increases_with_alpha(exp02):
    fwi = fwi_value(exp02, 1.6).value
    vals = [wri_value(exp02, 1.6, a) for a in (0.1, 0.2, 0.5, 0.8, 1.2)]
    assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))
    assert all(v < fwi for v in vals)


def test_penalty_weight_validation(exp02):
    with pytest.raises(ValueError, match="alpha must be positive"):
        penalty_factor(exp02.geo, 1.0, 0.0)
    with pytest.raises(ValueError, match="alpha must be positive"):
        wri_value(exp02, 1.0, -0.5)
    with pytest.raises(ValueError, match="velocity must be positive"):
        wri_value(exp02, -1.0, 0.25)


# -- residual weight ----------------------------------------------------------

def test_weight_paths_agree(exp02):
    # u(c_*, 1/4) = (1/32) / (1/4 + 1/16) = 0.1 exactly
    assert 0.5 * penalty_factor(exp02.geo, 1.0, 0.25) == pytest.approx(0.1, rel=1e-13)
    assert weight_paths_error(exp02, 1.3, 0.4, 0.0025) <= 1e-6


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
    silent = Experiment(geo, 1.0, Wavelet("bump", 0.04),
                        Trace(grid, np.zeros(grid.n)))
    with pytest.raises(ValueError, match="undefined for zero data"):
        annihilator_value(silent, 1.0, "normalized")
    assert annihilator_value(silent, 1.0, "signed") == 0.0


# -- quadratic-form rewrite ---------------------------------------------------

def test_quadratic_forms_recombine(exp02):
    for c in (0.8, 1.0, 1.2):
        assert quadratic_form_residual(exp02, (c,)) <= 1e-8
    with pytest.raises(ValueError, match="both pulse supports inside"):
        quadratic_form_residual(exp02, (0.33,))


# -- objective functions of velocity ------------------------------------------

def test_make_objective_dispatch(exp02):
    f = make_objective(exp02, "fwi")
    assert f(2.0) == fwi_value(exp02, 2.0).value
    g = make_objective(exp02, "wri", alpha=0.25)
    assert g(2.0) == wri_value(exp02, 2.0, 0.25)
    h = make_objective(exp02, "annihilator", variant="squared")
    assert h(1.5) == annihilator_value(exp02, 1.5, "squared")
    with pytest.raises(ValueError, match="needs a penalty weight"):
        make_objective(exp02, "wri")
    with pytest.raises(ValueError, match="unknown objective kind"):
        make_objective(exp02, "travel_time")


# -- velocity as a batch axis -------------------------------------------------

def scalar_fwi_oracle(exp, c):
    """The misfit of one velocity as evaluated before the batched kernel,
    with the pulse sampled through the reference bump."""
    grid = exp.data.grid
    tau = exp.geo.offset / c
    j0 = max(0, int(math.ceil((tau - grid.t0) / grid.dt - 1e-12)))
    j1 = min(grid.n - 1, int(math.floor((tau + exp.lam - grid.t0) / grid.dt + 1e-12)))
    win = slice(j0, max(j0, j1 + 1))
    t = grid.t0 + grid.dt * np.arange(win.start, win.stop)
    pred = reference_wavelet_value(exp.wavelet, t - tau) / (2.0 * c)
    cross = grid.dt * float(np.dot(exp.data.samples[win], pred))
    half_pred2 = 0.5 * grid.dt * float(np.dot(pred, pred))
    return exp.half_data_norm2 - cross + half_pred2


def window_sizes(exp, cs):
    """Lengths of the pulse windows of the velocities cs on the data grid."""
    tau = exp.geo.transit_time(cs)
    return _window_bounds(exp.data.grid, tau, tau + exp.lam)[1]


@st.composite
def batch_cases(draw, geo):
    """An experiment and velocities including both bounds, grid-aligned
    windows and a window of each of the two lengths."""
    lam = draw(st.sampled_from([0.01, 0.02, 0.04]))
    # lam/dt is an integer for all but 0.0003
    dt = draw(st.sampled_from([None, 0.00025, 0.0003, 0.0005]))
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
        st.floats(geo.c_min, geo.c_max), start_on_grid, end_on_grid,
    ).map(lambda c: min(max(c, geo.c_min), geo.c_max))
    # the shortest and the longest window over a fine grid and every
    # grid-aligned start: an integer lam/dt gives the longer length only to
    # windows that start on a grid point
    aligned = geo.offset / (np.arange(j_lo, j_hi + 1) * step)
    fine = np.concatenate([np.linspace(geo.c_min, geo.c_max, 1001),
                           aligned[(aligned >= geo.c_min) & (aligned <= geo.c_max)]])
    size = window_sizes(exp, fine)
    ends = [geo.c_min, geo.c_max, fine[np.argmin(size)], fine[np.argmax(size)]]
    cs = np.array(ends + draw(st.lists(velocity, max_size=36)))
    return exp, cs


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_batched_objectives_equal_scalar_values(geo, data):
    exp, cs = data.draw(batch_cases(geo))
    assert len(set(window_sizes(exp, cs).tolist())) == 2
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
    batch = fwi_value(exp02, [1.2, 1.5])
    assert batch.value.shape == (2,)
    assert batch.value[0] == single.value
    assert fwi_value(exp02, np.array([])).value.shape == (0,)
    with pytest.raises(ValueError, match="velocity must be positive"):
        fwi_value(exp02, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="velocity must be positive"):
        annihilator_value(exp02, np.array([1.0, -1.0]))


# -- pulse windows read from views built once ---------------------------------

def test_window_views_are_read_only_and_leave_the_data_alone(geo):
    exp = make_experiment(geo, 1.0, Wavelet("bump_derivative", 0.02))
    samples = exp.data.samples.copy()
    for view in exp._windows:
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = 1.0
    cs = np.linspace(geo.c_min, geo.c_max, 61)
    assert len(set(window_sizes(exp, cs).tolist())) == 2
    fwi_value(exp, cs)
    fwi_value(exp, 1.3)
    assert exp.data.samples.tobytes() == samples.tobytes()
    tau, cross, half_pred2 = _pulse_terms(exp, np.array([]))
    assert tau.shape == cross.shape == half_pred2.shape == (0,)


@settings(max_examples=40, deadline=None, database=None)
@given(lam=st.floats(0.002, 0.1),
       ratio=st.one_of(st.integers(4, 400), st.floats(4.0, 400.0)))
def test_every_pulse_window_fits_the_pad(geo, lam, ratio):
    # integer and non-integer lam/dt; windows that start or end on a grid
    # point are the longest ones
    exp = make_experiment(geo, 1.0, Wavelet("bump", lam), dt=lam / ratio)
    step = exp.data.grid.dt
    j = np.arange(math.ceil(geo.offset / (geo.c_max * step)),
                  math.floor(geo.offset / (geo.c_min * step)) + 1)
    cs = np.concatenate([np.linspace(geo.c_min, geo.c_max, 1001),
                         geo.offset / (j * step), geo.offset / (j * step - lam)])
    cs = cs[(cs >= geo.c_min) & (cs <= geo.c_max)]
    width = exp._windows[0].shape[1]
    assert window_sizes(exp, cs).max() <= width <= math.floor(lam / step + 2e-12) + 2


def test_window_longer_than_the_pad_raises(geo):
    exp = make_experiment(geo, 1.0, Wavelet("bump", 0.02))
    exp.wavelet = Wavelet("bump", 0.04)
    with pytest.raises(ValueError, match="longer than"):
        fwi_value(exp, 1.3)


# -- one misfit pass per velocity grid ----------------------------------------

def test_grouped_kernel_equals_scalar_oracle_on_cfg0():
    cfg = build_run_config(dict(PRESETS["cfg0"]))
    exp = make_experiment(cfg.geometry(), cfg.c_star, cfg.make_wavelet(cfg.lambdas[0]),
                          dt=cfg.dt)
    cs = np.linspace(cfg.c_min, cfg.c_max, 401)
    tau = exp.geo.transit_time(cs)
    _, size = _window_bounds(exp.data.grid, tau, tau + exp.lam)
    # the batch must exercise more than one window length (group)
    assert len(set(size.tolist())) >= 2
    _, cross, half_pred2 = _pulse_terms(exp, cs)
    oracle = [scalar_fwi_oracle(exp, c) for c in cs.tolist()]
    assert np.array_equal(exp.half_data_norm2 - cross + half_pred2, oracle)
    # a batch of one window length is reduced without grouping
    full = size == size.max()
    _, cross, half_pred2 = _pulse_terms(exp, cs[full])
    assert np.array_equal(exp.half_data_norm2 - cross + half_pred2, np.array(oracle)[full])


@pytest.mark.parametrize("m", [0, 1, 15, 16, 17, 40, 41, 160, 161])
def test_vecdot_rows_equal_dot_bit_for_bit(m):
    # the kernel's bit-for-bit claim rests on np.vecdot reducing each row of a
    # (k, m) block exactly as np.dot reduces that row alone
    rng = np.random.default_rng(m)
    data = rng.standard_normal(4 * m + 7)
    j = rng.integers(0, 3 * m + 7, size=9)[:, None] + np.arange(m)
    a, b = data[j], rng.standard_normal((9, m))
    assert np.array_equal(np.vecdot(a, b), [np.dot(x, y) for x, y in zip(a, b)])
    assert np.array_equal(np.vecdot(b, b), [np.dot(y, y) for y in b])


def test_misfit_memo_reuses_only_the_same_grid(geo, kernel_calls):
    exp = make_experiment(geo, 1.0, Wavelet("bump", 0.02))
    cs = np.linspace(0.6, 1.9, 301)
    first = fwi_value(exp, cs).value
    expected = first.copy()
    first[:] = -1.0
    again = fwi_value(exp, cs).value
    assert np.array_equal(again, expected)
    again[:] = -1.0
    assert np.array_equal(fwi_value(exp, cs).value, expected)
    assert kernel_calls == [301]
    assert np.array_equal(wri_value(exp, cs, 0.5), penalty_factor(geo, cs, 0.5) * expected)
    assert kernel_calls == [301]
    # a new grid of the same shape, given as the old array changed in place
    cs += 0.001
    shifted = fwi_value(exp, cs).value
    assert kernel_calls == [301, 301]
    fresh = make_experiment(geo, 1.0, Wavelet("bump", 0.02))
    assert np.array_equal(shifted, fwi_value(fresh, cs).value)
    assert not np.array_equal(shifted, expected)


def test_misfit_memo_keeps_the_input_shape_and_skips_failed_calls(geo, kernel_calls):
    exp = make_experiment(geo, 1.0, Wavelet("bump", 0.02))
    with pytest.raises(ValueError, match="velocity must be positive"):
        fwi_value(exp, np.array([1.0, 0.0]))
    assert exp._last_misfit is None
    batch = fwi_value(exp, [1.2]).value
    single = fwi_value(exp, 1.2).value
    assert isinstance(single, float) and single == batch[0]
    assert kernel_calls == [2, 1]
    with pytest.raises(ValueError, match="velocity must be positive"):
        fwi_value(exp, np.array([1.0, -1.0]))
    assert fwi_value(exp, 1.2).value == single
    assert kernel_calls == [2, 1, 2]


def test_scan_and_theorems_evaluate_each_misfit_grid_once(tmp_path, kernel_calls):
    # the penalty columns and the theorem-2 scans ask for the misfit of the
    # grid the misfit column or theorem 1 just evaluated
    cfg = build_run_config(dict(PRESETS["cfg0"]))
    assert main(["scan", "--preset", "cfg0", "--out", str(tmp_path)]) == 0
    assert kernel_calls == [cfg.scan_points]
    kernel_calls.clear()
    assert main(["theorems", "--preset", "cfg0", "--out", str(tmp_path)]) == 0
    assert len(kernel_calls) == len(cfg.lambdas)


def test_basins_evaluates_both_objectives_in_one_round(tmp_path, kernel_calls):
    # the misfit and penalty descents share every kernel call, and each
    # distinct velocity is evaluated once: 572 calls on 19,243 velocities on
    # cfg0, where evaluating every velocity each round asks for would send
    # 65,973 in 574 calls, and a basin map per objective would make 1,084
    assert main(["basins", "--preset", "cfg0", "--out", str(tmp_path)]) == 0
    assert (len(kernel_calls), sum(kernel_calls)) == (572, 19243)


def test_basins_sends_each_velocity_to_the_kernel_once(tmp_path, kernel_velocities):
    assert main(["basins", "--preset", "cfg0", "--out", str(tmp_path)]) == 0
    assert all(c.size for c in kernel_velocities)
    sent = np.concatenate(kernel_velocities)
    assert np.unique(sent).size == sent.size
