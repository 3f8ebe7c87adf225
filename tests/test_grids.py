"""Grid containers, rectangle-rule inner products, interpolation, integration."""

import numpy as np
import pytest

from wrilab import (
    Field, SpaceGrid, TimeGrid, Trace, Wavelet, cumulative_integral,
    eval_interp, inner_product_field, inner_product_trace,
)


def test_time_grid_validation():
    with pytest.raises(ValueError, match="dt must be positive"):
        TimeGrid(0.0, -0.1, 10)
    with pytest.raises(ValueError, match="at least two samples"):
        TimeGrid(0.0, 0.1, 1)
    g = TimeGrid(0.5, 0.1, 4)
    assert np.allclose(g.times(), [0.5, 0.6, 0.7, 0.8])


def test_space_grid_validation():
    with pytest.raises(ValueError, match="dz must be positive"):
        SpaceGrid(0.0, 0.0, 10)
    with pytest.raises(ValueError, match="at least two nodes"):
        SpaceGrid(0.0, 0.1, 1)
    assert np.allclose(SpaceGrid(1.0, 0.5, 3).points(), [1.0, 1.5, 2.0])


def test_trace_and_field_shape_checks():
    g = TimeGrid(0.0, 0.1, 5)
    with pytest.raises(ValueError, match="does not match"):
        Trace(g, np.zeros(4))
    zg = SpaceGrid(0.0, 0.1, 3)
    with pytest.raises(ValueError, match="does not match"):
        Field(zg, g, np.zeros((3, 4)))


def test_inner_product_trace_values():
    g = TimeGrid(0.0, 0.1, 10)
    zero = Trace(g, np.zeros(10))
    assert inner_product_trace(zero, zero) == 0.0
    ones = Trace(g, np.ones(10))
    # 10 samples x 0.1 step x 1
    assert inner_product_trace(ones, ones) == pytest.approx(1.0)


def test_inner_product_trace_symmetry_and_mismatch():
    g = TimeGrid(0.0, 0.05, 64)
    rng = np.random.default_rng(0)
    a = Trace(g, rng.uniform(-1.0, 1.0, 64))
    b = Trace(g, rng.uniform(-1.0, 1.0, 64))
    assert inner_product_trace(a, b) == inner_product_trace(b, a)
    other = Trace(TimeGrid(0.0, 0.1, 64), a.samples)
    with pytest.raises(ValueError, match="different grids"):
        inner_product_trace(a, other)


def test_inner_product_field_values():
    zg = SpaceGrid(0.0, 0.1, 10)
    tg = TimeGrid(0.0, 0.25, 4)
    zero = Field(zg, tg, np.zeros((10, 4)))
    assert inner_product_field(zero, zero) == 0.0
    # node-counted extents: 10 * 0.1 = 1 in z, 4 * 0.25 = 1 in t
    ones = Field(zg, tg, np.ones((10, 4)))
    assert inner_product_field(ones, ones) == pytest.approx(1.0)
    rng = np.random.default_rng(1)
    f = Field(zg, tg, rng.uniform(-1.0, 1.0, (10, 4)))
    g = Field(zg, tg, rng.uniform(-1.0, 1.0, (10, 4)))
    doubled = Field(zg, tg, 2.0 * f.values)
    assert inner_product_field(doubled, g) == pytest.approx(
        2.0 * inner_product_field(f, g), rel=1e-15)


def test_eval_interp_nodes_midpoints_and_extension():
    g = TimeGrid(1.0, 0.5, 3)
    tr = Trace(g, np.array([1.0, 3.0, 2.0]))
    assert eval_interp(tr, 1.5) == 3.0
    assert eval_interp(tr, 1.25) == pytest.approx(2.0)
    assert eval_interp(tr, 0.9) == 0.0
    assert eval_interp(tr, 2.1) == 0.0
    out = eval_interp(tr, np.array([1.0, 1.25, 5.0]))
    assert np.allclose(out, [1.0, 2.0, 0.0])


def test_eval_interp_reproduces_affine_functions():
    g = TimeGrid(0.0, 0.125, 17)
    tr = Trace(g, 3.0 * g.times() - 1.0)
    t = np.linspace(0.0, 2.0, 101)
    assert np.allclose(eval_interp(tr, t), 3.0 * t - 1.0, atol=1e-14)


def test_cumulative_integral_basics():
    g = TimeGrid(0.0, 0.1, 11)
    zero = cumulative_integral(Trace(g, np.zeros(11)))
    assert np.all(zero.samples == 0.0)
    const = cumulative_integral(Trace(g, np.ones(11)))
    assert const.samples[0] == 0.0
    assert const.samples[10] == pytest.approx(1.0)


def test_cumulative_integral_second_order_convergence():
    # the antiderivative of the normalized bump derivative is the bump itself
    w = Wavelet.bump_derivative(1.0)

    def max_err(dt):
        g = TimeGrid(0.0, dt, int(round(1.0 / dt)) + 1)
        cum = cumulative_integral(Trace(g, w.value(g.times())))
        return float(np.max(np.abs(cum.samples - w.antiderivative(g.times()))))

    e1, e2 = max_err(1e-3), max_err(5e-4)
    assert e1 < 1e-5
    assert e2 / e1 < 0.3
