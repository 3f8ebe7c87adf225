"""Grid containers, the rectangle-rule trace inner product, interpolation."""

import numpy as np
import pytest

from wrilab.grids import SpaceGrid, TimeGrid, Trace, eval_interp, inner_product_trace


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


def test_trace_shape_check():
    g = TimeGrid(0.0, 0.1, 5)
    with pytest.raises(ValueError, match="does not match"):
        Trace(g, np.zeros(4))


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


def test_eval_interp_nodes_midpoints_and_extension():
    g = TimeGrid(1.0, 0.5, 3)
    tr = Trace(g, np.array([1.0, 3.0, 2.0]))
    out = eval_interp(tr, np.array([1.5, 1.25, 0.9, 2.1, 1.0, 5.0]))
    assert out[0] == 3.0
    assert out[1] == pytest.approx(2.0)
    assert out[2] == 0.0 and out[3] == 0.0
    assert np.allclose(out[4:], [1.0, 0.0])


def test_eval_interp_reproduces_affine_functions():
    g = TimeGrid(0.0, 0.125, 17)
    tr = Trace(g, 3.0 * g.times() - 1.0)
    t = np.linspace(0.0, 2.0, 101)
    assert np.allclose(eval_interp(tr, t), 3.0 * t - 1.0, atol=1e-14)

