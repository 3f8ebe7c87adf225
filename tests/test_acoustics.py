"""Closed-form acoustics: wavelets, traveling-wave solutions, extension source."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wrilab import acoustics
from wrilab import (
    Field, Geometry, SpaceGrid, TimeGrid, Trace, Wavelet, eval_interp,
    extension_source, field_solution, forward_general, green_solution,
    mollifier, normal_constant, point_forward, point_right_inverse,
)


class ZeroWavelet:
    """A width-0.04 pulse that is identically zero, with the Wavelet methods
    that point_forward and extension_source read."""

    lam = 0.04

    def value(self, t):
        return np.zeros(np.shape(t))

    antiderivative = value


# -- geometry -----------------------------------------------------------------

def test_geometry_invariants_named():
    ok = dict(z_min=0.0, z_max=1.0, z_s=0.3, z_r=0.8, T=1.5, rho=1.0,
              c_min=0.5, c_max=2.0)
    with pytest.raises(ValueError, match="z_min < z_max"):
        Geometry(**{**ok, "z_max": -1.0})
    with pytest.raises(ValueError, match="z_min < z_s < z_max"):
        Geometry(**{**ok, "z_s": 0.0})
    with pytest.raises(ValueError, match="z_s != z_r"):
        Geometry(**{**ok, "z_r": 0.3})
    with pytest.raises(ValueError, match="rho > 0"):
        Geometry(**{**ok, "rho": 0.0})
    with pytest.raises(ValueError, match="c_min <= c_max"):
        Geometry(**{**ok, "c_min": 3.0})
    with pytest.raises(ValueError, match="slowest arrival"):
        Geometry(**{**ok, "T": 1.0})


def test_transit_time(geo):
    assert geo.transit_time(1.0) == pytest.approx(0.5)
    tau_slow = geo.transit_time(0.5)
    assert tau_slow == pytest.approx(1.0)
    assert tau_slow < geo.T
    for c in (0.5, 0.77, 2.0):
        assert geo.transit_time(c) * c == pytest.approx(geo.offset)
    with pytest.raises(ValueError, match="positive"):
        geo.transit_time(0.0)


# -- wavelets -----------------------------------------------------------------

@pytest.mark.parametrize("lam", [1.0, 0.02])
@pytest.mark.parametrize("kind", ["bump", "bump_derivative"])
def test_wavelet_unit_norm(kind, lam):
    w = Wavelet(kind, lam)
    t = np.linspace(0.0, lam, 200001)
    norm2 = np.trapezoid(w.value(t) ** 2, t)
    assert norm2 == pytest.approx(1.0, rel=1e-6)


def test_wavelet_compact_support():
    w = Wavelet("bump", 0.02)
    assert w.value(0.0) == 0.0
    assert w.value(-1.0) == 0.0
    assert w.value(0.02) == 0.0
    assert w.value(0.5) == 0.0
    assert w.value(0.01) > 0.0


def test_bump_derivative_zero_mean():
    w = Wavelet("bump_derivative", 0.04)
    assert abs(w.antiderivative(0.04)) < 1e-12
    t = np.linspace(0.0, 0.04, 100001)
    assert abs(np.trapezoid(w.value(t), t)) < 1e-9


def test_wavelet_derivative_consistency():
    # the bump_derivative kind is the t-derivative of the bump up to a
    # positive scale k, and its antiderivative is the bump over that scale
    bump, deriv = Wavelet("bump", 0.03), Wavelet("bump_derivative", 0.03)
    t = np.linspace(0.002, 0.028, 57)
    h = 1e-7
    fd = (bump.value(t + h) - bump.value(t - h)) / (2.0 * h)
    d = deriv.value(t)
    k = np.dot(fd, d) / np.dot(d, d)
    assert k > 0.0
    assert np.allclose(k * d, fd, rtol=1e-5, atol=1e-4)
    assert np.allclose(k * deriv.antiderivative(t), bump.value(t), rtol=1e-5, atol=1e-4)


def test_wavelet_norm_constants_equal_their_quadrature():
    # the stored 1/||b|| and 1/||b'|| are the trapezoid rule on 2^20 + 1 nodes
    s = np.linspace(0.0, 1.0, 2**20 + 1)
    b = acoustics._mother_bump(s)
    bp = acoustics._mother_bump_deriv(s)
    assert acoustics._NORM_BUMP == 1.0 / np.sqrt(float(np.trapezoid(b * b, s)))
    assert acoustics._NORM_BUMP_DERIV == 1.0 / np.sqrt(float(np.trapezoid(bp * bp, s)))


def test_antiderivative_table_equals_out_of_place_build():
    # the expressions the in-place build replaced, kept as its reference
    s = np.linspace(0.0, 1.0, acoustics._QUAD_N)
    sm = s[1:-1]
    w = np.zeros_like(s)
    w[1:-1] = acoustics._NORM_BUMP * np.exp(-1.0 / (sm * (1.0 - sm)))
    cum = np.empty_like(w)
    cum[0] = 0.0
    np.cumsum(0.5 * (s[1] - s[0]) * (w[1:] + w[:-1]), out=cum[1:])
    nodes, table = acoustics._bump_antiderivative_table()
    assert np.array_equal(nodes.view(np.int64), s.view(np.int64))
    assert np.array_equal(table.view(np.int64), cum.view(np.int64))


def reference_bump(s):
    """The mother bump as a masked formula: gather the support 0 < s < 1,
    evaluate exp(-1/((1 - s) s)) there and scatter it into zeros."""
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape, dtype=float)
    m = (s > 0.0) & (s < 1.0)
    if np.any(m):
        sm = s[m]
        with np.errstate(over="ignore"):
            out[m] = np.exp(-1.0 / ((1.0 - sm) * sm))
    return out


def reference_bump_deriv(s):
    """d/ds of reference_bump, evaluated where the bump is positive."""
    s = np.asarray(s, dtype=float)
    b = reference_bump(s)
    out = np.zeros(s.shape, dtype=float)
    m = b > 0.0
    if np.any(m):
        sm = s[m]
        u = (1.0 - 2.0 * sm) / (sm**2 * (1.0 - sm) ** 2)
        out[m] = b[m] * u
    return out


def reference_wavelet_value(w, t):
    """Wavelet.value of w at times t, sampled through the reference bump."""
    s = np.asarray(t, dtype=float) / w.lam
    scale = w.lam**-0.5
    if w.kind == "bump":
        return scale * acoustics._NORM_BUMP * reference_bump(s)
    return scale * acoustics._NORM_BUMP_DERIV * reference_bump_deriv(s)


# the ends of the support, the smallest subnormal, the doubles next to 0.5 and
# 1, and the values that are not numbers
SPECIAL_S = [0.0, -0.0, 5e-324, -5e-324, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0,
             1.0 + 2.0**-52, math.nan, math.inf, -math.inf]


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.one_of(st.floats(), st.floats(0.0, 1.0), st.sampled_from(SPECIAL_S)),
                max_size=60))
def test_bump_equals_masked_formula_for_every_double(values):
    s = np.array(values + SPECIAL_S)
    pairs = ((acoustics._mother_bump, reference_bump),
             (acoustics._mother_bump_deriv, reference_bump_deriv))
    for func, ref in pairs:
        got = func(s)
        assert got.tobytes() == ref(s).tobytes()
        assert np.all(np.isfinite(got))
        assert not np.any((got == 0.0) & np.signbit(got))
        for x in values[:4] + SPECIAL_S:
            one = func(np.float64(x))
            assert one.shape == ()
            assert one.tobytes() == ref(x).tobytes()


def test_wavelet_errors_and_modes():
    with pytest.raises(ValueError, match="unknown wavelet kind"):
        Wavelet("sine", 0.02)
    with pytest.raises(ValueError, match="must be positive"):
        Wavelet("bump", 0.0)


# -- traveling-wave solutions -------------------------------------------------

def test_green_solution_causality_and_impedance(geo):
    w = Wavelet("bump", 0.04)
    z = 0.65
    shift = abs(z - geo.z_s) / 1.3
    p, v = green_solution(geo, 1.3, w, z, shift - 0.001)
    assert p == 0.0 and v == 0.0
    t_in = shift + 0.02
    p, v = green_solution(geo, 1.3, w, z, t_in)
    assert p > 0.0
    assert v / p == pytest.approx(np.sign(z - geo.z_s) / (geo.rho * 1.3))


def test_green_solution_matches_point_forward(geo):
    w = Wavelet("bump", 0.04)
    grid = geo.data_grid(1e-3)
    tr = point_forward(geo, 0.8, w, grid)
    p, _ = green_solution(geo, 0.8, w, geo.z_r, grid.times())
    assert np.allclose(p, tr.samples, rtol=1e-15, atol=1e-15)


def delta_source_field(geo, w, dz=0.0025, dt=0.00025):
    """Narrow grid approximation of w(t) * delta(z - z_s): one loaded node."""
    zg = SpaceGrid(geo.z_s - 40 * dz, dz, 81)
    tg = TimeGrid(0.0, dt, int(round(0.2 / dt)) + 1)
    vals = np.zeros((81, tg.n))
    vals[40] = w.value(tg.times()) / dz
    return Field(zg, tg, vals)


def test_field_solution_zero_source(geo):
    zg = SpaceGrid(0.0, 0.1, 11)
    tg = TimeGrid(0.0, 0.01, 21)
    p, v = field_solution(geo, 1.0, Field(zg, tg, np.zeros((11, 21))), 0.8, 0.1)
    assert p == 0.0 and v == 0.0


def test_field_solution_delta_source_matches_green(geo):
    w = Wavelet("bump", 0.04)
    f = delta_source_field(geo, w)
    t = np.linspace(0.4, 0.8, 1201)
    p_f, _ = field_solution(geo, 1.0, f, geo.z_r, t)
    p_g, _ = green_solution(geo, 1.0, w, geo.z_r, t)
    rel = np.linalg.norm(p_f - p_g) / np.linalg.norm(p_g)
    assert rel < 2e-2


def test_field_solution_velocity_sign_flip(geo):
    w = Wavelet("bump", 0.04)
    f = delta_source_field(geo, w)
    p_right, v_right = field_solution(geo, 1.0, f, geo.z_s + 0.05, 0.07)
    p_left, v_left = field_solution(geo, 1.0, f, geo.z_s - 0.05, 0.07)
    assert p_right == pytest.approx(p_left)
    assert v_right > 0.0
    assert v_left == pytest.approx(-v_right)


def test_point_forward_zero_wavelet_and_support(geo):
    grid = geo.data_grid(1e-3)
    assert np.all(point_forward(geo, 1.0, ZeroWavelet(), grid).samples == 0.0)
    w = Wavelet("bump", 0.04)
    tr = point_forward(geo, 1.0, w, grid)
    t = grid.times()
    tau = geo.transit_time(1.0)
    outside = (t < tau) | (t > tau + 0.04)
    assert np.all(tr.samples[outside] == 0.0)
    assert np.any(tr.samples != 0.0)


@pytest.mark.parametrize("lam", [0.04, 0.02])
@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_trace_norm_identity(geo, c, lam):
    # squared trace norm equals 1/(4 c^2) while the pulse fits in the record
    w = Wavelet("bump", lam)
    grid = geo.data_grid(lam / 40.0)
    tr = point_forward(geo, c, w, grid)
    norm2 = grid.dt * float(np.dot(tr.samples, tr.samples))
    assert norm2 == pytest.approx(1.0 / (4.0 * c * c), rel=1e-3)


def test_normal_constant(geo):
    assert normal_constant(geo, 1.0) == pytest.approx(0.25)
    assert normal_constant(geo, 2.0) == pytest.approx(0.0625)
    for c in (0.5, 1.1, 2.0):
        assert normal_constant(geo, c) * 4.0 * c * c == pytest.approx(geo.extent)


# -- mollifier and extension --------------------------------------------------

def test_mollifier_plateau_support_and_band(geo):
    eps = 0.2
    for z in (geo.z_s, geo.z_s + 0.09, geo.z_s - 0.09):
        assert mollifier(geo, eps, z, 0) == pytest.approx(1.0)
        assert mollifier(geo, eps, z, 1) == 0.0
        assert mollifier(geo, eps, z, 2) == 0.0
    for z in (geo.z_s + 0.2, geo.z_s - 0.25, geo.z_max):
        assert mollifier(geo, eps, z, 0) == pytest.approx(0.0, abs=1e-15)
        assert mollifier(geo, eps, z, 1) == 0.0
    # integral of phi'' over a transition band telescopes to zero
    z = np.linspace(geo.z_s + eps / 2, geo.z_s + eps, 20001)
    assert abs(np.trapezoid(mollifier(geo, eps, z, 2), z)) < 1e-8
    with pytest.raises(ValueError, match="eps"):
        mollifier(geo, 0.6, 0.3, 0)
    with pytest.raises(ValueError, match="order"):
        mollifier(geo, eps, 0.3, 3)


def test_extension_source_zero_wavelet_and_support(geo):
    zg = geo.space_grid(0.0025)
    tg = geo.field_time_grid(0.001)
    f0 = dict(extension_source(geo, 1.0, ZeroWavelet(), 0.2, zg, tg))
    assert f0 and all(np.all(row == 0.0) for row in f0.values())
    w = Wavelet("bump", 0.04)
    f = dict(extension_source(geo, 1.0, w, 0.2, zg, tg))
    # one row per node of the open band 0.1 < |z - z_s| < 0.2, in node order
    r = np.abs(zg.points() - geo.z_s)
    assert list(f) == np.flatnonzero((r > 0.1) & (r < 0.2)).tolist()
    assert all(row.shape == (tg.n,) for row in f.values())
    assert any(np.any(row != 0.0) for row in f.values())


def test_extension_rows_are_the_closed_form(geo):
    # each streamed row is the closed form evaluated on the whole band block
    c, eps, zg, tg = 1.3, 0.2, geo.space_grid(0.01), geo.field_time_grid(0.002)
    for w in (Wavelet("bump", 0.04), Wavelet("bump_derivative", 0.04)):
        nodes, rows = zip(*extension_source(geo, c, w, eps, zg, tg))
        z = zg.points()[list(nodes)]
        arg = tg.times()[None, :] - (np.abs(z - geo.z_s) / c)[:, None]
        block = ((-(np.sign(z - geo.z_s) * mollifier(geo, eps, z, 1)))[:, None]
                 * w.value(arg))
        block += (0.5 * c * mollifier(geo, eps, z, 2))[:, None] * w.antiderivative(arg)
        assert np.array_equal(np.array(rows), block)


@pytest.mark.parametrize("kind", ["bump", "bump_derivative"])
def test_extension_radiates_point_source_trace(geo, kind):
    # S applied to the extended source reproduces the point-source trace,
    # with error dropping by at least half under joint grid refinement
    lam = 0.04
    w = Wavelet(kind, lam)

    def rel_err(dz, dt):
        zg, tg = geo.space_grid(dz), geo.field_time_grid(dt)
        src = extension_source(geo, 1.0, w, 0.2, zg, tg)
        made = forward_general(geo, 1.0, zg, tg, src, geo.data_grid(dt))
        ref = point_forward(geo, 1.0, w, geo.data_grid(dt))
        return float(np.linalg.norm(made.samples - ref.samples)
                     / np.linalg.norm(ref.samples))

    e1 = rel_err(0.0025, 0.00025)
    e2 = rel_err(0.00125, 0.000125)
    assert e1 < 2e-2
    assert e2 / e1 < 0.5


# -- right inverse ------------------------------------------------------------

def test_point_right_inverse_zero_and_roundtrip(geo, exp04):
    grid = exp04.data.grid
    zero = Trace(grid, np.zeros(grid.n))
    assert np.all(point_right_inverse(geo, 1.3, zero, grid).samples == 0.0)
    # velocity whose transit time sits on the dt lattice: composition is exact
    c = 1.25
    assert geo.transit_time(c) == pytest.approx(400 * grid.dt)
    u = point_right_inverse(geo, c, exp04.data, grid)
    back = eval_interp(u, grid.times() - geo.transit_time(c)) / (2.0 * c)
    rel = np.linalg.norm(back - exp04.data.samples) / np.linalg.norm(exp04.data.samples)
    assert rel < 1e-10


def test_point_right_inverse_at_target_recovers_wavelet(geo, exp04):
    grid = exp04.data.grid
    u = point_right_inverse(geo, 1.0, exp04.data, grid)
    ref = exp04.wavelet.value(grid.times())
    assert np.linalg.norm(u.samples - ref) <= 1e-12 * np.linalg.norm(ref)
