"""Closed-form acoustics: wavelets, traveling-wave solutions, extension source."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wrilab import acoustics
from wrilab.acoustics import (
    Geometry, Wavelet, extension_source, mollifier, normal_constant, point_forward,
    point_right_inverse,
)
from wrilab.grids import SpaceGrid, TimeGrid, Trace, _window_bounds, eval_interp
from wrilab.objectives import make_experiment
from wrilab.operators import make_discrete_S
from oracles import (
    Field, extension_full_rows, field_solution, green_solution, reference_bump,
    reference_bump_antiderivative, reference_bump_deriv,
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
    with pytest.raises(ValueError, match="0 < c_min < c_max"):
        Geometry(**{**ok, "c_min": 3.0})
    with pytest.raises(ValueError, match="0 < c_min < c_max"):
        Geometry(**{**ok, "c_min": 2.0})
    with pytest.raises(ValueError, match="slowest arrival"):
        Geometry(**{**ok, "T": 1.0})


@pytest.mark.parametrize("name", ["z_min", "z_max", "z_s", "z_r", "T", "rho",
                                  "c_min", "c_max"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_geometry_rejects_nonfinite_fields(name, value):
    ok = dict(z_min=0.0, z_max=1.0, z_s=0.3, z_r=0.8, T=1.5, rho=1.0,
              c_min=0.5, c_max=2.0)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        Geometry(**{**ok, name: value})


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


def test_gauss_legendre_literals_are_leggauss_bit_for_bit():
    # the table's 10-point rule is written out so that no process imports
    # numpy.polynomial; leggauss(10) mirrors its nodes and weights exactly
    x, wx = np.polynomial.legendre.leggauss(10)
    assert x[5:].tobytes() == np.array(acoustics._GL_NODES).tobytes()
    assert wx[5:].tobytes() == np.array(acoustics._GL_WEIGHTS).tobytes()
    assert x[:5].tobytes() == (-x[:4:-1]).tobytes()
    assert wx[:5].tobytes() == wx[:4:-1].tobytes()


def test_antiderivative_table_build_holds_one_table():
    # two arrays of 2^12 + 1 doubles; the build samples the bump one Gauss
    # point at a time and traced 0.28 MiB, and imports nothing
    acoustics._bump_antiderivative_table.cache_clear()
    tracemalloc.start()
    try:
        values, slopes = acoustics._bump_antiderivative_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.nbytes + slopes.nbytes == 2 * (2**12 + 1) * 8
    assert peak < 0.5 * 2**20


# the ends of the support, the smallest subnormal, the doubles next to 0.5 and
# 1, the values that are not numbers, s where the bump is subnormal or just
# underflows (1/(s(1 - s)) from 710 to 746, at either end of the support),
# and s where (1 - s) s overflows (|s| >= 1.5e154) or just does not
SPECIAL_S = [0.0, -0.0, 5e-324, -5e-324, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0,
             1.0 + 2.0**-52, math.nan, math.inf, -math.inf,
             1 / 745, 1 / 743, 1 / 725, 1 / 709, 1 - 1 / 745, 1 - 1 / 743,
             1 - 1 / 725, 1 - 1 / 709,
             1.3e154, -1.3e154, 1.5e154, -1.5e154, 1e300, -1e300]

# the largest |W - oracle| over the panel midpoints and 4,000 uniform s
# measured 7.9e-15; the trapezoid table on 2^20 panels read 1.5e-12, linear
# interpolation on this table 5.9e-8 and slopes taken one node along 4.5e-8
_W_TOLERANCE = 1e-14


@pytest.mark.parametrize("s, tol", [
    # at the nodes W is the compensated sum alone: 1.1e-16 measured, 1 ulp of
    # W(1), against 1.6e-15 for a plain cumsum
    (np.arange(2**12 + 1) * 2.0**-12, 2.5e-16),
    ((np.arange(2**12) + 0.5) * 2.0**-12, _W_TOLERANCE),
    (np.random.default_rng(7).random(4000), _W_TOLERANCE),
], ids=["nodes", "midpoints", "uniform"])
def test_antiderivative_matches_a_finer_quadrature(s, tol):
    err = np.abs(acoustics._bump_antiderivative(s) - reference_bump_antiderivative(s))
    assert err.max() <= tol


def test_antiderivative_is_the_hermite_formula_bit_for_bit():
    # evaluated in place, in the formula's own order of operations
    values, slopes = acoustics._bump_antiderivative_table()
    s = np.random.default_rng(5).random(20000)
    x = s * 2**12
    j = x.astype(np.intp)
    t = x - j
    f0, d0, d1 = values[j], slopes[j], slopes[j + 1]
    rise = values[j + 1] - f0
    a = 3.0 * rise - 2.0 * d0 - d1
    b = d0 + d1 - 2.0 * rise
    expected = f0 + t * (d0 + t * (a + t * b))
    assert acoustics._bump_antiderivative(s).tobytes() == expected.tobytes()


def test_antiderivative_holds_few_window_arrays():
    # 20,000 s in [0, 1) traced 8.13 times their bytes: the output, the
    # inside mask and at most seven arrays of the window at once; a fresh
    # array for each step of the formula traced 12.1 times
    s = np.random.default_rng(3).random(20000)
    acoustics._bump_antiderivative_table()
    tracemalloc.start()
    try:
        acoustics._bump_antiderivative(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * s.nbytes


def test_antiderivative_is_exact_on_the_flat_panels():
    # the bump underflows on the first and last five panels of width 2^-12, so
    # W there is exactly +0.0 and exactly W(1), the value every s >= 1 reads
    values, slopes = acoustics._bump_antiderivative_table()
    w1 = values[-1]
    assert not np.any(values[:6]) and np.all(values[-6:] == w1)
    assert not np.any(slopes[:6]) and not np.any(slopes[-6:])
    edges = np.arange(6) * 2.0**-12
    head = np.concatenate([np.random.default_rng(11).uniform(0.0, 5 * 2.0**-12, 4000),
                           edges[:-1], np.nextafter(edges[1:], 0.0)])
    got = acoustics._bump_antiderivative(head)
    assert np.all(got == 0.0) and not np.any(np.signbit(got))
    assert np.all(acoustics._bump_antiderivative(1.0 - head) == w1)


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.one_of(st.floats(), st.floats(0.0, 1.0), st.sampled_from(SPECIAL_S)),
                max_size=60))
def test_antiderivative_edges_and_shapes(values):
    w1 = acoustics._bump_antiderivative_table()[0][-1]
    s = np.array(values + SPECIAL_S)
    got = acoustics._bump_antiderivative(s)
    assert got.shape == s.shape
    assert np.array_equal(np.isnan(got), np.isnan(s))
    low, high = s <= 0.0, s >= 1.0
    assert np.all(got[low] == 0.0) and not np.any(np.signbit(got[low]))
    assert np.all(got[high] == w1)
    # inside, W is within the interpolation error of [0, W(1)]: where the
    # bump rises by 40 decades over one panel the cubic dips to about -4e-300
    inside = ~(low | high | np.isnan(s))
    assert np.all((got[inside] >= -_W_TOLERANCE) & (got[inside] <= w1 + _W_TOLERANCE))
    # a 0-d input gives a 0-d output, as extension_source asks for the end
    # value W_end, and equals the batch's element bit for bit
    for i in [*range(min(4, len(values))), *range(len(values), len(s))]:
        one = acoustics._bump_antiderivative(s[i])
        assert one.shape == ()
        assert one.tobytes() == got[i].tobytes()


@pytest.fixture(scope="module")
def window_block(geo):
    """s on the (n_c, W) block of pulse windows, built the way the misfit
    kernel builds it: rows of the experiment's time windows, shifted by each
    transit time, divided by the width."""
    exp = make_experiment(geo, 1.0, Wavelet("bump", 0.02))
    c = np.linspace(geo.c_min, geo.c_max, 37)
    tau = geo.transit_time(c)
    j0, size = _window_bounds(exp.data.grid, tau, tau + exp.lam)
    t = exp._windows[0][j0, :size.max()]
    t -= tau[:, None]
    return t / exp.lam


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.one_of(st.floats(), st.floats(0.0, 1.0), st.sampled_from(SPECIAL_S)),
                max_size=60))
def test_bump_equals_masked_formula_for_every_double(window_block, values):
    s = np.array(values + SPECIAL_S)
    # the bump writes into a buffer of its own: a read-only input raises on
    # any write
    s.flags.writeable = False
    window_block.flags.writeable = False
    pairs = ((acoustics._mother_bump, reference_bump),
             (acoustics._mother_bump_deriv, reference_bump_deriv))
    for func, ref in pairs:
        got = func(s)
        assert got.tobytes() == ref(s).tobytes()
        assert np.all(np.isfinite(got))
        assert not np.any((got == 0.0) & np.signbit(got))
        block = func(window_block)
        assert block.shape == window_block.shape
        assert block.tobytes() == ref(window_block).tobytes()
        for x in values[:4] + SPECIAL_S:
            one = func(np.float64(x))
            assert one.shape == ()
            assert one.tobytes() == ref(x).tobytes()


def test_wavelet_errors_and_modes():
    with pytest.raises(ValueError, match="unknown wavelet kind"):
        Wavelet("sine", 0.02)
    with pytest.raises(ValueError, match="must be positive"):
        Wavelet("bump", 0.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_wavelet_rejects_nonfinite_width(lam):
    with pytest.raises(ValueError, match="lam must be positive and finite"):
        Wavelet("bump", lam)


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


@st.composite
def extension_cases(draw):
    """A velocity, eps, node spacing, pulse and field grid for extension_source.

    The field grid is placed so that one drawn band node's window starts on
    sample j of the grid, or within 1e-12 samples of it, and the width is m
    samples, again on the lattice or within 1e-12 samples of it.  j may be
    negative and j + m may pass the grid's end, so either end can clip that
    window; the other nodes' windows fall anywhere on or off the grid.
    """
    geo = Geometry(z_min=0.0, z_max=1.0, z_s=0.3, z_r=0.8, T=1.5, rho=1.0,
                   c_min=0.5, c_max=2.0)
    c = draw(st.floats(geo.c_min, geo.c_max))
    eps = draw(st.floats(0.02, 0.29))
    dz = draw(st.floats(0.002, 0.02))
    dt = draw(st.floats(1e-4, 5e-3))
    nudge = st.sampled_from([0.0, 1e-12, -1e-12, 3e-13, -3e-13])
    m = draw(st.integers(1, 60))
    w = Wavelet(draw(st.sampled_from(["bump", "bump_derivative"])),
                (m + draw(nudge)) * dt)
    zg = geo.space_grid(dz)
    z = zg.points()
    band = np.flatnonzero(mollifier(geo, eps, z, 1) != 0.0)
    k = band[draw(st.integers(0, band.size - 1))] if band.size else 0
    j = draw(st.integers(-70, 70))
    t0 = abs(z[k] - geo.z_s) / c - (j + draw(nudge)) * dt
    tg = TimeGrid(t0, dt, draw(st.integers(2, 1500)))
    return geo, c, w, eps, zg, tg


@settings(max_examples=150, deadline=None, database=None)
@given(extension_cases())
def test_windowed_extension_rows_equal_full_rows(case):
    # Each row is computed on its pulse window only, then zeros before it and
    # one constant after it.  Outside the window the sign of a zero can
    # differ from the full-row formula's (+0.0 where the formula gives +0.0
    # or -0.0); array_equal ignores that, and so do S's sums unless a whole
    # output sample is zero.
    geo, c, w, eps, zg, tg = case
    got = list(extension_source(geo, c, w, eps, zg, tg))
    want = extension_full_rows(geo, c, w, eps, zg, tg)
    assert [i for i, _ in got] == [i for i, _ in want]
    for (_, row), (_, ref) in zip(got, want):
        assert row.shape == (tg.n,)
        assert np.array_equal(row, ref)


@pytest.mark.parametrize("kind", ["bump", "bump_derivative"])
def test_extension_radiates_point_source_trace(geo, kind):
    # S applied to the extended source reproduces the point-source trace,
    # with error dropping by at least half under joint grid refinement
    lam = 0.04
    w = Wavelet(kind, lam)

    def rel_err(dz, dt):
        op = make_discrete_S(geo, 1.0, dz, dt)
        src = extension_source(geo, 1.0, w, 0.2, op.zgrid, op.field_tgrid)
        made = op.apply_blocks((i, row[None]) for i, row in src)
        ref = point_forward(geo, 1.0, w, op.data_tgrid)
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
