"""Discrete forward/adjoint maps, adjoint exactness, and the CG solver."""

import dataclasses
import math
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wrilab import operators
from wrilab.acoustics import (
    Geometry, Wavelet, extension_source, normal_constant, point_forward,
)
from wrilab.checks import extension_error
from wrilab.grids import TimeGrid, Trace
from wrilab.operators import (
    LinearMap, adjoint_test, cg_solve_dataspace, make_aligned_S, make_discrete_S,
)
from oracles import adjoint_sampling, splitmix64


def smooth_probe(op, center=0.75, width=0.9):
    """A field supported well inside the domain and the time record."""
    zg, tg = op.zgrid, op.field_tgrid
    z = zg.points()[:, None]
    t = tg.times()[None, :]
    bump_z = np.exp(-((z - 0.65) / 0.12) ** 2)
    u = (t - center + width / 2) / width
    bump_t = np.where((u > 0) & (u < 1), np.sin(np.pi * u) ** 2, 0.0)
    return bump_z * bump_t


def apply(op, f):
    """S f for a whole field f, passed as one block."""
    return op.apply_blocks([(0, f)]).samples


def adjoint_rows(op, e):
    """S^T e as the stack of its node rows, each copied as it is yielded."""
    return np.array([row.copy() for row in op.adjoint_rows(e)])


def interior_trace(op, c, lam=0.04):
    """A trace supported strictly inside (0, T): a clean physical arrival."""
    return point_forward(op.geo, c, Wavelet("bump", lam), op.data_tgrid)


# -- basic algebra ------------------------------------------------------------

def test_apply_zero_and_homogeneity(geo):
    op = make_discrete_S(geo, 1.0, 0.005, 0.0005)
    zero = np.zeros((op.zgrid.m, op.field_tgrid.n))
    assert np.all(apply(op, zero) == 0.0)
    assert np.all(adjoint_rows(op, np.zeros(op.data_tgrid.n)) == 0.0)
    f = smooth_probe(op)
    assert np.allclose(apply(op, 2.0 * f), 2.0 * apply(op, f),
                       rtol=1e-14, atol=1e-14)


def test_grid_mismatch_errors(geo):
    # blocks carry no grid: apply_blocks checks the node range and the shape
    op = make_discrete_S(geo, 1.0, 0.005, 0.0005)
    m, n_f = op.zgrid.m, op.field_tgrid.n
    for shape in ((1, 100), (n_f,)):
        with pytest.raises(ValueError, match=re.escape(f"field block of shape {shape}")):
            op.apply_blocks([(0, np.zeros(shape))])
    for i0, b in ((-1, 1), (m, 1), (m - 2, 3)):
        with pytest.raises(ValueError, match=f"nodes {i0} to {i0 + b - 1} are outside"):
            op.apply_blocks([(i0, np.zeros((b, n_f)))])


# -- adjoint exactness --------------------------------------------------------

@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_adjoint_test_machine_exact(geo, c):
    op = make_discrete_S(geo, c, 0.005, 0.0005)
    assert adjoint_test([op], n_probes=10, seed=0)[0] <= 1e-12


def test_adjoint_test_rejects_bad_arguments(geo, monkeypatch):
    # each is refused before a probe is drawn: a test that draws nothing
    # and reads 0.0 would pass having checked nothing
    def no_draw(state, out):
        raise AssertionError("a probe was drawn")

    monkeypatch.setattr(operators, "_random_signs", no_draw)
    op = make_discrete_S(geo, 1.0, 0.01, 0.001)
    for n in (0, -1, 2.0, True, "3", None):
        with pytest.raises(ValueError, match="n_probes must be an int >= 1"):
            adjoint_test([op], n_probes=n, seed=0)
    # the seed is the SplitMix64 state, a 64-bit word
    for seed in (-1, 2**64, 2**70, 1.0, True, False, np.int64(3), "0", None):
        with pytest.raises(ValueError, match=re.escape("seed must be an int in [0, 2^64)")):
            adjoint_test([op], n_probes=2, seed=seed)
    with pytest.raises(ValueError, match="at least one operator"):
        adjoint_test([], n_probes=2, seed=0)
    fg, dg = op.field_tgrid, op.data_tgrid
    others = {
        "z nodes": make_discrete_S(geo, 1.0, 0.02, 0.001),
        "field grid": LinearMap.from_grids(
            geo, 1.0, op.zgrid, TimeGrid(fg.t0 - fg.dt, fg.dt, fg.n + 1), dg),
        "data grid": LinearMap.from_grids(
            geo, 1.0, op.zgrid, fg, TimeGrid(dg.t0, dg.dt, dg.n - 1)),
    }
    for what, other in others.items():
        with pytest.raises(ValueError, match=f"operator 2 does not share operator 0's {what}"):
            adjoint_test([op, op, other], n_probes=2, seed=0)


def test_adjoint_statistic_scale_invariance(geo):
    op = make_discrete_S(geo, 1.0, 0.01, 0.001)
    rng = np.random.default_rng(7)
    f = rng.standard_normal((op.zgrid.m, op.field_tgrid.n))
    e = rng.standard_normal(op.data_tgrid.n)

    def stat(field, trace):
        dt = op.data_tgrid.dt
        sf = apply(op, field)
        lhs = dt * float(np.dot(sf, trace))
        g = adjoint_rows(op, trace)
        rhs = op.z_weight * op.field_tgrid.dt * float(np.dot(field.ravel(), g.ravel()))
        scale = (np.sqrt(dt) * np.linalg.norm(sf)
                 * np.sqrt(dt) * np.linalg.norm(trace))
        return abs(lhs - rhs) / (scale + np.finfo(float).tiny)

    base = stat(f, e)
    scaled = stat(10.0 * f, 3.0 * e)
    assert abs(base - scaled) <= 1e-12


def _doubled(op):
    """op with its forward map doubled, in the scale that apply_blocks and
    adjoint_test share."""
    bad = dataclasses.replace(op)
    bad._trace = lambda out: Trace(op.data_tgrid, 2.0 * op._trace(out).samples)
    return bad


def _rolled(op):
    """op with every row of its adjoint rolled one sample later."""
    bad = dataclasses.replace(op)
    bad.adjoint_rows = lambda e: (np.roll(row, 1) for row in op.adjoint_rows(e))
    return bad


def test_mismatched_pair_is_detected(geo):
    op = make_discrete_S(geo, 1.0, 0.01, 0.001)
    f = smooth_probe(op)
    assert np.array_equal(apply(_doubled(op), f), 2.0 * apply(op, f))
    assert adjoint_test([_doubled(op)], n_probes=10, seed=0)[0] > 1e-6


def test_shifted_adjoint_row_is_detected(geo):
    op = make_discrete_S(geo, 1.0, 0.01, 0.001)
    assert adjoint_test([_rolled(op)], n_probes=10, seed=0)[0] > 1e-6


# One map touching one field sample past its node's window, the other not.
# Only whole probe rows see it: a probe drawn on the windows alone would be
# zero on that sample, so these pin why adjoint_test draws every sample.

_SCATTER, _GATHER = operators._scatter, operators._gather


def _scatter_past(dst, th, vals):
    _SCATTER(dst, th, vals)
    end = len(vals) + (th > 0.0)
    if len(vals) and end < len(dst):
        dst[end] = vals[-1]


def _gather_past(src, th, n):
    out = np.array(_GATHER(src, th, n))
    end = n + (th > 0.0)
    if n and end < len(src):
        out[-1] += src[end]
    return out


# adjoint_rows scatters a (lo, hi, theta) key's window once while the key
# holds a slot and lends it to the key's later rows, so a stray sample lands
# in fewer rows at c = 2, where the keys repeat most, and stays in the slot
# until another key's window covers it; it is caught at every velocity
@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_scatter_one_past_its_window_is_detected(geo, monkeypatch, c):
    op = make_discrete_S(geo, c, 0.01, 0.001)
    assert adjoint_test([op], n_probes=10, seed=0)[0] <= 1e-12
    monkeypatch.setattr(operators, "_scatter", _scatter_past)
    assert adjoint_test([op], n_probes=10, seed=0)[0] > 1e-6


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_gather_one_past_its_window_is_detected(geo, monkeypatch, c):
    op = make_discrete_S(geo, c, 0.01, 0.001)
    monkeypatch.setattr(operators, "_gather", _gather_past)
    assert adjoint_test([op], n_probes=10, seed=0)[0] > 1e-6


def test_swapped_gather_taps_are_detected(geo, monkeypatch):
    # the probes are signs of one magnitude, yet they still tell the two
    # interpolation weights apart: reading 1 - th where th belongs is caught
    gather = operators._gather

    def swapped(src, th, n):
        return gather(src, 1.0 - th if th > 0.0 else th, n)

    op = make_discrete_S(geo, 1.0, 0.01, 0.001)
    assert np.count_nonzero(op._frac > 0.0) == 27
    monkeypatch.setattr(operators, "_gather", swapped)
    assert adjoint_test([op], n_probes=10, seed=0)[0] > 1e-6


def _faulty_in(monkeypatch, op, method, helper, fault):
    """A copy of op whose method calls fault in place of operators.<helper>,
    also while the rows of a generator it returns are made; every other
    operator's calls still reach the real helper."""
    real = getattr(operators, helper)
    inside = []
    monkeypatch.setattr(operators, helper,
                        lambda *args: (fault if inside else real)(*args))
    bad = dataclasses.replace(op)
    own = getattr(bad, method)

    def flagged(step, *args):
        inside.append(True)
        try:
            return step(*args)
        finally:
            inside.pop()

    def each_row(rows):
        # a generator's body runs at each next(), after the call returned
        while True:
            try:
                row = flagged(next, rows)
            except StopIteration:
                return
            yield row

    def faulty(*args):
        out = flagged(own, *args)
        return each_row(out) if isinstance(out, types.GeneratorType) else out

    setattr(bad, method, faulty)
    return bad


FAULTS = {
    "doubled_forward": lambda op, mp: _doubled(op),
    "rolled_adjoint_rows": lambda op, mp: _rolled(op),
    "scatter_past_window": lambda op, mp: _faulty_in(
        mp, op, "adjoint_rows", "_scatter", _scatter_past),
    "gather_past_window": lambda op, mp: _faulty_in(
        mp, op, "_accumulate", "_gather", _gather_past),
}


@pytest.fixture(scope="module")
def three_ops(geo):
    """Three velocities on one grid set, and each one's mismatch alone."""
    ops = [make_discrete_S(geo, c, 0.01, 0.001) for c in (0.5, 1.0, 2.0)]
    return ops, [adjoint_test([op], n_probes=10, seed=0)[0] for op in ops]


@pytest.mark.parametrize("bad", [0, 1, 2])
@pytest.mark.parametrize("fault", FAULTS)
def test_a_faulty_operator_leaves_the_others_exact(three_ops, monkeypatch, fault, bad):
    # the operators share the probe block: one whose rows of S^T e carry
    # stray samples, or whose slots keep them, must not move another's
    # mismatch
    ops, alone = list(three_ops[0]), three_ops[1]
    ops[bad] = FAULTS[fault](ops[bad], monkeypatch)
    shared = adjoint_test(ops, n_probes=10, seed=0)
    assert shared[bad] > 1e-6
    assert [v for j, v in enumerate(shared) if j != bad] == alone[:bad] + alone[bad + 1:]


def test_transpose_and_sampling_adjoints_agree(geo):
    # on a shared time lattice the two assembly routes coincide identically
    for dz, dt in ((0.0025, 0.001), (0.00125, 0.0005)):
        op = make_discrete_S(geo, 1.0, dz, dt)
        d = interior_trace(op, 1.0)
        a = adjoint_rows(op, d.samples)
        b = adjoint_sampling(op, d).values
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(a)


def test_normal_operator_identity_generic_grid(geo):
    # S S^T acts on clean arrivals as multiplication by extent / (4 c^2)
    op = make_discrete_S(geo, 1.0, 0.0025, 0.001)
    e = interior_trace(op, 1.0)
    k = normal_constant(geo, 1.0)
    out = op.normal_apply(e.samples)
    rel = np.linalg.norm(out - k * e.samples) / np.linalg.norm(k * e.samples)
    assert rel < 2e-2


# -- aligned discretization ---------------------------------------------------

@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_aligned_normal_identity_machine_exact(geo, c):
    tg = geo.data_grid(0.001)
    op = make_aligned_S(geo, c, tg, 0.005)
    assert not op._frac.any()
    assert adjoint_test([op], n_probes=5, seed=1)[0] <= 1e-14
    e = interior_trace(op, c)
    k = normal_constant(geo, c)
    out = op.normal_apply(e.samples)
    assert np.linalg.norm(out - k * e.samples) <= 1e-12 * np.linalg.norm(e.samples)


@settings(max_examples=25, deadline=None, database=None)
@given(c=st.floats(0.5, 2.0), dz_hint=st.floats(0.004, 0.05),
       dt=st.floats(0.0005, 0.004))
def test_aligned_construction_properties(geo, c, dz_hint, dt):
    op = make_aligned_S(geo, c, geo.data_grid(dt), dz_hint)
    assert not op._frac.any()
    # the whole-sample shifts are the float positions the generic
    # construction computes on the same grids, rounded
    generic = LinearMap.from_grids(geo, c, op.zgrid, op.field_tgrid, op.data_tgrid)
    pos = generic._shift + generic._frac
    assert np.array_equal(op._shift, np.round(pos))
    assert np.all(np.abs(op._shift - pos) <= 1e-9)
    assert adjoint_test([op], n_probes=2, seed=0)[0] <= 1e-12
    e = interior_trace(op, c).samples
    out = op.normal_apply(e)
    k = normal_constant(geo, c)
    assert np.linalg.norm(out - k * e) <= 1e-14 * np.linalg.norm(k * e)


def test_grids_must_share_dt(geo):
    with pytest.raises(ValueError, match="share dt"):
        LinearMap.from_grids(geo, 1.0, geo.space_grid(0.01),
                             geo.field_time_grid(0.001), geo.data_grid(0.002))


# -- the shift table against the per-sample loop ------------------------------

# The per-sample gather/scatter that the shift table replaced, kept as the
# oracle: node i reads field position j * step + offset_i, with step = 1,
# recomputed sample by sample on every call.

def _oracle_gather(row, offset, nd):
    nf = len(row)
    pos = 1.0 * np.arange(nd) + offset
    out = np.zeros(nd)
    inside = (pos >= 0.0) & (pos <= nf - 1)
    p = pos[inside]
    k = np.minimum(np.floor(p).astype(int), nf - 2)
    th = p - k
    out[inside] = (1.0 - th) * row[k] + th * row[k + 1]
    return out


def _oracle_scatter(e, offset, nf):
    pos = 1.0 * np.arange(len(e)) + offset
    inside = (pos >= 0.0) & (pos <= nf - 1)
    p = pos[inside]
    k = np.minimum(np.floor(p).astype(int), nf - 2)
    th = p - k
    ei = e[inside]
    row = np.bincount(k, weights=(1.0 - th) * ei, minlength=nf)
    row += np.bincount(k + 1, weights=th * ei, minlength=nf)
    return row


def _oracle_maps(op, offsets, f, e):
    """(S f, S^T e, S S^T e) by the per-sample loop at the given offsets."""
    nd, nf, m = op.data_tgrid.n, op.field_tgrid.n, op.zgrid.m
    out = np.zeros(nd)
    for i in range(m):
        out += _oracle_gather(f[i], offsets[i], nd)
    sf = op.z_weight / (2.0 * op.c) * out
    factor = op.data_tgrid.dt / (2.0 * op.c * op.field_tgrid.dt)
    ste = np.empty((m, nf))
    for i in range(m):
        ste[i] = factor * _oracle_scatter(e, offsets[i], nf)
    gain = op.z_weight * op.data_tgrid.dt / (4.0 * op.c * op.c * op.field_tgrid.dt)
    acc = 0.0 * e
    for i in range(m):
        acc = acc + gain * _oracle_gather(_oracle_scatter(e, offsets[i], nf),
                                          offsets[i], nd)
    return sf, ste, acc


def _maps(op, f, e):
    return apply(op, f), adjoint_rows(op, e), op.normal_apply(e)


def _probes(op):
    rng = np.random.default_rng(0)
    return (rng.uniform(-1.0, 1.0, (op.zgrid.m, op.field_tgrid.n)),
            rng.uniform(-1.0, 1.0, op.data_tgrid.n))


@st.composite
def clipped_operators(draw):
    """A generic operator on a drawn geometry, velocity and grid pair.

    The field grid starts and ends anywhere from before the earliest read to
    past the latest, so some nodes' rows are clipped partly or fully.
    """
    z_max = draw(st.floats(0.5, 2.0))
    z_s = z_max * draw(st.floats(0.05, 0.95))
    z_r = z_max * draw(st.floats(0.0, 1.0))
    c_min = draw(st.floats(0.3, 1.0))
    c_max = c_min * draw(st.floats(1.0, 4.0, exclude_min=True))
    assume(z_s != z_r)
    geo = Geometry(0.0, z_max, z_s, z_r, abs(z_s - z_r) / c_min
                   + draw(st.floats(0.2, 1.0)), 1.0, c_min, c_max)
    c = c_min + (c_max - c_min) * draw(st.floats(0.0, 1.0))
    dt = draw(st.floats(0.002, 0.02))
    full = geo.field_time_grid(dt)
    start = int(round(full.n * draw(st.floats(-0.1, 0.9))))
    n = max(2, int(round(full.n * draw(st.floats(0.0, 1.1)))))
    field_tgrid = TimeGrid(full.t0 + start * dt, dt, n)
    zgrid = geo.space_grid(draw(st.floats(0.01, 0.1)))
    return LinearMap.from_grids(geo, c, zgrid, field_tgrid, geo.data_grid(dt))


@settings(max_examples=100, deadline=None, database=None)
@given(op=clipped_operators())
def test_shift_table_matches_per_sample_loop(op):
    geo, zg, fg, dg = op.geo, op.zgrid, op.field_tgrid, op.data_tgrid
    offsets = (dg.t0 - np.abs(geo.z_r - zg.points()) / op.c - fg.t0) / fg.dt
    # a fraction within n_f * 2^-52 above zero: the loop's rounding of
    # j + offset lands a read just past the grid on its last sample, where
    # the table zero-extends (test_read_past_the_last_sample_is_zero)
    assume(not np.any((op._frac > 0.0) & (op._frac < 1e-9)))
    f, e = _probes(op)
    for new, old in zip(_maps(op, f, e), _oracle_maps(op, offsets, f, e)):
        assert np.linalg.norm(new - old) <= 1e-12 * np.linalg.norm(old)


@settings(max_examples=25, deadline=None, database=None)
@given(c=st.floats(0.5, 2.0), dz_hint=st.floats(0.004, 0.05),
       dt=st.floats(0.0005, 0.004))
def test_aligned_shift_table_equals_per_sample_loop(geo, c, dz_hint, dt):
    op = make_aligned_S(geo, c, geo.data_grid(dt), dz_hint)
    f, e = _probes(op)
    for new, old in zip(_maps(op, f, e),
                        _oracle_maps(op, op._shift.astype(float), f, e)):
        assert np.array_equal(new, old)


@settings(max_examples=50, deadline=None, database=None)
@given(op=clipped_operators(), seed=st.integers(0, 2**32 - 1))
def test_streamed_rows_properties(op, seed):
    rng = np.random.default_rng(seed)
    f = rng.uniform(-1.0, 1.0, (op.zgrid.m, op.field_tgrid.n))
    # an absent node is a zero row, bit for bit, however the field is blocked
    zeroed = f.copy()
    zeroed[::2] = 0.0
    odd = [(i, f[i:i + 1]) for i in range(1, op.zgrid.m, 2)]
    assert np.array_equal(op.apply_blocks(odd).samples, apply(op, zeroed))
    threes = [(i, f[i:i + 3]) for i in range(0, op.zgrid.m, 3)]
    assert np.array_equal(op.apply_blocks(threes).samples, apply(op, f))
    # the streamed adjoint test holds on clipped rows
    assert adjoint_test([op], n_probes=2, seed=seed)[0] <= 1e-12


# -- the block forms against the row forms they replaced -----------------------

# The row forms and the row-by-row adjoint test, kept as the oracle: each node
# gathers into, or scatters from, a zeroed row of its own, its window taken
# from the shift table directly, and each probe row, and the trace e, is its
# own draw of random signs, dotted with np.dot.  A row of n signs takes the
# next ceil(n/64) words of SplitMix64 (oracles.splitmix64, seeded with the
# test's seed), and sample j is +1.0 where bit j % 64 of word j // 64 is
# set, -1.0 where it is clear.

def _row_taps(op, i):
    k, th = int(op._shift[i]), float(op._frac[i])
    lo, hi = max(0, -k), min(op.data_tgrid.n, op.field_tgrid.n - k - (th > 0.0))
    return lo, max(lo, hi), k, th


def _row_gather(op, row, i):
    lo, hi, k, th = _row_taps(op, i)
    out = np.zeros(op.data_tgrid.n)
    a = row[lo + k:hi + k]
    out[lo:hi] = a if th == 0.0 else (1.0 - th) * a + th * row[lo + k + 1:hi + k + 1]
    return out


def _row_scatter(op, e, i):
    lo, hi, k, th = _row_taps(op, i)
    row = np.zeros(op.field_tgrid.n)
    ei = e[lo:hi]
    if th == 0.0:
        row[lo + k:hi + k] = ei
    else:
        row[lo + k:hi + k] = (1.0 - th) * ei
        row[lo + k + 1:hi + k + 1] += th * ei
    return row


def _row_maps(op, f, e):
    """(S f, S^T e, S S^T e) by the row forms."""
    m = op.zgrid.m
    out = np.zeros(op.data_tgrid.n)
    for i in range(m):
        out += _row_gather(op, f[i], i)
    factor = op.data_tgrid.dt / (2.0 * op.c * op.field_tgrid.dt)
    ste = np.array([factor * _row_scatter(op, e, i) for i in range(m)])
    gain = op.z_weight * op.data_tgrid.dt / (4.0 * op.c * op.c * op.field_tgrid.dt)
    acc = 0.0 * e
    for i in range(m):
        acc = acc + gain * _row_gather(op, _row_scatter(op, e, i), i)
    return op.z_weight / (2.0 * op.c) * out, ste, acc


def _row_signs(stream, n):
    """One probe row: the next ceil(n / 64) words of the stream, sample j
    +1.0 where bit j % 64 of word j // 64 is set and -1.0 where it is clear."""
    words = np.array([next(stream) for _ in range(-(-n // 64))], dtype=np.uint64)
    j = np.arange(n)
    bits = (words[j // 64] >> (j % 64).astype(np.uint64)) & np.uint64(1)
    return np.where(bits == 1, 1.0, -1.0)


def test_splitmix64_oracle_gives_the_reference_words():
    # the first words of SplitMix64 from seed 0, as its reference C code gives
    stream = splitmix64(0)
    assert [next(stream) for _ in range(3)] == [
        0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]


def _row_adjoint_test(op, n_probes, seed):
    stream = splitmix64(seed)
    dt = op.data_tgrid.dt
    factor = dt / (2.0 * op.c * op.field_tgrid.dt)
    worst = 0.0
    for _ in range(n_probes):
        e = _row_signs(stream, op.data_tgrid.n)
        out = np.zeros(op.data_tgrid.n)
        row_dots = []
        for i in range(op.zgrid.m):
            row = _row_signs(stream, op.field_tgrid.n)
            row_dots.append(float(np.dot(row, factor * _row_scatter(op, e, i))))
            out += _row_gather(op, row, i)
        sf = op.z_weight / (2.0 * op.c) * out
        lhs = dt * float(np.dot(sf, e))
        rhs = op.z_weight * op.field_tgrid.dt * math.fsum(row_dots)
        norm_sf = np.sqrt(dt * float(np.dot(sf, sf)))
        norm_e = np.sqrt(dt * float(np.dot(e, e)))
        denom = norm_sf * norm_e + np.finfo(float).tiny
        worst = max(worst, abs(lhs - rhs) / denom)
    return worst


@settings(max_examples=50, deadline=None, database=None)
@given(op=clipped_operators(), seed=st.integers(0, 2**64 - 1))
def test_block_forms_equal_the_row_forms(op, seed):
    # the drawn operators have 5 to 200 nodes: fewer than one probe block,
    # and counts that leave a short last block
    assert adjoint_test([op], n_probes=2, seed=seed) == [_row_adjoint_test(op, 2, seed)]
    f, e = _probes(op)
    # equal under ==, not bit for bit: a sample no node's window reaches
    # keeps the sign of (alpha^2) e in normal_apply, where the row form
    # added +0.0 and so turned a -0.0 into +0.0
    for new, old in zip(_maps(op, f, e), _row_maps(op, f, e)):
        assert np.array_equal(new, old)


@pytest.fixture(scope="module")
def shared_key_ops(geo):
    """cfg0's three verify operators and one aligned operator, whose nodes
    repeat their (lo, hi, theta) keys: 26, 5, 2 and 1 distinct keys."""
    ops = [make_discrete_S(geo, c, 0.0025, 0.00025) for c in (0.5, 1.0, 2.0)]
    return ops + [make_aligned_S(geo, 1.0, geo.data_grid(0.00025), 0.0025)]


def _keys(op):
    return {(lo, hi, th) for lo, hi, _, th in op._taps}


@pytest.mark.parametrize("j", range(4), ids=["c0.5", "c1", "c2", "aligned"])
def test_shared_windows_equal_the_row_forms(shared_key_ops, j):
    # hypothesis-drawn operators seldom repeat a key; these do on most rows
    op = shared_key_ops[j]
    assert len(_keys(op)) == (26, 5, 2, 1)[j]
    e = np.random.default_rng(j).uniform(-1.0, 1.0, op.data_tgrid.n)
    factor = op.data_tgrid.dt / (2.0 * op.c * op.field_tgrid.dt)
    for i, row in enumerate(adjoint_rows(op, e)):
        assert np.array_equal(row, factor * _row_scatter(op, e, i))
    gain = op.z_weight * op.data_tgrid.dt / (4.0 * op.c * op.c * op.field_tgrid.dt)
    acc = 0.0 * e
    for i in range(op.zgrid.m):
        acc = acc + gain * _row_gather(op, _row_scatter(op, e, i), i)
    assert np.array_equal(op.normal_apply(e), acc)
    assert adjoint_test([op], n_probes=1, seed=j)[0].hex() == \
        _row_adjoint_test(op, 1, j).hex()


def test_adjoint_rows_scatter_once_per_slot_fill(shared_key_ops, monkeypatch):
    # with 2 slots cfg0's three verify operators scatter 64, 45 and 2 windows
    # per probe, not 400 each; at c = 2 that is one per key
    ops = shared_key_ops[:3]
    assert operators._ADJOINT_SLOTS == 2
    scatters = []
    monkeypatch.setattr(operators, "_scatter",
                        lambda *args: scatters.append(_SCATTER(*args)))
    counts = []
    for op in ops:
        scatters.clear()
        for _ in op.adjoint_rows(np.ones(op.data_tgrid.n)):
            pass
        counts.append(len(scatters))
    assert counts == [64, 45, 2] and counts[2] == len(_keys(ops[2]))
    scatters.clear()
    adjoint_test(ops, n_probes=2, seed=0)
    assert len(scatters) == 2 * sum(counts)


@pytest.mark.parametrize("slots", [1, 2, 3])
def test_adjoint_rows_leave_no_stale_sample(geo, monkeypatch, slots):
    # a clipped grid (10 data, 20 field samples) whose windows shrink from
    # one node to the next: slots + 1 keys, so each one is evicted and comes
    # back into a slot a longer or shorter window held; then one key's window
    # at three field offsets, a row clipped at the field's start, and a node
    # that reads nothing and starts past the field
    monkeypatch.setattr(operators, "_ADJOINT_SLOTS", slots)
    cycle = list(range(10, 11 + slots))
    shifts = cycle + cycle + [10, 5, 0, -3, -3, 25]
    fracs = [0.25 * (k % 2) for k in cycle] * 2 + [0.0] * 6
    m = len(shifts)
    zgrid = geo.space_grid(geo.extent / m)
    assert zgrid.m == m
    op = LinearMap(geo, 1.0, zgrid, TimeGrid(0.0, 0.1, 20), TimeGrid(0.0, 0.1, 10),
                   zgrid.dz, np.array(shifts), np.array(fracs))
    assert [hi - lo for lo, hi, _, _ in op._taps[:slots + 1]] == \
        [10 - j - (j % 2) for j in range(slots + 1)]
    with pytest.raises(ValueError, match="trace of shape \\(9,\\) does not match"):
        op.adjoint_rows(np.zeros(9))
    scatters = []
    monkeypatch.setattr(operators, "_scatter",
                        lambda *args: scatters.append(_SCATTER(*args)))
    e = np.random.default_rng(slots).uniform(-1.0, 1.0, 10)
    factor = op.data_tgrid.dt / (2.0 * op.c * op.field_tgrid.dt)
    seen = 0
    for i, row in enumerate(op.adjoint_rows(e)):
        assert row.shape == (20,)
        assert row.tobytes() == (factor * _row_scatter(op, e, i)).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 1.0
        seen += 1
    assert seen == m
    # each key of the cycle was scattered twice; in the tail 10, 5 and 0
    # share one key, -3 and -3 another, and 25 reads nothing
    assert len(scatters) == 2 * (slots + 1) + 3


@pytest.mark.parametrize("m", [7, 8, 9, 10, 15, 16, 17, 33])
def test_adjoint_test_equals_the_row_test_at_block_edges(geo, m):
    # below, at and just past one and two probe blocks of 8 rows
    op = make_discrete_S(geo, 1.3, geo.extent / m, 0.002)
    assert op.zgrid.m == m
    assert adjoint_test([op], n_probes=3, seed=5) == [_row_adjoint_test(op, 3, 5)]


@st.composite
def operator_sets(draw):
    """One to four generic operators at drawn velocities on one drawn
    geometry and one set of grids, with node counts below, at and past one
    and two probe blocks."""
    op = draw(clipped_operators())
    geo = op.geo
    zgrid = geo.space_grid(geo.extent / draw(st.integers(2, 3 * operators._PROBE_BLOCK)))
    cs = draw(st.lists(st.floats(geo.c_min, geo.c_max), min_size=1, max_size=4))
    return [LinearMap.from_grids(geo, c, zgrid, op.field_tgrid, op.data_tgrid)
            for c in cs]


@settings(max_examples=50, deadline=None, database=None)
@given(ops=operator_sets(), seed=st.integers(0, 2**64 - 1))
def test_shared_probes_equal_each_operator_alone(ops, seed):
    shared = adjoint_test(ops, n_probes=2, seed=seed)
    assert [v.hex() for v in shared] == [_row_adjoint_test(op, 2, seed).hex()
                                         for op in ops]


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_cfg0_shared_adjoint_test_equals_one_at_a_time(geo, seed):
    # verify's three adjoint_c* rows, one call against three
    ops = [make_discrete_S(geo, c, 0.0025, 0.00025) for c in (0.5, 1.0, 2.0)]
    shared = adjoint_test(ops, n_probes=10, seed=seed)
    assert [v.hex() for v in shared] == [adjoint_test([op], n_probes=10, seed=seed)[0].hex()
                                         for op in ops]
    assert max(shared) <= 1e-14


def _traced_peak(fn, *args) -> int:
    """Peak bytes that numpy and Python allocate during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _three_op_peak(geo, c_mid) -> int:
    """Traced peak of one adjoint_test call on cfg0's grids at c = 0.5,
    c_mid and 2.  The probes come from numpy's core alone, so the call
    imports nothing that the trace would count."""
    ops = [make_discrete_S(geo, c, 0.0025, 0.00025) for c in (0.5, c_mid, 2.0)]
    assert ops[0].zgrid.m * ops[0].field_tgrid.n * 8 > 2**25
    return _traced_peak(adjoint_test, ops, 2, 0)


# verify's three operators and a set whose middle operator has no repeated
# key both measured 2.00 MiB with 2 slots per operator; the 0.25 MiB margin
# is less than one more slot per operator
_ADJOINT_TEST_PEAK = 2.25 * 2**20


def test_adjoint_test_holds_no_field(geo):
    # a cfg0 probe field is 400 x 12401 samples, 38 MiB; verify tests its
    # three velocities in one call
    assert _three_op_peak(geo, 1.0) < _ADJOINT_TEST_PEAK


def test_adjoint_test_memory_does_not_grow_with_keys(geo):
    # all 361 keys at c = 0.9731 are distinct: windows held per key would
    # pass 16 MiB, and the call holds the same slots as at c = 1
    assert len(_keys(make_discrete_S(geo, 0.9731, 0.0025, 0.00025))) == 361
    assert _three_op_peak(geo, 0.9731) < _ADJOINT_TEST_PEAK


def test_extension_error_holds_no_field(geo):
    # the refined cfg0 extension field is 800 x 24801 samples, 151 MiB.  The
    # band's windows are evaluated acoustics._EXTENSION_BLOCK rows at a time:
    # 16 rows read about 1.08 MiB, one block of the whole band 4.2 MiB.  The
    # antiderivative table (64 KiB, kept for the process) may be built inside
    # the trace: its nodes are literals, so its first build imports nothing
    # (1.21 MiB in all with a cold table in a fresh process)
    w = Wavelet("bump", 0.04)
    assert _traced_peak(extension_error, geo, 1.0, w, 0.2, 0.00125, 0.000125) < 1.5 * 2**20


def test_extension_checks_evaluate_pulse_windows_only(geo, wavelet_samples):
    # cfg0's four extension checks (two kinds, two resolutions): each band row
    # evaluates its pulse window, about lam/dt + 1 samples plus a few of
    # slack, and never the whole field row (the full rows made 9.9M samples)
    lam, eps = 0.04, 0.2
    bound = reference = 0
    for kind in ("bump", "bump_derivative"):
        for dz, dt in ((0.0025, 0.00025), (0.00125, 0.000125)):
            extension_error(geo, 1.0, Wavelet(kind, lam), eps, dz, dt)
            r = np.abs(geo.space_grid(dz).points() - geo.z_s)
            rows = np.count_nonzero((r > eps / 2.0) & (r < eps))
            bound += rows * (lam / dt + 8.0)
            reference += geo.data_grid(dt).n
    assert wavelet_samples["antiderivative"] <= bound
    # value also samples each check's point-source reference trace
    assert wavelet_samples["value"] <= bound + reference


def test_read_past_the_last_sample_is_zero(geo):
    # node 0 reads position j + 10 + 1e-15: its last data sample would read
    # just past field sample 19, the last one, so it reads nothing there
    zgrid = geo.space_grid(0.5)
    op = LinearMap(geo, 1.0, zgrid, TimeGrid(0.0, 0.1, 20), TimeGrid(0.0, 0.1, 10),
                   zgrid.dz, np.array([10, 0]), np.array([1e-15, 0.0]))
    out = op.apply_blocks([(0, np.ones((1, 20)))]).samples / (op.z_weight / (2.0 * op.c))
    assert np.allclose(out[:9], 1.0, rtol=0.0, atol=1e-14) and out[9] == 0.0


@pytest.mark.parametrize("c", [float("nan"), 0.0])
@pytest.mark.parametrize("build", [
    lambda geo, c: make_discrete_S(geo, c, 0.01, 0.001),
    lambda geo, c: make_aligned_S(geo, c, geo.data_grid(0.001), 0.01),
    lambda geo, c: extension_source(geo, c, Wavelet("bump", 0.04), 0.2,
                                    geo.space_grid(0.01), geo.field_time_grid(0.001)),
], ids=["discrete_S", "aligned_S", "extension_source"])
def test_nonpositive_velocity_rejected(geo, build, c):
    with pytest.raises(ValueError, match="velocity must be positive"):
        build(geo, c)


# -- conjugate gradient -------------------------------------------------------

def test_cg_zero_rhs(geo):
    op = make_discrete_S(geo, 1.0, 0.005, 0.001)
    rep = cg_solve_dataspace(op, 0.25, Trace(op.data_tgrid, np.zeros(op.data_tgrid.n)))
    assert rep.iterations == 0
    assert rep.converged
    assert np.all(rep.solution.samples == 0.0)


def test_cg_errors(geo):
    op = make_discrete_S(geo, 1.0, 0.005, 0.001)
    r = interior_trace(op, 1.0)
    for alpha in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="alpha must be positive"):
            cg_solve_dataspace(op, alpha, r)
    with pytest.raises(ValueError, match="rhs grid does not match"):
        cg_solve_dataspace(op, 0.25, Trace(TimeGrid(0.0, 0.002, 100), np.zeros(100)))


def test_cg_generic_grid_converges_to_closed_form(geo):
    op = make_discrete_S(geo, 1.0, 0.0025, 0.001)
    r = interior_trace(op, 1.0)
    rep = cg_solve_dataspace(op, 0.25, r)
    assert rep.converged
    assert rep.iterations <= 25
    assert rep.final_relative_residual <= 1e-10
    k = normal_constant(geo, 1.0)
    ref = r.samples / (k + 0.25 ** 2)
    rel = np.linalg.norm(rep.solution.samples - ref) / np.linalg.norm(ref)
    assert rel < 2e-2


def test_cg_aligned_grid_one_iteration(geo):
    tg = geo.data_grid(0.001)
    op = make_aligned_S(geo, 1.0, tg, 0.005)
    r = interior_trace(op, 1.0)
    rep = cg_solve_dataspace(op, 0.25, r)
    assert rep.converged
    assert rep.iterations == 1
    ref = r.samples / (normal_constant(geo, 1.0) + 0.25 ** 2)
    assert np.linalg.norm(rep.solution.samples - ref) <= 1e-12 * np.linalg.norm(ref)


def test_cg_solution_norm_decreases_with_alpha(geo):
    op = make_discrete_S(geo, 1.0, 0.0025, 0.001)
    r = interior_trace(op, 1.0)
    norms = [np.linalg.norm(cg_solve_dataspace(op, a, r).solution.samples)
             for a in (0.1, 0.25, 0.5, 1.0)]
    assert all(n1 > n2 for n1, n2 in zip(norms, norms[1:]))
