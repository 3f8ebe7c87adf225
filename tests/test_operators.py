"""Discrete forward/adjoint maps, adjoint exactness, and the CG solver."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wrilab import (
    Field, LinearMap, TimeGrid, Trace, Wavelet, adjoint_general, adjoint_test,
    cg_solve_dataspace, extension_source, field_solution, green_solution,
    make_aligned_S, make_discrete_S, normal_constant, point_forward,
)


def smooth_probe(op, center=0.75, width=0.9):
    """A field supported well inside the domain and the time record."""
    zg, tg = op.zgrid, op.field_tgrid
    z = zg.points()[:, None]
    t = tg.times()[None, :]
    bump_z = np.exp(-((z - 0.65) / 0.12) ** 2)
    u = (t - center + width / 2) / width
    bump_t = np.where((u > 0) & (u < 1), np.sin(np.pi * u) ** 2, 0.0)
    return Field(zg, tg, bump_z * bump_t)


def interior_trace(op, c, lam=0.04):
    """A trace supported strictly inside (0, T): a clean physical arrival."""
    return point_forward(op.geo, c, Wavelet.bump(lam), op.data_tgrid)


# -- basic algebra ------------------------------------------------------------

def test_apply_zero_and_homogeneity(geo):
    op = make_discrete_S(geo, 1.0, 0.005, 0.0005)
    zero = Field(op.zgrid, op.field_tgrid, np.zeros((op.zgrid.m, op.field_tgrid.n)))
    assert np.all(op.apply(zero).samples == 0.0)
    zero_tr = Trace(op.data_tgrid, np.zeros(op.data_tgrid.n))
    assert np.all(op.apply_adjoint(zero_tr).values == 0.0)
    f = smooth_probe(op)
    two = Field(op.zgrid, op.field_tgrid, 2.0 * f.values)
    assert np.allclose(op.apply(two).samples, 2.0 * op.apply(f).samples,
                       rtol=1e-14, atol=1e-14)


def test_grid_mismatch_errors(geo):
    op = make_discrete_S(geo, 1.0, 0.005, 0.0005)
    bad_field = Field(op.zgrid, TimeGrid(0.0, 0.001, 100),
                      np.zeros((op.zgrid.m, 100)))
    with pytest.raises(ValueError, match="field grids do not match"):
        op.apply(bad_field)
    with pytest.raises(ValueError, match="trace grid does not match"):
        op.apply_adjoint(Trace(TimeGrid(0.0, 0.001, 100), np.zeros(100)))


# -- adjoint exactness --------------------------------------------------------

@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_adjoint_test_machine_exact(geo, c):
    op = make_discrete_S(geo, c, 0.005, 0.0005)
    assert adjoint_test(op, n_probes=10, seed=0) <= 1e-12


def test_adjoint_statistic_scale_invariance(geo):
    op = make_discrete_S(geo, 1.0, 0.01, 0.001)
    rng = np.random.default_rng(7)
    f = Field(op.zgrid, op.field_tgrid,
              rng.standard_normal((op.zgrid.m, op.field_tgrid.n)))
    e = Trace(op.data_tgrid, rng.standard_normal(op.data_tgrid.n))

    def stat(field, trace):
        dt = op.data_tgrid.dt
        sf = op.apply(field)
        lhs = dt * float(np.dot(sf.samples, trace.samples))
        g = op.apply_adjoint(trace)
        rhs = op.z_weight * op.field_tgrid.dt * float(
            np.dot(field.values.ravel(), g.values.ravel()))
        scale = (np.sqrt(dt) * np.linalg.norm(sf.samples)
                 * np.sqrt(dt) * np.linalg.norm(trace.samples))
        return abs(lhs - rhs) / (scale + np.finfo(float).tiny)

    base = stat(f, e)
    scaled = stat(Field(op.zgrid, op.field_tgrid, 10.0 * f.values),
                  Trace(op.data_tgrid, 3.0 * e.samples))
    assert abs(base - scaled) <= 1e-12


def test_mismatched_pair_is_detected(geo):
    op = make_discrete_S(geo, 1.0, 0.01, 0.001)
    bad = dataclasses.replace(op)
    bad.apply = lambda f: Trace(op.data_tgrid, 2.0 * op.apply(f).samples)
    assert adjoint_test(bad, n_probes=10, seed=0) > 1e-6


def test_transpose_and_sampling_adjoints_agree(geo):
    # on a shared time lattice the two assembly routes coincide identically
    for dz, dt in ((0.0025, 0.001), (0.00125, 0.0005)):
        op = make_discrete_S(geo, 1.0, dz, dt)
        d = interior_trace(op, 1.0)
        a = adjoint_general(geo, 1.0, d, op.zgrid, op.field_tgrid,
                            method="transpose")
        b = adjoint_general(geo, 1.0, d, op.zgrid, op.field_tgrid,
                            method="sampling")
        denom = np.linalg.norm(a.values)
        assert np.linalg.norm(a.values - b.values) <= 1e-12 * denom
    with pytest.raises(ValueError, match="unknown adjoint method"):
        adjoint_general(geo, 1.0, d, op.zgrid, op.field_tgrid, method="exact")


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
    assert op.aligned
    assert adjoint_test(op, n_probes=5, seed=1) <= 1e-14
    e = interior_trace(op, c)
    k = normal_constant(geo, c)
    out = op.normal_apply(e.samples)
    assert np.linalg.norm(out - k * e.samples) <= 1e-12 * np.linalg.norm(e.samples)


@settings(max_examples=25, deadline=None, database=None)
@given(c=st.floats(0.5, 2.0), dz_hint=st.floats(0.004, 0.05),
       dt=st.floats(0.0005, 0.004))
def test_aligned_construction_properties(geo, c, dz_hint, dt):
    op = make_aligned_S(geo, c, geo.data_grid(dt), dz_hint)
    assert op.aligned
    # the integer offsets are the float offsets the generic construction
    # computes on the same grids, rounded
    generic = LinearMap.from_grids(geo, c, op.zgrid, op.field_tgrid,
                                   op.data_tgrid, z_weight=op.z_weight)
    assert np.array_equal(op._offsets, np.round(generic._offsets))
    assert np.all(np.abs(op._offsets - generic._offsets) <= 1e-9)
    assert op._step == 1.0 and generic._step == 1.0
    assert adjoint_test(op, n_probes=2, seed=0) <= 1e-12
    e = interior_trace(op, c).samples
    out = op.normal_apply(e)
    k = normal_constant(geo, c)
    assert np.linalg.norm(out - k * e) <= 1e-14 * np.linalg.norm(k * e)


@pytest.mark.parametrize("c", [float("nan"), 0.0])
@pytest.mark.parametrize("build", [
    lambda geo, c: make_discrete_S(geo, c, 0.01, 0.001),
    lambda geo, c: make_aligned_S(geo, c, geo.data_grid(0.001), 0.01),
    lambda geo, c: green_solution(geo, c, Wavelet.bump(0.04), 0.8, 0.5),
    lambda geo, c: field_solution(
        geo, c, Field(geo.space_grid(0.1), geo.data_grid(0.01),
                      np.zeros((10, 151))), 0.8, 0.5),
    lambda geo, c: extension_source(geo, c, Wavelet.bump(0.04), 0.2,
                                    geo.space_grid(0.01), geo.field_time_grid(0.001)),
], ids=["discrete_S", "aligned_S", "green_solution", "field_solution",
        "extension_source"])
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
    with pytest.raises(ValueError, match="alpha must be positive"):
        cg_solve_dataspace(op, 0.0, r)
    with pytest.raises(ValueError, match="rhs grid does not match"):
        cg_solve_dataspace(op, 0.25, Trace(TimeGrid(0.0, 0.002, 100), np.zeros(100)))


def test_cg_generic_grid_converges_to_closed_form(geo):
    op = make_discrete_S(geo, 1.0, 0.0025, 0.001)
    r = interior_trace(op, 1.0)
    rep = cg_solve_dataspace(op, 0.25, r, tol=1e-10)
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
    rep = cg_solve_dataspace(op, 0.25, r, tol=1e-12)
    assert rep.converged
    assert rep.iterations == 1
    ref = r.samples / (normal_constant(geo, 1.0) + 0.25 ** 2)
    assert np.linalg.norm(rep.solution.samples - ref) <= 1e-12 * np.linalg.norm(ref)


def test_cg_solution_norm_decreases_with_alpha(geo):
    op = make_discrete_S(geo, 1.0, 0.0025, 0.001)
    r = interior_trace(op, 1.0)
    norms = [np.linalg.norm(cg_solve_dataspace(op, a, r, tol=1e-10).solution.samples)
             for a in (0.1, 0.25, 0.5, 1.0)]
    assert all(n1 > n2 for n1, n2 in zip(norms, norms[1:]))
