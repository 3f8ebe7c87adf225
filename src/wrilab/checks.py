"""Identity measurements shared by `wrilab verify` and the acceptance tests.

Each function returns one deviation; the caller holds the tolerance.  The
adjoint test and the far-plateau deviation live with their modules
(adjoint_test, far_region_verify).  wri_variational, the penalty objective's
inner problem solved by CG, is the reference for objectives.wri_value.
"""

from __future__ import annotations

import numpy as np

from .acoustics import (
    Geometry, Wavelet, _mother_bump, extension_source, normal_constant,
    point_forward, point_right_inverse,
)
from .grids import TimeGrid, Trace, eval_interp, inner_product_trace
from .objectives import Experiment, fwi_value, penalty_factor, wri_value
from .operators import cg_solve_dataspace, make_aligned_S, make_discrete_S


def _norm(x: np.ndarray) -> np.float64:
    """The 2-norm of x from numpy's pairwise sum of its squares.  The BLAS
    dot product np.linalg.norm runs splits a sum of more than about 10,000
    terms across its threads, so its last bits depend on their number."""
    return np.sqrt(np.add.reduce(x * x))


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(_norm(a - b) / _norm(b))


def trace_norm_deviation(geo: Geometry, c: float, w: Wavelet, dt: float) -> float:
    """|4 c^2 ||S_p w||^2 - 1|: a unit-norm pulse arrives with norm 1/(2c)."""
    tr = point_forward(geo, c, w, geo.data_grid(dt))
    norm2 = tr.grid.dt * float(np.dot(tr.samples, tr.samples))
    return abs(4.0 * c * c * norm2 - 1.0)


def normal_identity_error(geo: Geometry, c: float, dz: float, dt: float) -> float:
    """|| S S^T e - k(c) e || / || e || for a smooth e supported in (0.3, 1.2)."""
    op = make_discrete_S(geo, c, dz, dt)
    t = op.data_tgrid.times()
    e = _mother_bump((t - 0.3) / 0.9)
    k = normal_constant(geo, c)
    y = op.normal_apply(e)
    return float(_norm(y - k * e) / _norm(e))


def extension_error(
    geo: Geometry, c: float, w: Wavelet, eps: float, dz: float, dt: float,
) -> float:
    """Relative error of the extended source's trace against the point source's.

    The source's band rows stream straight into the forward map, each as a
    one-node block.
    """
    op = make_discrete_S(geo, c, dz, dt)
    rows = extension_source(geo, c, w, eps, op.zgrid, op.field_tgrid)
    made = op.apply_blocks((i, row[None]) for i, row in rows)
    ref = point_forward(geo, c, w, op.data_tgrid)
    return _rel_err(made.samples, ref.samples)


def _weighted_residual(exp: Experiment, c: float, alpha: float, dz: float) -> tuple:
    """The residual r = d - prediction at c and e = (S S^T + alpha^2 I)^{-1} r.

    e comes from CG on the sample-aligned discretization with node spacing
    near dz; S^T e is then the optimal extended source of the inner problem.
    """
    grid = exp.data.grid
    pred = point_forward(exp.geo, c, exp.wavelet, grid)
    r = Trace(grid, exp.data.samples - pred.samples)
    op = make_aligned_S(exp.geo, c, grid, dz)
    return r, cg_solve_dataspace(op, alpha, r).solution


def wri_variational(exp: Experiment, c: float, alpha: float, dz: float) -> float:
    """Penalty objective min_g (1/2)(||r - S g||^2 + alpha^2 ||g||^2) by CG.

    At the optimum the value is (alpha^2/2) <e, r>, e as in _weighted_residual.
    """
    r, e = _weighted_residual(exp, c, alpha, dz)
    return 0.5 * alpha**2 * inner_product_trace(e, r)


def wri_deviations(exp: Experiment, cs, alphas, dz: float) -> tuple:
    """Worst (route, ratio, constant) deviations of the penalty objective.

    Over the velocities cs and weights alphas, with the variational (CG)
    value J and the factor u = penalty_factor(c, alpha):

      route     |J - wri_value| / wri_value
      ratio     |J / fwi_value - u|
      constant  |J / (u fwi_value) - 1|; a weighted-norm variant with an
                extra 1/2 would put this at 0.5

    A velocity whose misfit is at round-off (at most 1e-10 of the half data
    norm, as at c_star itself) is skipped: J and fwi_value are both noise
    there, and their ratio measures nothing.
    """
    route_dev = ratio_dev = const_dev = 0.0
    for c in cs:
        fwi = fwi_value(exp, c).value
        if fwi <= 1e-10 * exp.half_data_norm2:
            continue
        for alpha in alphas:
            var = wri_variational(exp, c, alpha, dz)
            clo = wri_value(exp, c, alpha)
            route_dev = max(route_dev, abs(var - clo) / clo)
            factor = penalty_factor(exp.geo, c, alpha)
            ratio_dev = max(ratio_dev, abs(var / fwi - factor))
            const_dev = max(const_dev, abs(var / (factor * fwi) - 1.0))
    return route_dev, ratio_dev, const_dev


def weight_paths_error(exp: Experiment, c: float, alpha: float, dz: float) -> float:
    """Relative difference of the CG and scalar residual weights at c.

    The weight (alpha^2/2)(S S^T + alpha^2 I)^{-1} applied to the residual r,
    once through CG and once as the scalar (1/2) penalty_factor.
    """
    r, e = _weighted_residual(exp, c, alpha, dz)
    general = 0.5 * alpha**2 * e.samples
    scalar = 0.5 * penalty_factor(exp.geo, c, alpha) * r.samples
    return _rel_err(general, scalar)


def quadratic_form_residual(exp: Experiment, cs) -> float:
    """Largest residual of the right-inverse rewrite of the misfit over cs.

    Checks, all by analytic shift-and-scale composition on the data grid,
    relative to max(fwi_value, (1/2)||d||^2):

      1. (1/2)||(I - S_p[c] S_p[c_*]^{-1}) d||^2 equals fwi_value(c);
      2. the three-term expansion (1/2)||d||^2 - <d, recon> + (1/2)||recon||^2
         recombines to the same value (minus sign on the cross term);
      3. the cross term <d, recon> equals the composed form <u, A u> with
         u = S_p[c]^T d and A the shift-and-rescale intertwiner 2 c_* d(t+tau_*).

    Requires both pulse supports inside (0, T) so the compositions are exact.
    """
    geo = exp.geo
    grid = exp.data.grid
    dt = grid.dt
    tau_s = geo.transit_time(exp.c_star)
    t = grid.times()
    d = exp.data.samples
    half_d2 = exp.half_data_norm2

    def d_fn(t):
        return exp.wavelet.value(np.asarray(t, dtype=float) - tau_s) / (2.0 * exp.c_star)

    worst = 0.0
    for c in cs:
        tau_c = geo.transit_time(c)
        if not (tau_c + exp.lam < geo.T and tau_s + exp.lam < geo.T):
            raise ValueError(
                "quadratic-form checks need both pulse supports inside (0, T)"
            )
        recon = (exp.c_star / c) * d_fn(t + tau_s - tau_c)
        half_r2 = 0.5 * dt * float(np.dot(recon, recon))
        cross = dt * float(np.dot(d, recon))
        direct = fwi_value(exp, c).value
        reconstructed = 0.5 * dt * float(np.dot(d - recon, d - recon))
        three_term = half_d2 - cross + half_r2

        # composed form of the cross term on a grid covering negative times
        n_neg = int(np.ceil(max(0.0, tau_c - tau_s) / dt)) + 2
        tt = -n_neg * dt + dt * np.arange(n_neg + grid.n)
        u = d_fn(tt + tau_c) / (2.0 * c)
        au = 2.0 * exp.c_star * d_fn(tt + tau_s)
        cross_composed = dt * float(np.dot(u, au))

        scale = max(direct, half_d2, np.finfo(float).tiny)
        worst = max(worst, abs(reconstructed - direct) / scale,
                    abs(three_term - direct) / scale,
                    abs(cross - cross_composed) / scale)
    return worst


def right_inverse_error(exp: Experiment) -> float:
    """Relative error of point_forward applied after point_right_inverse.

    The velocity (near 1.25) has its transit time n*dt on the data's dt
    lattice, so the discrete composition is interpolation-free.  The inverse
    is sampled from t0 - n*dt on, so that the pulse it shifts back by up to
    n*dt stays on its grid for every c_star.
    """
    geo, d = exp.geo, exp.data
    dt = d.grid.dt
    n = round(geo.offset / (1.25 * dt))
    c = geo.offset / (n * dt)
    u = point_right_inverse(geo, c, d, TimeGrid(d.grid.t0 - n * dt, dt, n + d.grid.n))
    back = eval_interp(u, d.grid.times() - geo.transit_time(c)) / (2.0 * c)
    return _rel_err(back, d.samples)
