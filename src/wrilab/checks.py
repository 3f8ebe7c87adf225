"""Identity measurements shared by `wrilab verify` and the acceptance tests.

Each function returns one deviation; the caller holds the tolerance.  The
adjoint test, the quadratic-form checks and the far-plateau deviation live
with their modules (adjoint_test, quadratic_form_checks, theorem1_verify).
"""

from __future__ import annotations

import numpy as np

from .acoustics import (
    Geometry, Wavelet, extension_source, normal_constant, point_forward,
    point_right_inverse,
)
from .grids import TimeGrid, eval_interp
from .objectives import (
    Experiment, WriConfig, _residual_trace, fwi_value, quadratic_form_checks,
    weight_apply, wri_value,
)
from .operators import forward_general, make_discrete_S


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def trace_norm_deviation(geo: Geometry, c: float, w: Wavelet, dt: float) -> float:
    """|4 c^2 ||S_p w||^2 - 1|: a unit-norm pulse arrives with norm 1/(2c)."""
    tr = point_forward(geo, c, w, geo.data_grid(dt))
    norm2 = tr.grid.dt * float(np.dot(tr.samples, tr.samples))
    return abs(4.0 * c * c * norm2 - 1.0)


def normal_identity_error(geo: Geometry, c: float, dz: float, dt: float) -> float:
    """|| S S^T e - k(c) e || / || e || for a smooth e supported in (0.3, 1.2)."""
    op = make_discrete_S(geo, c, dz, dt)
    t = op.data_tgrid.times()
    s = (t - 0.3) / 0.9
    e = np.zeros_like(t)
    inside = (s > 0.0) & (s < 1.0)
    e[inside] = np.exp(-1.0 / (s[inside] * (1.0 - s[inside])))
    k = normal_constant(geo, c)
    y = op.normal_apply(e)
    return float(np.linalg.norm(y - k * e) / np.linalg.norm(e))


def extension_error(
    geo: Geometry, c: float, w: Wavelet, eps: float, dz: float, dt: float,
) -> float:
    """Relative error of the extended source's trace against the point source's."""
    src = extension_source(geo, c, w, eps, geo.space_grid(dz), geo.field_time_grid(dt))
    data_grid = geo.data_grid(dt)
    made = forward_general(geo, c, src, data_grid)
    ref = point_forward(geo, c, w, data_grid)
    return _rel_err(made.samples, ref.samples)


def wri_deviations(exp: Experiment, cs, alphas, dz: float) -> tuple:
    """Worst (route, ratio, constant) deviations of the penalty objective.

    Over the velocities cs and weights alphas, with the variational (CG)
    value J and the factor u = alpha^2/(k(c) + alpha^2):

      route     |J - closed form| / closed form
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
            var = wri_value(exp, c, WriConfig(alpha, route="variational", dz=dz))
            clo = wri_value(exp, c, WriConfig(alpha, route="closed_form"))
            route_dev = max(route_dev, abs(var.value - clo.value) / clo.value)
            factor = alpha**2 / (normal_constant(exp.geo, c) + alpha**2)
            ratio_dev = max(ratio_dev, abs(var.value / fwi - factor))
            const_dev = max(const_dev, abs(var.value / (factor * fwi) - 1.0))
    return route_dev, ratio_dev, const_dev


def weight_paths_error(exp: Experiment, c: float, alpha: float, dz: float) -> float:
    """Relative difference of the CG and scalar weights on the residual at c."""
    r = _residual_trace(exp, c)
    gen = weight_apply(exp, c, alpha, r, path="general", dz=dz)
    sca = weight_apply(exp, c, alpha, r, path="scalar")
    return _rel_err(gen.samples, sca.samples)


def quadratic_form_residual(exp: Experiment, cs) -> float:
    """Largest residual of quadratic_form_checks over the velocities cs."""
    worst = 0.0
    for c in cs:
        rep = quadratic_form_checks(exp, c)
        worst = max(worst, rep["resid_reconstructed"], rep["resid_three_term"],
                    rep["resid_cross_term"])
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
