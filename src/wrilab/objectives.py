"""Data-misfit objectives for the single-receiver transmission problem.

Everything here is evaluated from closed-form traces: the consistent data
d(t) = (1/2 c_*) w(t - tau(c_*)) and the prediction (1/2c) w(t - tau(c)) are
sampled analytically, so quadrature on the data grid is the only source of
numerical error.  Velocity is a batch axis: fwi_value, the closed-form
wri_value, annihilator_value, fwi_plateau and the functions make_objective
returns take a number or a 1-D array of c.  Every misfit value comes from one
kernel, _pulse_terms, that samples the pulse windows of all velocities as one
block and reduces each row with np.dot over the same window slice a single
velocity would use, so a batched value equals the unbatched one bit for bit.
Objectives:

    fwi_value           (1/2) || prediction - data ||^2 over [0, T]
    fwi_plateau         far-region constant (1/2)(1/(4c^2) + 1/(4c_*^2))
    wri_value           penalty objective, variational (CG) or closed form
    weight_apply        residual-space weight (alpha^2/2)(S S^T + a^2 I)^-1
    annihilator_value   moments of the back-propagated data u = S_p^T d
    quadratic_form_checks   right-inverse rewrite of the FWI value
    gradient            dJ/dc, analytic for FWI or central differences

The penalty objective is defined by the inner minimization over extended
sources; the closed form alpha^2/(k(c) + alpha^2) * fwi_value is the exact
scalar reduction of that problem when S S^T = k(c) I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .acoustics import (
    Geometry, Wavelet, _in_far_region, _require_width, normal_constant,
    point_forward, separation_scale,
)
from .grids import Trace, inner_product_trace
from .operators import cg_solve_dataspace, make_aligned_S


@dataclass
class Experiment:
    """Geometry, target velocity, source pulse and the consistent data."""

    geo: Geometry
    c_star: float
    wavelet: Wavelet
    data: Trace
    # quadrature moments of the data: dt * sum of d^2, t d^2, t^2 d^2
    _moments: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.geo.require_admissible(self.c_star)
        # Sum only from the first to the last nonzero sample: zeros add
        # nothing, and the summed slice (hence numpy's pairwise grouping) is
        # then the same for every record length that holds the data.
        nz = np.flatnonzero(self.data.samples)
        win = slice(nz[0], nz[-1] + 1) if nz.size else slice(0, 0)
        d = self.data.samples[win]
        t = self.data.grid.times()[win]
        dt = self.data.grid.dt
        d2 = d * d
        self._moments = (
            float(dt * np.sum(d2)),
            float(dt * np.sum(t * d2)),
            float(dt * np.sum(t * t * d2)),
        )

    @property
    def lam(self) -> float:
        return self.wavelet.lam

    @property
    def half_data_norm2(self) -> float:
        return 0.5 * self._moments[0]


def make_experiment(
    geo: Geometry, c_star: float, wavelet: Wavelet, dt: float | None = None
) -> Experiment:
    """Build the consistent-data experiment with d = point_forward(c_star).

    dt defaults to lam/40, which keeps the rectangle-rule error orders of
    magnitude below every tolerance used in the landscape checks.
    """
    _require_width(geo, wavelet.lam)
    if dt is None:
        dt = wavelet.lam / 40.0
    data = point_forward(geo, c_star, wavelet, geo.data_grid(dt))
    return Experiment(geo, c_star, wavelet, data)


@dataclass(frozen=True)
class WriConfig:
    """Penalty weight and solve options for the reconstruction objective."""

    alpha: float
    route: str = "closed_form"
    tol: float = 1e-10
    maxiter: int | None = None
    dz: float | None = None

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ValueError("penalty weight alpha must be positive")
        if self.route not in ("variational", "closed_form"):
            raise ValueError(f"unknown wri route {self.route!r}")


@dataclass
class ObjectiveValue:
    """Objective value plus route/solver diagnostics."""

    value: float
    diagnostics: dict


def _window_bounds(grid, lo, hi) -> tuple:
    """First index and length of the grid windows [lo, hi], clipped to the grid.

    Elementwise in lo and hi; an empty window has length 0.
    """
    j0 = np.ceil((lo - grid.t0) / grid.dt - 1e-12)
    j1 = np.floor((hi - grid.t0) / grid.dt + 1e-12)
    j0 = np.minimum(np.maximum(j0, 0), grid.n).astype(np.int64)
    j1 = np.minimum(np.maximum(j1, -1), grid.n - 1).astype(np.int64)
    return j0, np.maximum(j1 + 1 - j0, 0)


def _pulse_terms(exp: Experiment, c: np.ndarray) -> tuple:
    """Transit times, cross terms and half prediction norms for a 1-D array of c.

    The predictions of all velocities are sampled as one (n_c, W) block, W the
    longest pulse window.  Each row is reduced with np.dot over exactly its own
    window, because any other reduction (a padded row, einsum, a row sum)
    changes the summation order and hence the last bits of the value.
    """
    grid = exp.data.grid
    tau = exp.geo.transit_time(c)
    j0, size = _window_bounds(grid, tau, tau + exp.lam)
    j = j0[:, None] + np.arange(size.max(initial=0))
    pred = exp.wavelet.value(grid.t0 + grid.dt * j - tau[:, None]) / (2.0 * c)[:, None]
    d = exp.data.samples
    cross = np.empty(c.shape)
    norm2 = np.empty(c.shape)
    for i, (a, m) in enumerate(zip(j0.tolist(), size.tolist())):
        p = pred[i, :m]
        cross[i] = np.dot(d[a:a + m], p)
        norm2[i] = np.dot(p, p)
    return tau, grid.dt * cross, 0.5 * grid.dt * norm2


def fwi_value(exp: Experiment, c) -> ObjectiveValue:
    """Least-squares misfit (1/2)||(1/2c) w(t - tau(c)) - d||^2 over [0, T].

    Only the pulse window [tau(c), tau(c) + lam] is touched; the data norm is
    cached, so an evaluation costs O(lam/dt) work per velocity.  c is a number
    or a 1-D array; the value and the diagnostics follow its shape.
    """
    cs = np.asarray(c, dtype=float)
    tau, cross, half_pred2 = _pulse_terms(exp, cs.reshape(-1))
    value = exp.half_data_norm2 - cross + half_pred2
    if cs.ndim == 0:
        tau, cross, half_pred2, value = (
            float(v[0]) for v in (tau, cross, half_pred2, value))
    return ObjectiveValue(value, {
        "route": "analytic",
        "transit_time": tau,
        "data_term": exp.half_data_norm2,
        "cross_term": cross,
        "prediction_term": half_pred2,
    })


def fwi_plateau(exp: Experiment, c):
    """Far-region constant of the misfit, valid when the pulses do not overlap.

    Requires |c - c_*| > L*lam with L = 2 c_max^2 / offset, and lam below the
    admissible-width bound, the regime where the two supports are disjoint.
    Elementwise in c; every velocity must satisfy the condition.
    """
    geo = exp.geo
    _require_width(geo, exp.lam)
    if not np.all(_in_far_region(geo, c, exp.c_star, exp.lam)):
        raise ValueError(
            "plateau formula not applicable: need |c - c_star| > L*lam "
            f"(L*lam = {separation_scale(geo) * exp.lam})"
        )
    return 0.5 * (1.0 / (4.0 * c * c) + 1.0 / (4.0 * exp.c_star**2))


def _residual_trace(exp: Experiment, c: float) -> Trace:
    """r = d - prediction, sampled on the data grid."""
    grid = exp.data.grid
    pred = point_forward(exp.geo, c, exp.wavelet, grid)
    return Trace(grid, exp.data.samples - pred.samples)


def wri_value(exp: Experiment, c, cfg: WriConfig) -> ObjectiveValue:
    """Penalty objective min_g (1/2)(||r - S g||^2 + alpha^2 ||g||^2).

    closed_form route: the scalar reduction alpha^2/(k(c) + alpha^2) times the
    misfit, exact because S S^T = k(c) I; c may be a 1-D array.  variational
    route (a single c): solves the data-space normal equations by CG on the
    sample-aligned discretization and evaluates (alpha^2/2) <e, r>;
    diagnostics recombine the two penalty terms at the optimal source as a
    consistency check.
    """
    a2 = cfg.alpha**2
    k = normal_constant(exp.geo, c)
    if cfg.route == "closed_form":
        fwi = fwi_value(exp, c)
        factor = a2 / (k + a2)
        return ObjectiveValue(factor * fwi.value, {
            "route": "closed_form",
            "alpha": cfg.alpha,
            "normal_constant": k,
            "factor": factor,
            "fwi_value": fwi.value,
        })
    r = _residual_trace(exp, c)
    dz_hint = cfg.dz if cfg.dz is not None else exp.geo.extent / 400.0
    op = make_aligned_S(exp.geo, c, r.grid, dz_hint)
    rep = cg_solve_dataspace(op, cfg.alpha, r, tol=cfg.tol, maxiter=cfg.maxiter)
    e = rep.solution
    value = 0.5 * a2 * inner_product_trace(e, r)
    # recombine the two terms of the inner minimization at g = S^T e
    g = op.apply_adjoint(e)
    sg = op.apply(g)
    resid = r.samples - sg.samples
    resid_term = 0.5 * r.grid.dt * float(np.dot(resid, resid))
    gw = op.z_weight * op.field_tgrid.dt
    penalty_term = 0.5 * a2 * gw * float(np.dot(g.values.ravel(), g.values.ravel()))
    return ObjectiveValue(value, {
        "route": "variational",
        "alpha": cfg.alpha,
        "normal_constant": k,
        "cg_iterations": rep.iterations,
        "cg_relative_residual": rep.final_relative_residual,
        "cg_converged": rep.converged,
        "residual_term": resid_term,
        "penalty_term": penalty_term,
        "two_term_sum": resid_term + penalty_term,
    })


def weight_apply(
    exp: Experiment, c: float, alpha: float, r: Trace, path: str = "scalar",
    dz: float | None = None, tol: float = 1e-10,
) -> Trace:
    """Residual-space weight (alpha^2/2)(S S^T + alpha^2 I)^{-1} applied to r.

    The scalar path multiplies by u(c) = (alpha^2/2)/(k(c) + alpha^2), valid
    because S S^T is the constant k(c); the general path solves the normal
    equations by CG and scales the solution.
    """
    if alpha <= 0.0:
        raise ValueError("penalty weight alpha must be positive")
    a2 = alpha * alpha
    if path == "scalar":
        u = 0.5 * a2 / (normal_constant(exp.geo, c) + a2)
        return Trace(r.grid, u * r.samples)
    if path == "general":
        dz_hint = dz if dz is not None else exp.geo.extent / 400.0
        op = make_aligned_S(exp.geo, c, r.grid, dz_hint)
        rep = cg_solve_dataspace(op, alpha, r, tol=tol)
        return Trace(r.grid, 0.5 * a2 * rep.solution.samples)
    raise ValueError(f"unknown weight path {path!r}")


def annihilator_value(exp: Experiment, c, variant: str = "normalized"):
    """Time-moment objectives of the back-propagated data u(t) = (1/2c) d(t + tau).

    signed      int t u(t)^2 dt        (first arrival-time moment)
    squared     int t^2 u(t)^2 dt      (norm of the time-multiplied signal)
    normalized  squared / int u^2 dt   (mean-square arrival time, gain-free)

    Substituting s = t + tau(c) turns each into fixed data moments shifted by
    tau(c), so evaluation is O(1) per velocity.  Elementwise in c.
    """
    m0, m1, m2 = exp._moments
    tau = exp.geo.transit_time(c)
    gain = 1.0 / (4.0 * c * c)
    if variant == "signed":
        return gain * (m1 - tau * m0)
    if variant == "squared":
        return gain * (m2 - 2.0 * tau * m1 + tau * tau * m0)
    if variant == "normalized":
        if m0 == 0.0:
            raise ValueError("normalized annihilator is undefined for zero data")
        return (m2 - 2.0 * tau * m1 + tau * tau * m0) / m0
    raise ValueError(f"unknown annihilator variant {variant!r}")


def quadratic_form_checks(exp: Experiment, c: float) -> dict:
    """Verify the right-inverse rewrite of the misfit and its expansion.

    Checks, all by analytic shift-and-scale composition on the data grid:

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
    tau_c = geo.transit_time(c)
    tau_s = geo.transit_time(exp.c_star)
    lam = exp.lam
    if not (tau_c + lam < geo.T and tau_s + lam < geo.T):
        raise ValueError(
            "quadratic-form checks need both pulse supports inside (0, T)"
        )

    def d_fn(t):
        return exp.wavelet.value(np.asarray(t, dtype=float) - tau_s) / (2.0 * exp.c_star)

    t = grid.times()
    d = exp.data.samples
    recon = (exp.c_star / c) * d_fn(t + tau_s - tau_c)
    half_d2 = exp.half_data_norm2
    half_r2 = 0.5 * dt * float(np.dot(recon, recon))
    cross = dt * float(np.dot(d, recon))

    direct = fwi_value(exp, c).value
    reconstructed = 0.5 * dt * float(np.dot(d - recon, d - recon))
    three_term = half_d2 - cross + half_r2

    # composed form of the cross term on a grid covering negative times
    n_neg = int(math.ceil(max(0.0, tau_c - tau_s) / dt)) + 2
    tt = -n_neg * dt + dt * np.arange(n_neg + grid.n)
    u = d_fn(tt + tau_c) / (2.0 * c)
    au = 2.0 * exp.c_star * d_fn(tt + tau_s)
    cross_composed = dt * float(np.dot(u, au))

    scale = max(direct, half_d2, np.finfo(float).tiny)
    return {
        "direct_value": direct,
        "reconstructed_value": reconstructed,
        "three_term_value": three_term,
        "cross_term": cross,
        "cross_term_composed": cross_composed,
        "resid_reconstructed": abs(reconstructed - direct) / scale,
        "resid_three_term": abs(three_term - direct) / scale,
        "resid_cross_term": abs(cross - cross_composed) / scale,
    }


def gradient(
    exp: Experiment, c: float, kind: str = "fwi", method: str = "analytic_fwi",
    h: float = 1e-5, alpha: float | None = None, variant: str = "normalized",
) -> float:
    """dJ/dc estimate, analytic for the misfit or central differences.

    The analytic path differentiates the prediction through the 1/2c amplitude
    and the arrival time tau(c) = offset/c:

        d/dc prediction = -(1/2c^2) w(t - tau) + (1/2c)(tau/c) w'(t - tau)
    """
    if method == "analytic_fwi":
        if kind != "fwi":
            raise ValueError("analytic gradient is available for the fwi kind only")
        grid = exp.data.grid
        tau = exp.geo.transit_time(c)
        j0, size = _window_bounds(grid, tau, tau + exp.lam)
        win = slice(int(j0), int(j0 + size))
        t = grid.t0 + grid.dt * np.arange(win.start, win.stop)
        wv = exp.wavelet.value(t - tau)
        wd = exp.wavelet.derivative(t - tau)
        pred = wv / (2.0 * c)
        dpred = -wv / (2.0 * c * c) + (tau / (2.0 * c * c)) * wd
        resid = pred - exp.data.samples[win]
        return grid.dt * float(np.dot(resid, dpred))
    if method == "central_fd":
        if h <= 0.0:
            raise ValueError("finite-difference step h must be positive")
        f = make_objective(exp, kind, alpha=alpha, variant=variant)
        return (f(c + h) - f(c - h)) / (2.0 * h)
    raise ValueError(f"unknown gradient method {method!r}")


def make_objective(
    exp: Experiment, kind: str, alpha: float | None = None,
    variant: str = "normalized", route: str = "closed_form",
):
    """Bind an objective kind to a function of velocity.

    The function maps a number to a float and a 1-D array of velocities to
    the array of their values; the two agree bit for bit.
    """
    if kind == "fwi":
        return lambda c: fwi_value(exp, c).value
    if kind == "wri":
        if alpha is None:
            raise ValueError("the wri objective needs a penalty weight alpha")
        cfg = WriConfig(alpha=alpha, route=route)
        if route == "variational":
            # one CG solve per velocity
            return lambda c: (wri_value(exp, c, cfg).value if np.ndim(c) == 0 else
                              np.array([wri_value(exp, ci, cfg).value for ci in c]))
        return lambda c: wri_value(exp, c, cfg).value
    if kind == "annihilator":
        return lambda c: annihilator_value(exp, c, variant)
    raise ValueError(f"unknown objective kind {kind!r}")
