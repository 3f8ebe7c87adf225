"""Data-misfit objectives for the single-receiver transmission problem.

Everything here is evaluated from closed-form traces: the consistent data
d(t) = (1/2 c_*) w(t - tau(c_*)) and the prediction (1/2c) w(t - tau(c)) are
sampled analytically, so quadrature on the data grid is the only source of
numerical error.  Velocity is a batch axis: fwi_value, wri_value,
annihilator_value, fwi_plateau and the functions make_objective returns take
a number or a 1-D array of c.  Every misfit value comes from one kernel,
_pulse_terms, that samples the pulse windows of all velocities as one block
and reduces them with one np.vecdot per window length.  The block's sample
times and data are row gathers from read-only sliding-window views that the
Experiment builds once, padded past the record end by the longest window.
The times are t0 + dt*j, the same doubles a single window's times are, and
the data are the samples themselves.  np.vecdot runs the
same BLAS ddot on each row that np.dot runs on one window, over the same
window a single velocity would use, so a batched value equals the unbatched
one bit for bit.  An Experiment remembers its last misfit grid, so the
penalty objective for each alpha reuses the misfit of the same grid.
Objectives:

    fwi_value           (1/2) || prediction - data ||^2 over [0, T]
    fwi_plateau         far-region constant (1/2)(1/(4c^2) + 1/(4c_*^2))
    penalty_factor      alpha^2/(k(c) + alpha^2), penalty over misfit
    wri_value           penalty objective, penalty_factor * fwi_value
    annihilator_value   moments of the back-propagated data u = S_p^T d
    make_objective      one objective kind bound to a function of velocity

The penalty objective is defined by the inner minimization over extended
sources; because S S^T = k(c) I, the closed form above is its exact scalar
reduction.  The CG solve of that inner problem, which `verify` checks the
reduction against, lives in checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .acoustics import (
    Geometry, Wavelet, _in_far_region, _require_width, normal_constant,
    point_forward, separation_scale,
)
from .grids import Trace


@dataclass
class Experiment:
    """Geometry, target velocity, source pulse and the consistent data."""

    geo: Geometry
    c_star: float
    wavelet: Wavelet
    data: Trace
    # quadrature moments of the data: dt * sum of d^2, t d^2, t^2 d^2
    _moments: tuple = field(init=False, repr=False)
    # read-only sliding windows of the sample times t0 + dt*k and of the data
    # samples, both padded with times and zeros past the record end by the
    # longest pulse window; row j is the window that starts at sample j
    _windows: tuple = field(init=False, repr=False, compare=False)
    # one-entry memo of fwi_value: the bytes of the last velocity array it
    # evaluated (flattened) and that array's misfit values
    _last_misfit: tuple | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.geo.require_admissible(self.c_star)
        grid = self.data.grid
        # _window_bounds widens each end by 1e-12 samples, so no window holds
        # more than floor(lam/dt + 2e-12) + 1 samples; one more covers the
        # rounding of the two bounds
        width = int(np.floor(self.lam / grid.dt + 2e-12)) + 2
        k = np.arange(grid.n + width)
        samples = np.zeros(k.size)
        samples[:grid.n] = self.data.samples
        self._windows = (
            sliding_window_view(grid.t0 + grid.dt * k, width),
            sliding_window_view(samples, width),
        )
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


@dataclass
class ObjectiveValue:
    """Value of an objective at one velocity or a 1-D array of them."""

    value: float


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
    longest pulse window.  Its sample times and the data under it are gathered
    as the rows j0 (each window's first sample) of the experiment's window
    views, cut to W columns, with no index block.  A row holds the doubles
    t0 + dt*j and d[j] of the window's samples j; the times are shifted by tau,
    sampled and divided by 2c in place, in the order of (1/2c) w(t - tau), so
    each row equals its window sampled alone, bit for bit.  The rows are
    grouped by window length m (one or two lengths per pulse width), and each
    group's (k, m) prediction and data blocks are reduced with np.vecdot: one
    C call per length, not one per velocity.  When every window has the same
    length, the block itself is reduced: most calls from a descent are such
    batches, and gathering their groups would triple the cost of the
    reduction.  np.vecdot reduces each row with the same BLAS ddot that
    np.dot runs on a single window, over exactly that window, so a batched
    value equals the single-velocity one bit for bit.  The other reductions
    were rejected because they change the summation order and hence the last
    bits: a padded row (zeros past a shorter window), einsum, and a row sum
    (p * q).sum(1).
    """
    grid = exp.data.grid
    times, data = exp._windows
    tau = exp.geo.transit_time(c)
    j0, size = _window_bounds(grid, tau, tau + exp.lam)
    width = size.max(initial=0)
    if width > times.shape[1]:
        raise ValueError(f"pulse window of {width} samples is longer than the "
                         f"{times.shape[1]} the experiment was built for")
    t = times[j0, :width]
    t -= tau[:, None]
    pred = exp.wavelet.value(t)
    pred /= (2.0 * c)[:, None]
    lengths = set(size.tolist())
    if len(lengths) <= 1:
        # one window length (one velocity, and most descent batches): the
        # block is the windows, so it is reduced as it stands, ungathered
        cross = np.vecdot(data[j0, :width], pred)
        return tau, grid.dt * cross, 0.5 * grid.dt * np.vecdot(pred, pred)
    cross = np.empty(c.shape)
    norm2 = np.empty(c.shape)
    for m in lengths:
        rows = np.flatnonzero(size == m)
        p = pred[rows, :m]
        cross[rows] = np.vecdot(data[j0[rows], :m], p)
        norm2[rows] = np.vecdot(p, p)
    return tau, grid.dt * cross, 0.5 * grid.dt * norm2


def fwi_value(exp: Experiment, c) -> ObjectiveValue:
    """Least-squares misfit (1/2)||(1/2c) w(t - tau(c)) - d||^2 over [0, T].

    Only the pulse window [tau(c), tau(c) + lam] is touched; the data norm is
    cached, so an evaluation costs O(lam/dt) work per velocity.  c is a number
    or a 1-D array; the value follows its shape.

    The experiment remembers the last velocity array it evaluated, by its
    bytes, and that array's values.  Asking again for the same grid (the
    penalty objective for each alpha after the misfit, in scan and theorems)
    then costs a comparison and a copy.  The memo holds copies of both arrays,
    so changing the input or a returned array in place does not reach it, and
    a call that raises stores nothing.  Like the data moments and the window
    views, the memo assumes the experiment's data and pulse are not changed
    in place.
    """
    cs = np.asarray(c, dtype=float)
    flat = cs.reshape(-1)
    key = flat.tobytes()
    memo = exp._last_misfit
    if memo is not None and memo[0] == key:
        value = memo[1].copy()
    else:
        _, cross, half_pred2 = _pulse_terms(exp, flat)
        value = exp.half_data_norm2 - cross + half_pred2
        exp._last_misfit = (key, value.copy())
    return ObjectiveValue(float(value[0]) if cs.ndim == 0 else value)


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


def penalty_factor(geo: Geometry, c, alpha: float):
    """alpha^2/(k(c) + alpha^2), the ratio of the penalty objective to the misfit.

    Exact for any data because S S^T is the scalar k(c).  Elementwise in c.
    """
    if alpha <= 0.0:
        raise ValueError("penalty weight alpha must be positive")
    a2 = alpha**2
    return a2 / (normal_constant(geo, c) + a2)


def wri_value(exp: Experiment, c, alpha: float):
    """Penalty objective min_g (1/2)(||r - S g||^2 + alpha^2 ||g||^2).

    Evaluated as its scalar reduction penalty_factor * fwi_value; c is a
    number or a 1-D array, and the value follows its shape.
    """
    return penalty_factor(exp.geo, c, alpha) * fwi_value(exp, c).value


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


def make_objective(
    exp: Experiment, kind: str, alpha: float | None = None,
    variant: str = "normalized",
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
        return lambda c: wri_value(exp, c, alpha)
    if kind == "annihilator":
        return lambda c: annihilator_value(exp, c, variant)
    raise ValueError(f"unknown objective kind {kind!r}")
