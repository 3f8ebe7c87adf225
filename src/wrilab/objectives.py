"""Data-misfit objectives for the single-receiver transmission problem.

Everything here is evaluated from closed-form traces: the consistent data
d(t) = (1/2 c_*) w(t - tau(c_*)) and the prediction (1/2c) w(t - tau(c)) are
sampled analytically, so quadrature on the data grid is the only source of
numerical error.  Velocity is a batch axis: fwi_value, wri_value,
annihilator_value and fwi_plateau take a number or an array of c, and each
value follows its shape.  Every misfit value comes from one kernel,
_pulse_terms, that finds the pulse windows of all velocities at once,
samples them in blocks of _ROW_BLOCK rows and reduces each block's first m
columns with np.vecdot for each window length m.  The blocks' sample times
and data are row gathers from read-only sliding-window views that the
Experiment builds once, padded past the record end by the longest window.
The times are t0 + dt*j, the same doubles a single window's times are,
and the data are the samples themselves.  np.vecdot runs the same BLAS ddot
on each row that np.dot runs on one window, over the same window a single
velocity would use, so a batched value equals the unbatched one bit for
bit, whatever block it falls in.  Every objective is a pure function
of the experiment and the velocities: a call writes nothing, so a caller
that needs the penalty objective on a grid whose misfit it holds multiplies
that misfit by penalty_factor, which is what wri_value computes.

Objectives:

    fwi_value           (1/2) || prediction - data ||^2 over [0, T]
    fwi_plateau         far-region constant (1/2)(1/(4c^2) + 1/(4c_*^2))
    penalty_factor      alpha^2/(k(c) + alpha^2), penalty over misfit
    wri_value           penalty objective, penalty_factor * fwi_value
    annihilator_value   moments of the back-propagated data u = S_p^T d

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
from .grids import Trace, _window_bounds


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

    def __post_init__(self):
        self.geo.require_admissible(self.c_star)
        grid = self.data.grid
        # grids._window_bounds widens each end by 1e-12 samples, so no window
        # holds more than floor(lam/dt + 2e-12) + 1 samples; one more covers
        # the rounding of the two bounds
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


# rows of each block of the misfit kernel, the one bound on the rows a call
# samples at once: a caller sends all its velocities in one call (basin_map
# one call per round, up to 1,384 rows on cfg0), and RunConfig bounds a
# block's samples.  At cfg0's widest pulse a block's arrays are (512, 161),
# 0.63 MiB each: the 2,001-point scan grid holds about 2 MiB traced in such
# blocks, 7.5 MiB as one block.
_ROW_BLOCK = 512


@dataclass
class ObjectiveValue:
    """Value of an objective at one velocity or a 1-D array of them."""

    value: float


def _pulse_terms(exp: Experiment, c: np.ndarray) -> tuple:
    """Transit times, cross terms and half prediction norms for a 1-D array of c.

    The transit times and pulse windows of all velocities are found once;
    the predictions are then sampled _ROW_BLOCK rows at a time, each block
    (k, W), W the longest window in the block.  Its sample times and the
    data under it are gathered as the rows j0 (each window's first sample)
    of the experiment's window views cut to W columns, with no index block.
    A row holds the doubles t0 + dt*j and d[j] of the window's samples j;
    the times are shifted by tau, sampled and divided by 2c in place, in the
    order of (1/2c) w(t - tau), so each row equals its window sampled alone,
    bit for bit.  The whole block is reduced with np.vecdot, which is the
    result of every row whose window has W samples; for each shorter window
    length m the first m columns are reduced, and the rows whose window has
    m samples take that result.  Each row is still one unit-stride BLAS ddot
    over exactly its window, the one np.dot runs on that window alone, so a
    batched value equals the single-velocity one bit for bit, whatever the
    block it falls in.  A block costs one reduction pair per distinct
    length, and velocities in [c_min, c_max] give at most two lengths
    (floor or ceil of lam/dt samples); only windows cut by the record end
    add more.  The other reductions were rejected because they change the
    summation order and hence the last bits: a padded row (zeros past a
    shorter window), einsum, and a row sum (p * q).sum(1).
    """
    grid = exp.data.grid
    tau = exp.geo.transit_time(c)
    j0, size = _window_bounds(grid, tau, tau + exp.lam)
    pad = exp._windows[0].shape[1]
    if size.max(initial=0) > pad:
        raise ValueError(f"pulse window of {size.max()} samples is longer than the "
                         f"{pad} the experiment was built for")
    cross = np.empty(c.shape)
    norm2 = np.empty(c.shape)
    for r in range(0, c.size, _ROW_BLOCK):
        b = slice(r, r + _ROW_BLOCK)
        cross[b], norm2[b] = _block_terms(exp, j0[b], size[b], tau[b], c[b])
    return tau, grid.dt * cross, 0.5 * grid.dt * norm2


def _block_terms(exp: Experiment, j0, size, tau, c) -> tuple:
    """d.p and p.p over each window of one block of _pulse_terms' rows.

    A function of its own, so that a block's arrays are freed before the
    next block's are made.
    """
    times, data = exp._windows
    width = size.max()
    t = times[j0, :width]
    t -= tau[:, None]
    pred = exp.wavelet.value(t)
    pred /= (2.0 * c)[:, None]
    d = data[j0, :width]
    cross = np.vecdot(d, pred)
    norm2 = np.vecdot(pred, pred)
    for m in set(size.tolist()) - {width}:
        rows = size == m
        p = pred[:, :m]
        cross[rows] = np.vecdot(d[:, :m], p)[rows]
        norm2[rows] = np.vecdot(p, p)[rows]
    return cross, norm2


def fwi_value(exp: Experiment, c) -> ObjectiveValue:
    """Least-squares misfit (1/2)||(1/2c) w(t - tau(c)) - d||^2 over [0, T].

    Only the pulse window [tau(c), tau(c) + lam] is touched; the data norm is
    cached, so an evaluation costs O(lam/dt) work per velocity.  c is a number
    or an array of any shape; the value follows its shape.
    """
    cs = np.asarray(c, dtype=float)
    _, cross, half_pred2 = _pulse_terms(exp, cs.reshape(-1))
    value = exp.half_data_norm2 - cross + half_pred2
    return ObjectiveValue(float(value[0]) if cs.ndim == 0 else value.reshape(cs.shape))


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
    if not alpha > 0.0:
        raise ValueError("penalty weight alpha must be positive")
    a2 = alpha**2
    return a2 / (normal_constant(geo, c) + a2)


def wri_value(exp: Experiment, c, alpha: float):
    """Penalty objective min_g (1/2)(||r - S g||^2 + alpha^2 ||g||^2).

    Evaluated as its scalar reduction penalty_factor * fwi_value; c is a
    number or an array, and the value follows its shape.
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

