"""Uniform grids, sampled traces/fields, and the quadrature rules shared by
every operator in the package.

All inner products use the plain rectangle rule (dt * sum, dz * dt * sum) so
that discrete adjoints are exact matrix transposes rather than approximate
ones.  Interpolation is linear with zero extension outside the grid span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t_j = t0 + j*dt, j = 0..n-1."""

    t0: float
    dt: float
    n: int

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("time grid step dt must be positive")
        if self.n < 2:
            raise ValueError("time grid needs at least two samples")

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform space grid z_i = z0 + i*dz, i = 0..m-1."""

    z0: float
    dz: float
    m: int

    def __post_init__(self):
        if self.dz <= 0.0:
            raise ValueError("space grid step dz must be positive")
        if self.m < 2:
            raise ValueError("space grid needs at least two nodes")

    def points(self) -> np.ndarray:
        return self.z0 + self.dz * np.arange(self.m)


@dataclass
class Trace:
    """Samples of a time signal on a TimeGrid."""

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.shape != (self.grid.n,):
            raise ValueError(
                f"trace samples shape {self.samples.shape} does not match "
                f"grid length {self.grid.n}"
            )


@dataclass
class Field:
    """Samples of a space-time field, values[i, j] = f(z_i, t_j)."""

    zgrid: SpaceGrid
    tgrid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.zgrid.m, self.tgrid.n):
            raise ValueError(
                f"field values shape {self.values.shape} does not match grids "
                f"({self.zgrid.m}, {self.tgrid.n})"
            )


def _require_same_grid(a, b):
    if a != b:
        raise ValueError("operands live on different grids")


def inner_product_trace(a: Trace, b: Trace) -> float:
    """Rectangle-rule L2 pairing dt * sum_j a_j b_j."""
    _require_same_grid(a.grid, b.grid)
    return float(a.grid.dt * np.dot(a.samples, b.samples))


def inner_product_field(f: Field, g: Field) -> float:
    """Rectangle-rule pairing dz * dt * sum_ij f_ij g_ij."""
    _require_same_grid(f.zgrid, g.zgrid)
    _require_same_grid(f.tgrid, g.tgrid)
    w = f.zgrid.dz * f.tgrid.dt
    return float(w * np.dot(f.values.ravel(), g.values.ravel()))


def eval_interp(tr: Trace, t) -> np.ndarray | float:
    """Linear interpolation of a trace at arbitrary times, zero outside."""
    g = tr.grid
    t = np.asarray(t, dtype=float)
    pos = (t - g.t0) / g.dt
    scalar = pos.ndim == 0
    pos = np.atleast_1d(pos)
    out = np.zeros(pos.shape, dtype=float)
    inside = (pos >= 0.0) & (pos <= g.n - 1)
    p = pos[inside]
    k = np.floor(p).astype(int)
    k = np.minimum(k, g.n - 2)
    th = p - k
    s = tr.samples
    out[inside] = (1.0 - th) * s[k] + th * s[k + 1]
    return float(out[0]) if scalar else out


def cumulative_integral(tr: Trace) -> Trace:
    """Running trapezoid integral, anchored to zero at the first sample."""
    s = tr.samples
    dt = tr.grid.dt
    out = np.empty_like(s)
    out[0] = 0.0
    np.cumsum(0.5 * dt * (s[1:] + s[:-1]), out=out[1:])
    return Trace(tr.grid, out)
