"""Uniform grids, sampled traces, the trace inner product and linear
interpolation shared by every operator in the package.

The trace inner product is the plain rectangle rule dt * sum, so that the
discrete adjoints in operators are exact matrix transposes rather than
approximate ones.  Interpolation is linear with zero extension outside the
grid span.  _window_bounds finds the samples of a time grid that a pulse
window [lo, hi] covers; the misfit kernel and the extension source both use it.
_norm is a 2-norm whose last bits do not depend on the BLAS thread count;
the verify checks and the CG solve take their norms with it.
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


def _window_bounds(grid: TimeGrid, lo, hi) -> tuple:
    """First index and length of the grid windows [lo, hi], clipped to the grid.

    Elementwise in lo and hi; an empty window has length 0.  Each end is
    widened by 1e-12 samples, so a bound that rounding puts just off a sample
    still takes that sample.
    """
    j0 = np.ceil((lo - grid.t0) / grid.dt - 1e-12)
    j1 = np.floor((hi - grid.t0) / grid.dt + 1e-12)
    j0 = np.minimum(np.maximum(j0, 0), grid.n).astype(np.int64)
    j1 = np.minimum(np.maximum(j1, -1), grid.n - 1).astype(np.int64)
    return j0, np.maximum(j1 + 1 - j0, 0)


def _require_same_grid(a, b):
    if a != b:
        raise ValueError("operands live on different grids")


def _norm(x: np.ndarray) -> np.float64:
    """The 2-norm of x from numpy's pairwise sum of its squares.  The BLAS
    dot product np.linalg.norm runs splits a sum of more than 10,000 terms
    across its threads, so its last bits depend on their number."""
    return np.sqrt(np.add.reduce(x * x))


def inner_product_trace(a: Trace, b: Trace) -> float:
    """Rectangle-rule L2 pairing dt * sum_j a_j b_j."""
    _require_same_grid(a.grid, b.grid)
    return float(a.grid.dt * np.dot(a.samples, b.samples))


def eval_interp(tr: Trace, t: np.ndarray) -> np.ndarray:
    """Linear interpolation of a trace at an array of times, zero outside."""
    g = tr.grid
    pos = (np.asarray(t, dtype=float) - g.t0) / g.dt
    out = np.zeros(pos.shape, dtype=float)
    inside = (pos >= 0.0) & (pos <= g.n - 1)
    p = pos[inside]
    k = np.floor(p).astype(int)
    k = np.minimum(k, g.n - 2)
    th = p - k
    s = tr.samples
    out[inside] = (1.0 - th) * s[k] + th * s[k + 1]
    return out

