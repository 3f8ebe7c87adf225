"""Matrix-free discretizations of the distributed forward map and its adjoint.

The forward map integrates a source field along receiver moveout curves,

    (S f)(t) = (1/2c) * sum_i w_z * f(z_i, t - |z_r - z_i|/c),

with linear interpolation in time.  The field and data grids share one dt
(from_grids raises otherwise), so data sample j of z node i reads field
sample j + k_i + theta_i: a whole-sample shift k_i and a fraction theta_i in
[0, 1), both fixed when the operator is built.  Each node then touches one
contiguous range of data samples, and gather/scatter are slice arithmetic
over it (two taps, or one when theta_i = 0); a read past either end of the
field grid is zero.  The adjoint is the exact transpose with respect to the
rectangle-rule inner products, so adjoint tests pass at machine precision.

Both maps work one z-node row at a time: apply_rows takes a field as
(node, row) pairs, a node without a row reading as zero, and adjoint_row
gives one row of S^T e.  No check holds a whole field: adjoint_test draws
each probe row as it is consumed, and the extension source yields its band
rows alone.

Two grid layouts are provided:

    make_discrete_S   cell-centered z nodes, arbitrary fractions (generic)
    make_aligned_S    z nodes placed so every theta_i = 0; S S^T is then
                      exactly scalar, which the data-space CG solver exploits
                      and the CG reference of the penalty objective in
                      checks relies on

cg_solve_dataspace runs conjugate gradients on e -> S(S^T e) + alpha^2 e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .acoustics import Geometry, _require_positive
from .grids import Field, SpaceGrid, TimeGrid, Trace, eval_interp


@dataclass
class LinearMap:
    """Discrete forward map between a field and a receiver trace."""

    geo: Geometry
    c: float
    zgrid: SpaceGrid
    field_tgrid: TimeGrid
    data_tgrid: TimeGrid
    z_weight: float
    # data sample j of node i reads field sample j + _shift[i] + _frac[i]
    _shift: np.ndarray
    _frac: np.ndarray
    # per node (lo, hi, shift, frac): data samples lo..hi-1 read inside the field
    _taps: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nd, nf = self.data_tgrid.n, self.field_tgrid.n
        self._taps = []
        for k, th in zip(self._shift.tolist(), self._frac.tolist()):
            # the second tap (theta > 0) needs one more field sample
            lo, hi = max(0, -k), min(nd, nf - k - (th > 0.0))
            self._taps.append((lo, max(lo, hi), k, th))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_grids(
        cls, geo: Geometry, c: float, zgrid: SpaceGrid,
        field_tgrid: TimeGrid, data_tgrid: TimeGrid,
    ) -> "LinearMap":
        _require_positive(c)
        if field_tgrid.dt != data_tgrid.dt:
            raise ValueError("field and data grids must share dt")
        shifts = np.abs(geo.z_r - zgrid.points()) / c
        pos = (data_tgrid.t0 - shifts - field_tgrid.t0) / field_tgrid.dt
        # frac rounds to 1.0 only for a position a hair below a whole sample,
        # which then reads the next sample whole, as the exact position would
        shift = np.floor(pos)
        return cls(geo, c, zgrid, field_tgrid, data_tgrid, zgrid.dz,
                   shift.astype(int), pos - shift)

    # -- application ---------------------------------------------------------

    def _gather(self, row: np.ndarray, i: int) -> np.ndarray:
        """row sampled at the data times shifted for node i, zero outside."""
        lo, hi, k, th = self._taps[i]
        out = np.zeros(self.data_tgrid.n)
        a = row[lo + k:hi + k]
        out[lo:hi] = a if th == 0.0 else (1.0 - th) * a + th * row[lo + k + 1:hi + k + 1]
        return out

    def _scatter(self, e: np.ndarray, i: int) -> np.ndarray:
        """Exact transpose of _gather, as a field-grid row."""
        lo, hi, k, th = self._taps[i]
        row = np.zeros(self.field_tgrid.n)
        ei = e[lo:hi]
        if th == 0.0:
            row[lo + k:hi + k] = ei
        else:
            row[lo + k:hi + k] = (1.0 - th) * ei
            row[lo + k + 1:hi + k + 1] += th * ei
        return row

    def _check_row(self, i: int, samples: np.ndarray, n: int, what: str):
        if not 0 <= i < self.zgrid.m:
            raise ValueError(f"node {i} is outside the operator's {self.zgrid.m} nodes")
        if samples.shape != (n,):
            raise ValueError(f"{what} of shape {samples.shape} does not match "
                             f"the operator's {n} samples")

    def apply_rows(self, pairs) -> Trace:
        """S applied to a field given as (node, row) pairs; absent rows are 0."""
        out = np.zeros(self.data_tgrid.n)
        for i, row in pairs:
            self._check_row(i, row, self.field_tgrid.n, "field row")
            out += self._gather(row, i)
        return Trace(self.data_tgrid, self.z_weight / (2.0 * self.c) * out)

    def adjoint_row(self, e: np.ndarray, i: int) -> np.ndarray:
        """Row i (node i) of S^T e, for trace samples e."""
        self._check_row(i, e, self.data_tgrid.n, "trace")
        # transpose of apply_rows under (dt * sum) and (w_z * dt_f * sum) pairings
        factor = self.data_tgrid.dt / (2.0 * self.c * self.field_tgrid.dt)
        return factor * self._scatter(e, i)

    def adjoint_sampling(self, e: Trace) -> Field:
        """Adjoint via direct evaluation (1/2c) e(t + |z_r - z|/c)."""
        shifts = np.abs(self.geo.z_r - self.zgrid.points()) / self.c
        t = self.field_tgrid.times()
        vals = np.empty((self.zgrid.m, self.field_tgrid.n))
        for i in range(self.zgrid.m):
            vals[i] = eval_interp(e, t + shifts[i]) / (2.0 * self.c)
        return Field(self.zgrid, self.field_tgrid, vals)

    def normal_apply(self, e: np.ndarray, alpha: float = 0.0) -> np.ndarray:
        """S(S^T e) + alpha^2 e without materializing the field."""
        gain = self.z_weight * self.data_tgrid.dt / (
            4.0 * self.c * self.c * self.field_tgrid.dt
        )
        acc = (alpha * alpha) * e
        for i in range(self.zgrid.m):
            acc = acc + gain * self._gather(self._scatter(e, i), i)
        return acc


def make_discrete_S(geo: Geometry, c: float, dz: float, dt: float) -> LinearMap:
    """Default discretization on cell-centered z nodes and the dt lattice."""
    return LinearMap.from_grids(
        geo, c, geo.space_grid(dz), geo.field_time_grid(dt), geo.data_grid(dt)
    )


def make_aligned_S(
    geo: Geometry, c: float, data_tgrid: TimeGrid, dz_hint: float
) -> LinearMap:
    """Discretization whose time shifts are exact multiples of the data dt.

    z nodes sit at z_r + k * (q c dt) for integers k, so |z_r - z_i|/c is
    |k| q dt exactly; every fraction is 0, gather/scatter move whole samples
    (a node at z_r reads up to the last field sample) and S S^T acts as
    the scalar z_extent/(4 c^2) on traces, to machine precision.  The node
    weight is extent/m so the z quadrature reproduces the extent exactly.
    """
    _require_positive(c)
    dt = data_tgrid.dt
    q = max(1, int(round(dz_hint / (c * dt))))
    delta = q * c * dt
    k_lo = int(np.ceil((geo.z_min - geo.z_r) / delta - 1e-9))
    k_hi = int(np.floor((geo.z_max - geo.z_r) / delta + 1e-9))
    if k_hi < k_lo:
        raise ValueError("aligned grid spacing exceeds the domain extent")
    ks = np.arange(k_lo, k_hi + 1)
    zgrid = SpaceGrid(geo.z_r + k_lo * delta, delta, len(ks))
    counts = np.abs(ks) * q
    n_max = int(counts.max())
    field_tgrid = TimeGrid(data_tgrid.t0 - n_max * dt, dt, n_max + data_tgrid.n)
    return LinearMap(geo, c, zgrid, field_tgrid, data_tgrid, geo.extent / len(ks),
                     n_max - counts, np.zeros(len(ks)))


def forward_general(
    geo: Geometry, c: float, zgrid: SpaceGrid, tgrid: TimeGrid, rows,
    out_grid: TimeGrid,
) -> Trace:
    """Distributed forward map applied to a source sampled on (zgrid, tgrid)
    and given as (node, row) pairs; a node without a row contributes 0."""
    op = LinearMap.from_grids(geo, c, zgrid, tgrid, out_grid)
    return op.apply_rows(rows)


def adjoint_test(op: LinearMap, n_probes: int = 10, seed: int = 0) -> float:
    """Largest relative dot-product mismatch over random probe pairs.

    Probes are uniform(-1, 1) samples from a seeded generator, the trace e
    first and then the field; the mismatch per pair is
    |<S f, e> - <f, S^T e>| / (||S f|| ||e|| + tiny) with the rectangle-rule
    pairings that the transpose is exact for.  The field is drawn one z-node
    row at a time as apply_rows consumes it, and each row is dotted with
    adjoint_row as it passes, so no field is ever held.
    """
    def probe_rows(rng, e, row_dots):
        """Drawn (node, row) pairs, each dotted with S^T e in passing."""
        for i in range(op.zgrid.m):
            row = rng.uniform(-1.0, 1.0, op.field_tgrid.n)
            row_dots.append(float(np.dot(row, op.adjoint_row(e, i))))
            yield i, row

    rng = np.random.default_rng(seed)
    dt = op.data_tgrid.dt
    worst = 0.0
    for _ in range(n_probes):
        e = rng.uniform(-1.0, 1.0, op.data_tgrid.n)
        row_dots = []
        sf = op.apply_rows(probe_rows(rng, e, row_dots)).samples
        lhs = dt * float(np.dot(sf, e))
        rhs = op.z_weight * op.field_tgrid.dt * math.fsum(row_dots)
        norm_sf = np.sqrt(dt * float(np.dot(sf, sf)))
        norm_e = np.sqrt(dt * float(np.dot(e, e)))
        denom = norm_sf * norm_e + np.finfo(float).tiny
        worst = max(worst, abs(lhs - rhs) / denom)
    return worst


@dataclass
class CgReport:
    """Solution and convergence record of a data-space CG solve."""

    solution: Trace
    iterations: int
    final_relative_residual: float
    converged: bool


def cg_solve_dataspace(op: LinearMap, alpha: float, rhs: Trace) -> CgReport:
    """CG on the SPD data-space operator e -> S(S^T e) + alpha^2 e.

    Stops at relative residual 1e-10 or after 10 iterations per data sample.
    """
    tol = 1e-10
    if alpha <= 0.0:
        raise ValueError("regularization weight alpha must be positive")
    if rhs.grid != op.data_tgrid:
        raise ValueError("rhs grid does not match the operator")
    b = rhs.samples
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return CgReport(Trace(rhs.grid, np.zeros_like(b)), 0, 0.0, True)
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(np.dot(r, r))
    it = 0
    while it < 10 * b.size and np.sqrt(rs) / nb > tol:
        ap = op.normal_apply(p, alpha)
        denom = float(np.dot(p, ap))
        if not np.isfinite(denom) or denom <= 0.0:
            raise FloatingPointError("cg_solve_dataspace: numerical breakdown")
        a = rs / denom
        x += a * p
        r -= a * ap
        rs_new = float(np.dot(r, r))
        if not np.isfinite(rs_new):
            raise FloatingPointError("cg_solve_dataspace: numerical breakdown")
        p = r + (rs_new / rs) * p
        rs = rs_new
        it += 1
    rel = float(np.sqrt(rs) / nb)
    return CgReport(Trace(rhs.grid, x), it, rel, rel <= tol)
