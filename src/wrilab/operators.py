"""Matrix-free discretizations of the distributed forward map and its adjoint.

The forward map integrates a source field along receiver moveout curves,

    (S f)(t) = (1/2c) * sum_i w_z * f(z_i, t - |z_r - z_i|/c),

with linear interpolation in time.  The adjoint is the exact transpose with
respect to the rectangle-rule inner products, so adjoint tests pass at machine
precision.  Two grid layouts are provided:

    make_discrete_S   cell-centered z nodes, arbitrary time shifts (generic)
    make_aligned_S    z nodes placed so every time shift is an integer number
                      of samples; S S^T is then exactly scalar, which the
                      data-space CG solver exploits and the variational
                      objective route relies on

cg_solve_dataspace runs conjugate gradients on e -> S(S^T e) + alpha^2 e.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    # per-node gather positions in field-grid index units: pos_i(j) = j*step + off_i
    _step: float
    _offsets: np.ndarray

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_grids(
        cls, geo: Geometry, c: float, zgrid: SpaceGrid,
        field_tgrid: TimeGrid, data_tgrid: TimeGrid, z_weight: float | None = None,
    ) -> "LinearMap":
        _require_positive(c)
        shifts = np.abs(geo.z_r - zgrid.points()) / c
        step = data_tgrid.dt / field_tgrid.dt
        offsets = (data_tgrid.t0 - shifts - field_tgrid.t0) / field_tgrid.dt
        return cls(
            geo, c, zgrid, field_tgrid, data_tgrid,
            zgrid.dz if z_weight is None else z_weight, step, offsets,
        )

    @property
    def aligned(self) -> bool:
        """True when every gather position is an exact integer sample."""
        return bool(np.all(np.abs(self._offsets - np.round(self._offsets)) < 1e-9)
                    and abs(self._step - round(self._step)) < 1e-12)

    # -- application ---------------------------------------------------------

    def _gather(self, row: np.ndarray, i: int) -> np.ndarray:
        """row sampled at the data times shifted for node i, zero outside."""
        nf = self.field_tgrid.n
        pos = self._step * np.arange(self.data_tgrid.n) + self._offsets[i]
        out = np.zeros(self.data_tgrid.n)
        inside = (pos >= 0.0) & (pos <= nf - 1)
        p = pos[inside]
        k = np.minimum(np.floor(p).astype(int), nf - 2)
        th = p - k
        out[inside] = (1.0 - th) * row[k] + th * row[k + 1]
        return out

    def _scatter(self, e: np.ndarray, i: int) -> np.ndarray:
        """Exact transpose of _gather, as a field-grid row."""
        nf = self.field_tgrid.n
        pos = self._step * np.arange(self.data_tgrid.n) + self._offsets[i]
        inside = (pos >= 0.0) & (pos <= nf - 1)
        p = pos[inside]
        k = np.minimum(np.floor(p).astype(int), nf - 2)
        th = p - k
        ei = e[inside]
        row = np.bincount(k, weights=(1.0 - th) * ei, minlength=nf)
        row += np.bincount(k + 1, weights=th * ei, minlength=nf)
        return row

    def apply(self, f: Field) -> Trace:
        if f.zgrid != self.zgrid or f.tgrid != self.field_tgrid:
            raise ValueError("field grids do not match the operator")
        scale = self.z_weight / (2.0 * self.c)
        out = np.zeros(self.data_tgrid.n)
        for i in range(self.zgrid.m):
            out += self._gather(f.values[i], i)
        return Trace(self.data_tgrid, scale * out)

    def apply_adjoint(self, e: Trace) -> Field:
        if e.grid != self.data_tgrid:
            raise ValueError("trace grid does not match the operator")
        # transpose of apply under (dt * sum) and (w_z * dt_f * sum) pairings
        factor = self.data_tgrid.dt / (2.0 * self.c * self.field_tgrid.dt)
        vals = np.empty((self.zgrid.m, self.field_tgrid.n))
        for i in range(self.zgrid.m):
            vals[i] = factor * self._scatter(e.samples, i)
        return Field(self.zgrid, self.field_tgrid, vals)

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
    |k| q dt exactly; gather/scatter then move whole samples and S S^T acts as
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
    # exact integer sample shifts in place of the float-derived positions
    return LinearMap(geo, c, zgrid, field_tgrid, data_tgrid, geo.extent / len(ks),
                     1.0, (n_max - counts).astype(float))


def forward_general(geo: Geometry, c: float, f: Field, out_grid: TimeGrid) -> Trace:
    """Distributed forward map applied to an arbitrary sampled field."""
    op = LinearMap.from_grids(geo, c, f.zgrid, f.tgrid, out_grid)
    return op.apply(f)


def adjoint_general(
    geo: Geometry, c: float, e: Trace, zgrid: SpaceGrid, field_tgrid: TimeGrid,
    method: str = "transpose",
) -> Field:
    """Adjoint of the distributed forward map, transpose or sampling flavor."""
    op = LinearMap.from_grids(geo, c, zgrid, field_tgrid, e.grid)
    if method == "transpose":
        return op.apply_adjoint(e)
    if method == "sampling":
        return op.adjoint_sampling(e)
    raise ValueError(f"unknown adjoint method {method!r}")


def adjoint_test(op: LinearMap, n_probes: int = 10, seed: int = 0) -> float:
    """Largest relative dot-product mismatch over random probe pairs.

    Probes are uniform(-1, 1) samples from a seeded generator; the mismatch
    per pair is |<S f, e> - <f, S^T e>| / (||S f|| ||e|| + tiny) with the
    rectangle-rule pairings that the transpose is exact for.
    """
    rng = np.random.default_rng(seed)
    dt = op.data_tgrid.dt
    worst = 0.0
    for _ in range(n_probes):
        f = Field(
            op.zgrid, op.field_tgrid,
            rng.uniform(-1.0, 1.0, (op.zgrid.m, op.field_tgrid.n)),
        )
        e = Trace(op.data_tgrid, rng.uniform(-1.0, 1.0, op.data_tgrid.n))
        sf = op.apply(f)
        lhs = dt * float(np.dot(sf.samples, e.samples))
        g = op.apply_adjoint(e)
        rhs = op.z_weight * op.field_tgrid.dt * float(
            np.dot(f.values.ravel(), g.values.ravel())
        )
        norm_sf = np.sqrt(dt * float(np.dot(sf.samples, sf.samples)))
        norm_e = np.sqrt(dt * float(np.dot(e.samples, e.samples)))
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


def cg_solve_dataspace(
    op: LinearMap, alpha: float, rhs: Trace,
    tol: float = 1e-10, maxiter: int | None = None,
) -> CgReport:
    """CG on the SPD data-space operator e -> S(S^T e) + alpha^2 e."""
    if alpha <= 0.0:
        raise ValueError("regularization weight alpha must be positive")
    if rhs.grid != op.data_tgrid:
        raise ValueError("rhs grid does not match the operator")
    b = rhs.samples
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return CgReport(Trace(rhs.grid, np.zeros_like(b)), 0, 0.0, True)
    if maxiter is None:
        maxiter = 10 * rhs.grid.n
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(np.dot(r, r))
    it = 0
    while it < maxiter and np.sqrt(rs) / nb > tol:
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
