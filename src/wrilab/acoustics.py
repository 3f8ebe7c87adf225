"""Closed-form acoustics for a homogeneous 1D medium with a point source.

Everything in this module follows from the traveling-wave solution of the
first-order pressure/velocity system with constant speed c and density rho:

    pressure  p(z, t) = (1/2c) * w(t - |z - z_s|/c)
    velocity  v(z, t) = sgn(z - z_s) * (1/(2 rho c^2)) * w(t - |z - z_s|/c)

for a point source w(t) * delta(z - z_s).  Main entry points:

    Geometry            validated experiment description
    Wavelet             unit-norm source pulses w_lam(t) = lam^-1/2 w_1(t/lam)
    green_solution      (pressure, velocity) of the point source at (z, t)
    field_solution      (pressure, velocity) radiated by a distributed source
    point_forward       receiver trace of the point-source solution
    normal_constant     (z_max - z_min) / (4 c^2), the scalar S S^T reduces to
    mollifier           quintic cutoff around the source, with dz-derivatives
    extension_source    distributed source supported on the cutoff's
                        transition band that radiates the same receiver trace
    point_right_inverse exact inverse of point_forward on one-sided traces
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grids import Field, SpaceGrid, TimeGrid, Trace, cumulative_integral, eval_interp

# number of nodes for the one-off mother-wavelet quadratures
_QUAD_N = 2**20 + 1


def _require_positive(c):
    """Raise unless every velocity in c (a number or an array) is positive."""
    if not (np.asarray(c) > 0.0).all():
        raise ValueError("velocity must be positive")


@dataclass(frozen=True)
class Geometry:
    """Domain, source/receiver positions, record length and velocity bounds."""

    z_min: float
    z_max: float
    z_s: float
    z_r: float
    T: float
    rho: float
    c_min: float
    c_max: float

    def __post_init__(self):
        if not self.z_min < self.z_max:
            raise ValueError("geometry violation: z_min < z_max required")
        if not (self.z_min < self.z_s < self.z_max):
            raise ValueError(
                "geometry violation: z_min < z_s < z_max required "
                "(source strictly inside the domain)"
            )
        if self.z_s == self.z_r:
            raise ValueError("geometry violation: z_s != z_r required")
        if self.rho <= 0.0:
            raise ValueError("geometry violation: rho > 0 required")
        if not (0.0 < self.c_min <= self.c_max):
            raise ValueError("geometry violation: 0 < c_min <= c_max required")
        if self.offset / self.c_min >= self.T:
            raise ValueError(
                "geometry violation: T > |z_s - z_r| / c_min required "
                "(the slowest arrival must fit in the record)"
            )

    @property
    def offset(self) -> float:
        return abs(self.z_s - self.z_r)

    @property
    def extent(self) -> float:
        return self.z_max - self.z_min

    def transit_time(self, c):
        """offset / c for a velocity or an array of velocities."""
        _require_positive(c)
        return self.offset / c

    def require_admissible(self, c: float) -> float:
        if not (self.c_min <= c <= self.c_max):
            raise ValueError(f"velocity {c} outside admissible [{self.c_min}, {self.c_max}]")
        return c

    def max_gather_shift(self) -> float:
        """Largest |z_r - z|/c over the domain and admissible velocities."""
        return max(abs(self.z_r - self.z_min), abs(self.z_r - self.z_max)) / self.c_min

    def data_grid(self, dt: float) -> TimeGrid:
        """Receiver grid covering [0, T]."""
        return TimeGrid(0.0, dt, int(round(self.T / dt)) + 1)

    def field_time_grid(self, dt: float) -> TimeGrid:
        """Field grid covering [-max_gather_shift, T] on the dt lattice."""
        n_neg = int(np.ceil(self.max_gather_shift() / dt - 1e-12))
        return TimeGrid(-n_neg * dt, dt, n_neg + int(round(self.T / dt)) + 1)

    def space_grid(self, dz: float) -> SpaceGrid:
        """Cell-centered nodes with m * dz equal to the domain extent."""
        m = max(2, int(round(self.extent / dz)))
        dz_eff = self.extent / m
        return SpaceGrid(self.z_min + 0.5 * dz_eff, dz_eff, m)


# -- mother wavelet ---------------------------------------------------------


def _mother_bump(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape, dtype=float)
    m = (s > 0.0) & (s < 1.0)
    if np.any(m):
        sm = s[m]
        with np.errstate(over="ignore", divide="ignore"):
            out[m] = np.exp(-1.0 / (sm * (1.0 - sm)))
    return out


def _mother_bump_deriv(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    b = _mother_bump(s)
    out = np.zeros(s.shape, dtype=float)
    m = b > 0.0
    if np.any(m):
        sm = s[m]
        u = (1.0 - 2.0 * sm) / (sm**2 * (1.0 - sm) ** 2)
        out[m] = b[m] * u
    return out


def _mother_bump_second(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    b = _mother_bump(s)
    out = np.zeros(s.shape, dtype=float)
    m = b > 0.0
    if np.any(m):
        sm = s[m]
        f2 = sm**2 * (1.0 - sm) ** 2
        u = (1.0 - 2.0 * sm) / f2
        du = -2.0 / f2 - 2.0 * (1.0 - 2.0 * sm) ** 2 / (sm**3 * (1.0 - sm) ** 3)
        out[m] = b[m] * (u * u + du)
    return out


@functools.cache
def _mother_constants() -> dict:
    """High-resolution quadratures fixing the unit-norm scalings."""
    s = np.linspace(0.0, 1.0, _QUAD_N)
    b = _mother_bump(s)
    bp = _mother_bump_deriv(s)
    int_b2 = float(np.trapezoid(b * b, s))
    int_b = float(np.trapezoid(b, s))
    int_bp2 = float(np.trapezoid(bp * bp, s))
    return {
        "norm_bump": 1.0 / np.sqrt(int_b2),
        "norm_bump_deriv": 1.0 / np.sqrt(int_bp2),
        "int_bump": int_b,
    }


@functools.cache
def _bump_antiderivative_table() -> tuple[np.ndarray, np.ndarray]:
    """Cumulative integral of the unit-norm mother bump on a dense grid."""
    s = np.linspace(0.0, 1.0, _QUAD_N)
    w = _mother_constants()["norm_bump"] * _mother_bump(s)
    cum = np.empty_like(w)
    cum[0] = 0.0
    np.cumsum(0.5 * (s[1] - s[0]) * (w[1:] + w[:-1]), out=cum[1:])
    return s, cum


class Wavelet:
    """Unit-L2-norm source pulse supported on (0, lam).

    kinds:
      bump             w_1 = normalized exp(-1/(s(1-s))), positive, nonzero mean
      bump_derivative  w_1 = normalized d/ds of the bump, zero mean
      tabulated        samples on a TimeGrid, evaluated by interpolation
    """

    def __init__(self, kind: str, lam: float, table: Trace | None = None):
        if kind not in ("bump", "bump_derivative", "tabulated"):
            raise ValueError(f"unknown wavelet kind {kind!r}")
        if lam <= 0.0:
            raise ValueError("wavelet width lam must be positive")
        if (table is not None) != (kind == "tabulated"):
            raise ValueError("a sample table is required exactly for kind='tabulated'")
        self.kind = kind
        self.lam = float(lam)
        self.table = table
        self._cum_table = None

    @classmethod
    def bump(cls, lam: float) -> "Wavelet":
        return cls("bump", lam)

    @classmethod
    def bump_derivative(cls, lam: float) -> "Wavelet":
        return cls("bump_derivative", lam)

    @classmethod
    def tabulated(cls, table: Trace, lam: float) -> "Wavelet":
        return cls("tabulated", lam, table=table)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "tabulated":
            return eval_interp(self.table, t)
        cst = _mother_constants()
        s = t / self.lam
        scale = self.lam**-0.5
        if self.kind == "bump":
            return scale * cst["norm_bump"] * _mother_bump(s)
        return scale * cst["norm_bump_deriv"] * _mother_bump_deriv(s)

    def derivative(self, t):
        if self.kind == "tabulated":
            raise ValueError("derivative of a tabulated wavelet is not available")
        t = np.asarray(t, dtype=float)
        cst = _mother_constants()
        s = t / self.lam
        scale = self.lam**-1.5
        if self.kind == "bump":
            return scale * cst["norm_bump"] * _mother_bump_deriv(s)
        return scale * cst["norm_bump_deriv"] * _mother_bump_second(s)

    def antiderivative(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "tabulated":
            if self._cum_table is None:
                self._cum_table = cumulative_integral(self.table)
            cum = self._cum_table
            g = cum.grid
            return np.interp(t, g.times(), cum.samples, left=0.0, right=cum.samples[-1])
        cst = _mother_constants()
        s = t / self.lam
        scale = self.lam**0.5
        if self.kind == "bump":
            nodes, cum = _bump_antiderivative_table()
            return scale * np.interp(s, nodes, cum, left=0.0, right=cum[-1])
        # antiderivative of the normalized bump derivative is the bump itself
        return scale * cst["norm_bump_deriv"] * _mother_bump(s)

    @property
    def norm_constant(self) -> float:
        """Scaling that gives the mother pulse unit L2 norm (1 for tables)."""
        if self.kind == "bump":
            return float(_mother_constants()["norm_bump"])
        if self.kind == "bump_derivative":
            return float(_mother_constants()["norm_bump_deriv"])
        return 1.0

    def eval(self, t, mode: str = "value"):
        if mode == "value":
            return self.value(t)
        if mode == "derivative":
            return self.derivative(t)
        if mode == "antiderivative":
            return self.antiderivative(t)
        raise ValueError(f"unknown wavelet eval mode {mode!r}")


# -- closed-form solutions ---------------------------------------------------


def green_solution(geo: Geometry, c: float, w: Wavelet, z, t):
    """Pressure and velocity of the point source at positions z, times t.

    Returns the pair (p, v); z and t broadcast against each other.
    """
    if c <= 0.0:
        raise ValueError("velocity must be positive")
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    val = w.value(t - np.abs(z - geo.z_s) / c)
    p = val / (2.0 * c)
    v = np.sign(z - geo.z_s) * val / (2.0 * geo.rho * c * c)
    return p, v


def field_solution(geo: Geometry, c: float, f: Field, z: float, t):
    """Pressure and velocity at position z radiated by a distributed source.

    Superposes the traveling-wave response of every source node by the
    rectangle rule in z and linear interpolation in time:

        p(z, t) = (1/2c)         * sum_i dz * f(z_i, t - |z - z_i|/c)
        v(z, t) = (1/2 rho c^2)  * sum_i dz * sgn(z - z_i) * f(...)

    Returns the pair (p, v) evaluated at the requested times.
    """
    if c <= 0.0:
        raise ValueError("velocity must be positive")
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    nodes = f.zgrid.points()
    acc_p = np.zeros(t.shape, dtype=float)
    acc_v = np.zeros(t.shape, dtype=float)
    for i, z_i in enumerate(nodes):
        row = Trace(f.tgrid, f.values[i])
        vals = eval_interp(row, t - abs(z - z_i) / c)
        acc_p += vals
        acc_v += np.sign(z - z_i) * vals
    dz = f.zgrid.dz
    p = dz * acc_p / (2.0 * c)
    v = dz * acc_v / (2.0 * geo.rho * c * c)
    if scalar:
        return float(p[0]), float(v[0])
    return p, v


def point_forward(geo: Geometry, c: float, w: Wavelet, tgrid: TimeGrid) -> Trace:
    """Receiver trace of the point source: (1/2c) w(t - transit_time(c))."""
    tau = geo.transit_time(c)
    t = tgrid.times()
    return Trace(tgrid, w.value(t - tau) / (2.0 * c))


def normal_constant(geo: Geometry, c):
    """Scalar value of S S^T for the distributed forward map (elementwise in c)."""
    _require_positive(c)
    return geo.extent / (4.0 * c * c)


# -- mollifier and the distributed equivalent source -------------------------


def _check_eps(geo: Geometry, eps: float):
    limit = min(abs(geo.z_r - geo.z_s), geo.z_s - geo.z_min, geo.z_max - geo.z_s)
    if not (0.0 < eps < limit):
        raise ValueError(
            f"mollifier width eps must lie in (0, {limit}); got {eps}"
        )


def mollifier(geo: Geometry, eps: float, z, order: int = 0):
    """Quintic cutoff around the source: 1 inside |z - z_s| <= eps/2, 0 outside
    |z - z_s| >= eps, C^2 across the transition band.

    order = 0, 1, 2 selects the function or its z-derivatives.
    """
    _check_eps(geo, eps)
    z = np.asarray(z, dtype=float)
    r = np.abs(z - geo.z_s)
    u = np.clip(2.0 * r / eps - 1.0, 0.0, 1.0)
    if order == 0:
        return 1.0 - (10.0 * u**3 - 15.0 * u**4 + 6.0 * u**5)
    band = (r > 0.5 * eps) & (r < eps)
    du = np.where(band, np.sign(z - geo.z_s) * (2.0 / eps), 0.0)
    if order == 1:
        return -30.0 * u**2 * (1.0 - u) ** 2 * du
    if order == 2:
        return -60.0 * u * (1.0 - u) * (1.0 - 2.0 * u) * du * du
    raise ValueError("mollifier derivative order must be 0, 1 or 2")


def extension_source(
    geo: Geometry, c: float, w: Wavelet, eps: float,
    zgrid: SpaceGrid, tgrid: TimeGrid,
) -> Field:
    """Distributed source supported on the mollifier transition band that
    radiates the same receiver trace as the point source.

    With phi the mollifier and W the wavelet antiderivative:

        f(z, t) = -sgn(z - z_s) phi'(z) w(t - |z - z_s|/c)
                  + (c/2) phi''(z) W(t - |z - z_s|/c)
    """
    _check_eps(geo, eps)
    if c <= 0.0:
        raise ValueError("velocity must be positive")
    z = zgrid.points()
    phi1 = mollifier(geo, eps, z, order=1)
    phi2 = mollifier(geo, eps, z, order=2)
    sgn = np.sign(z - geo.z_s)
    vals = np.zeros((zgrid.m, tgrid.n))
    band = (phi1 != 0.0) | (phi2 != 0.0)
    if np.any(band):
        arg = tgrid.times()[None, :] - (np.abs(z[band] - geo.z_s) / c)[:, None]
        vals[band] = (-(sgn[band] * phi1[band]))[:, None] * w.value(arg)
        vals[band] += (0.5 * c * phi2[band])[:, None] * w.antiderivative(arg)
    return Field(zgrid, tgrid, vals)


def point_right_inverse(geo: Geometry, c: float, d: Trace, out_grid: TimeGrid) -> Trace:
    """Undo point_forward: t -> 2c * d(t + transit_time(c)), zero extended."""
    tau = geo.transit_time(c)
    t = out_grid.times()
    return Trace(out_grid, 2.0 * c * eval_interp(d, t + tau))
