"""Closed-form acoustics for a homogeneous 1D medium with a point source.

Everything in this module follows from the traveling-wave solution of the
first-order pressure/velocity system with constant speed c and density rho:

    pressure  p(z, t) = (1/2c) * w(t - |z - z_s|/c)
    velocity  v(z, t) = sgn(z - z_s) * (1/(2 rho c^2)) * w(t - |z - z_s|/c)

for a point source w(t) * delta(z - z_s).  Main entry points:

    Geometry            validated experiment description
    lambda_admissible_max, separation_scale
                        the width bound lam0 and the far-region scale L
    Wavelet             unit-norm source pulses w_lam(t) = lam^-1/2 w_1(t/lam),
                        w_1 the mother bump ("bump") or its derivative
                        ("bump_derivative")
    green_solution      (pressure, velocity) of the point source at (z, t)
    field_solution      (pressure, velocity) radiated by a distributed source
    point_forward       receiver trace of the point-source solution
    normal_constant     (z_max - z_min) / (4 c^2), the scalar S S^T reduces to
    mollifier           quintic cutoff around the source, with dz-derivatives
    extension_source    distributed source supported on the cutoff's
                        transition band that radiates the same receiver trace,
                        as (node, row) pairs over the band
    point_right_inverse exact inverse of point_forward on one-sided traces
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grids import Field, SpaceGrid, TimeGrid, Trace, eval_interp

# number of nodes of the mother-bump antiderivative table
_QUAD_N = 2**20 + 1

# 1/||b|| and 1/||b'|| for the mother bump b on (0, 1): the trapezoid rule on
# _QUAD_N nodes, stored so that no process pays for the quadrature
# (tests/test_acoustics.py recomputes it and asserts equality)
_NORM_BUMP = float.fromhex("0x1.962a9b7982fc2p+6")
_NORM_BUMP_DERIV = float.fromhex("0x1.55f13cb4ec03fp+4")


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


def lambda_admissible_max(geo: Geometry) -> float:
    """Largest pulse width for which every admissible arrival fits in [0, T]."""
    return geo.T - geo.transit_time(geo.c_min)


def separation_scale(geo: Geometry) -> float:
    """L = 2 c_max^2 / offset; |c - c_*| > L*lam forces disjoint pulses."""
    return 2.0 * geo.c_max**2 / geo.offset


def _require_width(geo: Geometry, lam: float):
    """Raise unless 0 < lam < lambda_admissible_max(geo)."""
    lam0 = lambda_admissible_max(geo)
    if not (0.0 < lam < lam0):
        raise ValueError(f"pulse width lam = {lam} must be positive and below the "
                         f"admissible bound {lam0} (= T - |z_s - z_r|/c_min)")


def _in_far_region(geo: Geometry, c, c_star: float, lam: float):
    """|c - c_star| > L*lam, elementwise in c: the pulses there are disjoint."""
    return np.abs(c - c_star) > separation_scale(geo) * lam


# -- mother wavelet ---------------------------------------------------------


def _mother_bump(s: np.ndarray) -> np.ndarray:
    """exp(-1/(s(1 - s))) on 0 < s < 1 and +0 elsewhere, elementwise.

    u = (1 - s) s is positive exactly where 0 < s < 1, for every double s:
    there s < 1/2 makes 1 - s at least 1/2, and s >= 1/2 makes 1 - s at
    least 2^-53, so the product never rounds to 0.  Elsewhere u is zero,
    negative or NaN (-inf where (1 - s) s overflows).  So u > 0 selects the
    support without gathering it; -1/u overflows to -inf for the smallest u,
    and exp then gives 0.
    """
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    with np.errstate(over="ignore"):
        u = (1.0 - s) * s
        inside = u > 0.0
        np.divide(-1.0, u, out=out, where=inside)
        np.exp(out, out=out, where=inside)
    return out


def _bump_on_support(s: np.ndarray) -> np.ndarray:
    """exp(-1/(s(1 - s))) for s in [0, 1], 0 at both ends, in one buffer."""
    out = np.subtract(1.0, s)
    out *= s
    with np.errstate(over="ignore", divide="ignore"):
        np.divide(-1.0, out, out=out)
        np.exp(out, out=out)
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


@functools.cache
def _bump_antiderivative_table() -> tuple[np.ndarray, np.ndarray]:
    """Cumulative integral of the unit-norm mother bump on a dense grid.

    Built in place: the bump values become the cumulative sums in one buffer.
    """
    s = np.linspace(0.0, 1.0, _QUAD_N)
    cum = _bump_on_support(s)
    cum *= _NORM_BUMP
    panels = np.add(cum[1:], cum[:-1])
    panels *= 0.5 * (s[1] - s[0])
    cum[0] = 0.0
    np.cumsum(panels, out=cum[1:])
    return s, cum


class Wavelet:
    """Unit-L2-norm source pulse supported on (0, lam).

    kinds:
      bump             w_1 = normalized exp(-1/(s(1-s))), positive, nonzero mean
      bump_derivative  w_1 = normalized d/ds of the bump, zero mean
    """

    def __init__(self, kind: str, lam: float):
        if kind not in ("bump", "bump_derivative"):
            raise ValueError(f"unknown wavelet kind {kind!r}")
        if lam <= 0.0:
            raise ValueError("wavelet width lam must be positive")
        self.kind = kind
        self.lam = float(lam)

    def value(self, t):
        s = np.asarray(t, dtype=float) / self.lam
        scale = self.lam**-0.5
        if self.kind == "bump":
            return scale * _NORM_BUMP * _mother_bump(s)
        return scale * _NORM_BUMP_DERIV * _mother_bump_deriv(s)

    def antiderivative(self, t):
        s = np.asarray(t, dtype=float) / self.lam
        scale = self.lam**0.5
        if self.kind == "bump":
            nodes, cum = _bump_antiderivative_table()
            return scale * np.interp(s, nodes, cum, left=0.0, right=cum[-1])
        # antiderivative of the normalized bump derivative is the bump itself
        return scale * _NORM_BUMP_DERIV * _mother_bump(s)


# -- closed-form solutions ---------------------------------------------------


def green_solution(geo: Geometry, c: float, w: Wavelet, z, t):
    """Pressure and velocity of the point source at positions z, times t.

    Returns the pair (p, v); z and t broadcast against each other.
    """
    _require_positive(c)
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
    _require_positive(c)
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
):
    """Distributed source supported on the mollifier transition band that
    radiates the same receiver trace as the point source.

    With phi the mollifier and W the wavelet antiderivative:

        f(z, t) = -sgn(z - z_s) phi'(z) w(t - |z - z_s|/c)
                  + (c/2) phi''(z) W(t - |z - z_s|/c)

    Returns a generator of (node, row) pairs over the band nodes of zgrid,
    in node order, each row sampled on tgrid; every other row is zero.  The
    generator can be iterated only once: a second pass yields nothing.  The
    velocity and eps are checked here, before the first row is asked for.
    """
    _require_positive(c)
    z = zgrid.points()  # mollifier checks eps
    phi1 = mollifier(geo, eps, z, order=1)
    phi2 = mollifier(geo, eps, z, order=2)
    sgn = np.sign(z - geo.z_s)
    t = tgrid.times()

    def rows():
        for i in np.flatnonzero((phi1 != 0.0) | (phi2 != 0.0)).tolist():
            arg = t - abs(z[i] - geo.z_s) / c
            row = -(sgn[i] * phi1[i]) * w.value(arg)
            row += 0.5 * c * phi2[i] * w.antiderivative(arg)
            yield i, row

    return rows()


def point_right_inverse(geo: Geometry, c: float, d: Trace, out_grid: TimeGrid) -> Trace:
    """Undo point_forward: t -> 2c * d(t + transit_time(c)), zero extended."""
    tau = geo.transit_time(c)
    t = out_grid.times()
    return Trace(out_grid, 2.0 * c * eval_interp(d, t + tau))
