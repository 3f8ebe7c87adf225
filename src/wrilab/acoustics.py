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
                        ("bump_derivative"); the bump's antiderivative is
                        cubic Hermite on a 64 KiB table of 2^12 panels
    point_forward       receiver trace of the point-source solution, sampled
                        on its pulse window
    normal_constant     (z_max - z_min) / (4 c^2), the scalar S S^T reduces to
    mollifier           quintic cutoff around the source, with dz-derivatives
    extension_source    distributed source supported on the cutoff's
                        transition band that radiates the same receiver trace,
                        as (node, row) pairs over the band, each row computed
                        on its pulse window only
    point_right_inverse exact inverse of point_forward on one-sided traces
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .grids import SpaceGrid, TimeGrid, Trace, _window_bounds, eval_interp

# the bump antiderivative's cubic Hermite table: _W_PANELS panels of [0, 1],
# each node value summed from 10-point Gauss-Legendre panel integrals, whose
# positive nodes and weights are the doubles numpy.polynomial's leggauss(10)
# gives, mirrored there exactly (tests/test_acoustics.py checks both)
_W_PANELS = 2**12
_GL_NODES = (0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
             0.8650633666889845, 0.9739065285171717)
_GL_WEIGHTS = (0.2955242247147528, 0.2692667193099965, 0.219086362515982,
               0.1494513491505804, 0.06667134430868814)

# 1/||b|| and 1/||b'|| for the mother bump b on (0, 1): the trapezoid rule on
# 2^20 + 1 nodes, stored so that no process pays for the quadrature
# (tests/test_acoustics.py recomputes it and asserts equality)
_NORM_BUMP = float.fromhex("0x1.962a9b7982fc2p+6")
_NORM_BUMP_DERIV = float.fromhex("0x1.55f13cb4ec03fp+4")

# the smallest normal double, 2^-1022: _mother_bump's floor for (1 - s) s
_TINY = float.fromhex("0x1p-1022")

# band rows per window block of extension_source: 16 rows of cfg0's refined
# windows are about 42 KB per array (a block of the whole band read 4.2 MiB
# traced in verify's refined extension check, 16 rows 1.30 MiB)
_EXTENSION_BLOCK = 16


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
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"geometry violation: {f.name} must be finite; "
                                 f"got {getattr(self, f.name)}")
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
        if not (0.0 < self.c_min < self.c_max):
            raise ValueError("geometry violation: 0 < c_min < c_max required")
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


def _check_steps(geo, init_step=None, fd_h=None) -> tuple:
    """descent.basin_map's init_step and fd_h on geo's velocity interval, None
    for their defaults; ValueError names the one outside its range."""
    span = geo.c_max - geo.c_min
    step0 = span / 100.0 if init_step is None else init_step
    h = 1e-6 * span if fd_h is None else fd_h
    for name, given in (("init_step", step0), ("fd_h", h)):
        if not 0.0 < given < np.inf:
            raise ValueError(f"{name} must be positive and finite; got {given}")
    if geo.c_min + step0 >= geo.c_max or geo.c_max - step0 <= geo.c_min:
        raise ValueError("init_step must not reach from one velocity bound to the "
                         f"other; got {step0} on [{geo.c_min}, {geo.c_max}]")
    if h >= geo.c_min:
        raise ValueError(f"fd_h must be below c_min = {geo.c_min}, so that every "
                         f"gradient pair's c - fd_h is positive; got {h}")
    return step0, h


def _in_far_region(geo: Geometry, c, c_star: float, lam: float):
    """|c - c_star| > L*lam, elementwise in c: the pulses there are disjoint."""
    return np.abs(c - c_star) > separation_scale(geo) * lam


# -- mother wavelet ---------------------------------------------------------


def _mother_bump(s: np.ndarray) -> np.ndarray:
    """exp(-1/(s(1 - s))) on 0 < s < 1 and +0 elsewhere, elementwise.

    The result is one new buffer, an array also for a 0-d s; s is never
    written.  u = (1 - s) s is positive exactly where 0 < s < 1, for every
    double s: there s < 1/2 makes 1 - s at least 1/2, and s >= 1/2 makes
    1 - s at least 2^-53, so the product never rounds to 0.  Elsewhere u is
    zero, negative or NaN (-inf where (1 - s) s overflows).  fmax(u, tiny),
    tiny the smallest normal double, sends those to tiny (fmax takes tiny
    over a NaN) and raises a positive u below tiny to tiny; exp(-1/tiny) is
    +0.0, as exp(-1/u) is for every such u.  So every element takes the same
    five passes, with no mask and no gather, and equals the formula bit for
    bit.  Samples outside the support cost as much as those inside, which a
    mask would skip: window blocks are cheaper this way, and long rows that
    are mostly zero dearer.
    """
    s = np.asarray(s, dtype=float)
    u = np.subtract(1.0, s, out=np.empty(s.shape))
    with np.errstate(over="ignore"):
        u *= s
    np.fmax(u, _TINY, out=u)
    np.divide(-1.0, u, out=u)
    return np.exp(u, out=u)


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
    """W, the integral of the unit-norm mother bump from 0, and its slopes
    times the panel width h, at the _W_PANELS + 1 nodes j * h of [0, 1].

    Two arrays of 4,097 doubles.  Each panel's integral is 10-point
    Gauss-Legendre, _GL_NODES mirrored and taken in ascending order; W is
    their running sum with each step's rounding error (TwoSum) summed beside
    it and added back.  The slope at a node is the bump itself there.  The
    bump underflows on the first and last five panels, so W is exactly 0 on
    the first and exactly W(1) on the last.
    """
    h = 1.0 / _W_PANELS
    nodes = np.arange(_W_PANELS + 1) * h
    x = tuple(-xk for xk in _GL_NODES[::-1]) + _GL_NODES
    wx = _GL_WEIGHTS[::-1] + _GL_WEIGHTS
    panels = sum(wk * _mother_bump(nodes[:-1] + 0.5 * h * (1.0 + xk))
                 for xk, wk in zip(x, wx))
    panels *= 0.5 * h * _NORM_BUMP
    run = np.cumsum(panels)
    prev = np.concatenate(([0.0], run[:-1]))
    step = run - prev
    err = (prev - (run - step)) + (panels - step)
    values = np.concatenate(([0.0], run + np.cumsum(err)))
    return values, (h * _NORM_BUMP) * _mother_bump(nodes)


def _bump_antiderivative(s) -> np.ndarray:
    """The table's cubic Hermite interpolant at s, elementwise.

    +0.0 for s < 0 (-0.0 and -inf too), W(1) for s >= 1, s itself for a NaN
    s, and a 0-d array for a 0-d s.  On panel j, t = s/h - j is exact and
    the value is F_j + t (hD_j + t (a + t b)), so a panel whose two nodes
    hold the same value and zero slopes returns F_j bit for bit (the sum of
    the four Hermite basis terms would not).
    """
    values, slopes = _bump_antiderivative_table()
    s = np.asarray(s, dtype=float)
    out = np.where(s < 0.0, 0.0, s)
    out[s >= 1.0] = values[-1]
    inside = (s >= 0.0) & (s < 1.0)
    # a = 3 rise - 2 d0 - d1 and b = d0 + d1 - 2 rise (in d1), then Horner,
    # each step in place in the formula's order: at most seven arrays of the
    # window are alive at once
    t = s[inside]
    t *= _W_PANELS
    j = t.astype(np.intp)
    t -= j
    f0, d0, d1, rise = values[j], slopes[j], slopes[j + 1], values[j + 1]
    del j
    rise -= f0
    a = 3.0 * rise
    a -= 2.0 * d0
    a -= d1
    d1 += d0
    rise *= 2.0
    d1 -= rise
    for coef in (a, d0, f0):
        d1 *= t
        d1 += coef
    out[inside] = d1
    return out


class Wavelet:
    """Unit-L2-norm source pulse supported on (0, lam).

    kinds:
      bump             w_1 = normalized exp(-1/(s(1-s))), positive, nonzero mean
      bump_derivative  w_1 = normalized d/ds of the bump, zero mean
    """

    def __init__(self, kind: str, lam: float):
        if kind not in ("bump", "bump_derivative"):
            raise ValueError(f"unknown wavelet kind {kind!r}")
        if not 0.0 < lam < np.inf:
            raise ValueError(f"wavelet width lam must be positive and finite; got {lam}")
        self.kind = kind
        self.lam = float(lam)

    def value(self, t):
        s = np.asarray(t, dtype=float) / self.lam
        if self.kind == "bump":
            w = _mother_bump(s)
            w *= self.lam**-0.5 * _NORM_BUMP
            return w
        return self.lam**-0.5 * _NORM_BUMP_DERIV * _mother_bump_deriv(s)

    def antiderivative(self, t):
        s = np.asarray(t, dtype=float) / self.lam
        scale = self.lam**0.5
        if self.kind == "bump":
            return scale * _bump_antiderivative(s)
        # antiderivative of the normalized bump derivative is the bump itself
        return scale * _NORM_BUMP_DERIV * _mother_bump(s)


# -- closed-form solutions ---------------------------------------------------


def point_forward(geo: Geometry, c: float, w: Wavelet, tgrid: TimeGrid) -> Trace:
    """Receiver trace of the point source: (1/2c) w(t - transit_time(c)).

    w is sampled on its pulse window [tau, tau + lam] alone, with two samples
    of slack each side, at the times tgrid.times() holds; w is exactly +0.0
    everywhere else, and so is the trace.
    """
    tau = geo.transit_time(c)
    j0, size = _window_bounds(tgrid, tau, tau + w.lam)
    lo, hi = max(int(j0) - 2, 0), min(int(j0 + size) + 2, tgrid.n)
    samples = np.zeros(tgrid.n)
    samples[lo:hi] = w.value(tgrid.t0 + tgrid.dt * np.arange(lo, hi) - tau) / (2.0 * c)
    return Trace(tgrid, samples)


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

    The formula runs only on each row's pulse window [tau, tau + lam] (from
    grids._window_bounds, with two samples of slack each side): the row is
    zero before it and the constant (c/2) phi'' W_end after it, W_end the end
    value of W.  w is exactly 0, and W exactly 0 or W_end, within lam/820 of
    the window's ends, so each row equals the formula evaluated on every
    sample, up to the sign of a zero.  The windows are evaluated as one
    block per _EXTENSION_BLOCK band rows, each block as wide as its widest
    window; w and W are elementwise, so every row holds the doubles that
    evaluating its own window alone gives.
    """
    _require_positive(c)
    z = zgrid.points()  # mollifier checks eps
    phi1 = mollifier(geo, eps, z, order=1)
    phi2 = mollifier(geo, eps, z, order=2)
    sgn = np.sign(z - geo.z_s)
    t = tgrid.times()
    band = np.flatnonzero((phi1 != 0.0) | (phi2 != 0.0))
    tau = np.abs(z[band] - geo.z_s) / c
    j0, size = _window_bounds(tgrid, tau, tau + w.lam)
    w_end = w.antiderivative(2.0 * w.lam)
    lo = np.maximum(j0 - 2, 0)
    hi = np.minimum(j0 + size + 2, tgrid.n)
    a1 = -(sgn[band] * phi1[band])
    a2 = 0.5 * c * phi2[band]

    def rows():
        for r in range(0, len(band), _EXTENSION_BLOCK):
            blk = slice(r, r + _EXTENSION_BLOCK)
            # a band row's window is its first hi - lo columns; the columns
            # past them (clipped to the last sample) are computed and dropped
            cols = np.minimum(lo[blk, None] + np.arange((hi - lo)[blk].max()),
                              tgrid.n - 1)
            arg = t[cols] - tau[blk, None]
            win = a1[blk, None] * w.value(arg)
            win += a2[blk, None] * w.antiderivative(arg)
            for i, a, b, coef, vals in zip(band[blk].tolist(), lo[blk].tolist(),
                                           hi[blk].tolist(), a2[blk], win):
                row = np.zeros(tgrid.n)
                row[a:b] = vals[:b - a]
                row[b:] = coef * w_end
                yield i, row

    return rows()


def point_right_inverse(geo: Geometry, c: float, d: Trace, out_grid: TimeGrid) -> Trace:
    """Undo point_forward: t -> 2c * d(t + transit_time(c)), zero extended."""
    tau = geo.transit_time(c)
    t = out_grid.times()
    return Trace(out_grid, 2.0 * c * eval_interp(d, t + tau))
