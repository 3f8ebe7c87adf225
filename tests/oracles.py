"""Reference routes the tests check the program against.

Each is an independent way to reach a result the package computes another
way: the point-source solution at any (z, t), the superposition of a
distributed source by quadrature, the adjoint by direct sampling, the
mother bump as a masked formula, its antiderivative by a finer quadrature
summed with math.fsum, the extension source's rows with their formula
evaluated on every sample, and the adjoint probes' SplitMix64 stream one
word at a time in Python ints.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from wrilab import acoustics
from wrilab.grids import SpaceGrid, TimeGrid, Trace, eval_interp


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


# -- traveling-wave solutions -------------------------------------------------

def green_solution(geo, c, w, z, t):
    """Pressure and velocity of the point source at positions z, times t.

    Returns the pair (p, v); z and t broadcast against each other.
    """
    acoustics._require_positive(c)
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    val = w.value(t - np.abs(z - geo.z_s) / c)
    p = val / (2.0 * c)
    v = np.sign(z - geo.z_s) * val / (2.0 * geo.rho * c * c)
    return p, v


def field_solution(geo, c, f: Field, z, t):
    """Pressure and velocity at position z radiated by a distributed source.

    Superposes the traveling-wave response of every source node by the
    rectangle rule in z and linear interpolation in time:

        p(z, t) = (1/2c)         * sum_i dz * f(z_i, t - |z - z_i|/c)
        v(z, t) = (1/2 rho c^2)  * sum_i dz * sgn(z - z_i) * f(...)

    Returns the pair (p, v) evaluated at the requested times.
    """
    acoustics._require_positive(c)
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


def extension_full_rows(geo, c, w, eps, zgrid, tgrid):
    """The extension source's band rows as (node, row) pairs in node order,
    with -(sgn phi') w(arg) + (c/2) phi'' W(arg) evaluated on every sample of
    tgrid, arg = t - |z - z_s|/c."""
    z = zgrid.points()
    phi1 = acoustics.mollifier(geo, eps, z, order=1)
    phi2 = acoustics.mollifier(geo, eps, z, order=2)
    sgn = np.sign(z - geo.z_s)
    t = tgrid.times()
    rows = []
    for i in np.flatnonzero((phi1 != 0.0) | (phi2 != 0.0)).tolist():
        arg = t - abs(z[i] - geo.z_s) / c
        row = -(sgn[i] * phi1[i]) * w.value(arg)
        row += 0.5 * c * phi2[i] * w.antiderivative(arg)
        rows.append((i, row))
    return rows


# -- the adjoint by direct sampling --------------------------------------------

def adjoint_sampling(op, e: Trace) -> Field:
    """S^T e of the map op by direct evaluation (1/2c) e(t + |z_r - z|/c)."""
    shifts = np.abs(op.geo.z_r - op.zgrid.points()) / op.c
    t = op.field_tgrid.times()
    vals = np.empty((op.zgrid.m, op.field_tgrid.n))
    for i in range(op.zgrid.m):
        vals[i] = eval_interp(e, t + shifts[i]) / (2.0 * op.c)
    return Field(op.zgrid, op.field_tgrid, vals)


# -- the mother bump as a masked formula ----------------------------------------

def reference_bump(s):
    """The mother bump as a masked formula: gather the support 0 < s < 1,
    evaluate exp(-1/((1 - s) s)) there and scatter it into zeros."""
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape, dtype=float)
    m = (s > 0.0) & (s < 1.0)
    if np.any(m):
        sm = s[m]
        with np.errstate(over="ignore"):
            out[m] = np.exp(-1.0 / ((1.0 - sm) * sm))
    return out


def reference_bump_deriv(s):
    """d/ds of reference_bump, evaluated where the bump is positive."""
    s = np.asarray(s, dtype=float)
    b = reference_bump(s)
    out = np.zeros(s.shape, dtype=float)
    m = b > 0.0
    if np.any(m):
        sm = s[m]
        u = (1.0 - 2.0 * sm) / (sm**2 * (1.0 - sm) ** 2)
        out[m] = b[m] * u
    return out


# -- the bump's antiderivative by a finer quadrature ------------------------------

_W_PANELS = 2**14
_W_GAUSS = 16


def _bump_integrals(a, b):
    """16-point Gauss-Legendre integrals of the unit-norm bump over [a_i, b_i],
    each sum of 16 terms taken with math.fsum."""
    x, wx = np.polynomial.legendre.leggauss(_W_GAUSS)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    terms = wx * reference_bump((0.5 * (a + b))[:, None] + half[:, None] * x)
    sums = np.array([math.fsum(row) for row in terms.tolist()])
    return sums * half * acoustics._NORM_BUMP


@functools.cache
def _bump_antiderivative_nodes():
    """W at the nodes j / 2^14 as an unevaluated pair hi + lo: each prefix is
    math.fsum of the previous pair and the next panel, the rounding residual
    kept in lo, so the prefix carries about 106 bits."""
    nodes = np.arange(_W_PANELS + 1) / _W_PANELS
    hi, lo = [0.0], [0.0]
    for p in _bump_integrals(nodes[:-1], nodes[1:]).tolist():
        total = math.fsum((hi[-1], lo[-1], p))
        lo.append(math.fsum((hi[-1], lo[-1], p, -total)))
        hi.append(total)
    return np.array(hi), np.array(lo)


def reference_bump_antiderivative(s):
    """W(s), the integral of the unit-norm bump from 0 to s, for s in [0, 1]:
    the node pair below s plus the quadrature from that node to s, summed with
    math.fsum."""
    s = np.asarray(s, dtype=float).ravel()
    if not np.all((s >= 0.0) & (s <= 1.0)):
        raise ValueError("the reference antiderivative takes s in [0, 1]")
    hi, lo = _bump_antiderivative_nodes()
    k = np.minimum((s * _W_PANELS).astype(np.intp), _W_PANELS - 1)
    tail = _bump_integrals(k / _W_PANELS, s)
    return np.array([math.fsum(t) for t in zip(hi[k].tolist(), lo[k].tolist(),
                                                tail.tolist())])


def reference_wavelet_value(w, t):
    """Wavelet.value of w at times t, sampled through the reference bump."""
    s = np.asarray(t, dtype=float) / w.lam
    scale = w.lam**-0.5
    if w.kind == "bump":
        return scale * acoustics._NORM_BUMP * reference_bump(s)
    return scale * acoustics._NORM_BUMP_DERIV * reference_bump_deriv(s)


# -- the probe stream one word at a time ------------------------------------------

def splitmix64(seed):
    """SplitMix64 (Steele, Lea & Flood 2014) from state seed: the state
    steps by the golden gamma and each word is the state's 30/27/31 mix,
    every operation a Python int reduced mod 2^64."""
    mask = 2**64 - 1
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)
