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

Both maps work on consecutive z nodes: apply_blocks takes a field as
(i0, rows) blocks, rows holding nodes i0, i0 + 1, ... and a node outside
every block reading as zero, and each node adds its window of data samples
straight into the trace.  adjoint_rows yields the rows of S^T e in node
order as read-only views into a few window slots: a node's window depends
only on its (lo, hi, theta) key, so a key already in a slot costs no
scatter and no copy, and a slot is zero outside its window.  normal_apply
passes each node's window through the scatter and the gather on a buffer
of its own length, or adds gain * e on it where theta = 0 makes that round
trip the identity; no map builds a zeroed row per node.  adjoint_test
tests one or more operators on shared grids against one stream of probes:
random signs, each row unpacked from 64-bit words of the SplitMix64 stream
seeded with the test's seed, computed in numpy.  It holds its probe field
at most _PROBE_BLOCK rows at a time, each block drawn once and dotted with
every operator's rows of S^T e and passed through its forward accumulation
(the one apply_blocks runs) while it is in cache; beside the block it holds
_ADJOINT_SLOTS slots per operator and, while a block is drawn, n_f bytes
of bits per row; the extension source yields its band rows alone.

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
from .grids import SpaceGrid, TimeGrid, Trace


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
        k, th = self._shift, self._frac
        # the second tap (theta > 0) needs one more field sample
        lo = np.maximum(0, -k)
        hi = np.minimum(self.data_tgrid.n, self.field_tgrid.n - k - (th > 0.0))
        # a node that reads nothing keeps no second tap, so node i
        # writes exactly field samples lo + k .. hi + k - 1 + (th > 0)
        empty = hi <= lo
        self._taps = list(zip(lo.tolist(), np.where(empty, lo, hi).tolist(),
                              k.tolist(), np.where(empty, 0.0, th).tolist()))

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

    def apply_blocks(self, blocks) -> Trace:
        """S applied to a field given as (i0, rows) blocks, rows a (B, n_f)
        array holding nodes i0 .. i0 + B - 1; nodes in no block are 0."""
        out = np.zeros(self.data_tgrid.n)
        for i0, rows in blocks:
            self._accumulate(out, i0, rows)
        return self._trace(out)

    def _accumulate(self, out: np.ndarray, i0: int, rows: np.ndarray):
        """Add the unscaled reads of nodes i0 .. i0 + B - 1 into out."""
        m, nf = self.zgrid.m, self.field_tgrid.n
        if rows.ndim != 2 or rows.shape[1] != nf:
            raise ValueError(f"field block of shape {rows.shape} does not match "
                             f"the operator's {nf} samples per node")
        if not 0 <= i0 <= i0 + len(rows) <= m:
            raise ValueError(f"nodes {i0} to {i0 + len(rows) - 1} are outside "
                             f"the operator's {m} nodes")
        for (lo, hi, k, th), row in zip(self._taps[i0:i0 + len(rows)], rows):
            out[lo:hi] += _gather(row[lo + k:], th, hi - lo)

    def _trace(self, out: np.ndarray) -> Trace:
        """The accumulated reads of a whole field, scaled into S f."""
        return Trace(self.data_tgrid, self.z_weight / (2.0 * self.c) * out)

    def adjoint_rows(self, e: np.ndarray):
        """Rows of S^T e in node order, each a read-only view of n_f samples.

        A node's window of S^T e depends only on its (lo, hi, theta) key and
        e.  The call keeps the windows of its last _ADJOINT_SLOTS keys, each
        scattered and scaled once into a slot that is +0.0 outside it, and
        yields a node's row as the n_f samples of its key's slot that put
        the window on the node's field samples.  A row stays valid until
        rows of _ADJOINT_SLOTS other keys have followed it; a trace of the
        wrong shape is refused here, before any row is made.
        """
        if e.shape != (self.data_tgrid.n,):
            raise ValueError(f"trace of shape {e.shape} does not match "
                             f"the operator's {self.data_tgrid.n} samples")
        return self._adjoint_rows(e)

    def _adjoint_rows(self, e: np.ndarray):
        nf = self.field_tgrid.n
        # transpose of apply_blocks under (dt * sum) and (w_z * dt_f * sum) pairings
        scale = self.data_tgrid.dt / (2.0 * self.c * self.field_tgrid.dt)
        # a node's first field sample; one that reads nothing may start past
        # the field, and any n_f samples of a slot's left margin are its row
        starts = [min(lo + k, nf) for lo, _, k, _ in self._taps]
        pad = max(starts)
        size = pad + nf - min(starts)
        slots_buf = np.zeros((_ADJOINT_SLOTS, size))
        read_only = slots_buf.view()
        read_only.flags.writeable = False
        # key -> [window length, slot index], least recently used first;
        # every window starts at slot sample pad
        slots = {}
        for (lo, hi, _, th), start in zip(self._taps, starts):
            key = lo, hi, th
            held = slots.pop(key, None)
            if held is None:
                if len(slots) < _ADJOINT_SLOTS:
                    held = [0, len(slots)]
                else:
                    held = slots.pop(next(iter(slots)))
                n, window = hi - lo + (th > 0.0), slots_buf[held[1], pad:]
                # the stale tail of a longer window that held the slot
                window[n:held[0]] = 0.0
                _scatter(window, th, e[lo:hi])
                window[:n] *= scale
                held[0] = n
            slots[key] = held
            yield read_only[held[1], pad - start:pad - start + nf]

    def normal_apply(self, e: np.ndarray, alpha: float = 0.0) -> np.ndarray:
        """S(S^T e) + alpha^2 e without materializing the field.

        Node i's row of S^T e is nonzero only on the field samples its data
        window lo..hi-1 reads, so the round trip runs on hi - lo + 1 samples.
        For theta = 0 the round trip returns its input, and the node adds
        gain * e on its window.
        """
        gain = self.z_weight * self.data_tgrid.dt / (
            4.0 * self.c * self.c * self.field_tgrid.dt
        )
        acc = (alpha * alpha) * e
        ge = gain * e
        window = np.empty(self.data_tgrid.n + 1)
        for lo, hi, _, th in self._taps:
            if th == 0.0:
                acc[lo:hi] += ge[lo:hi]
            else:
                _scatter(window, th, e[lo:hi])
                acc[lo:hi] += gain * _gather(window, th, hi - lo)
        return acc


def _gather(src: np.ndarray, th: float, n: int) -> np.ndarray:
    """A node's n reads, src starting at its first field sample: src[j] for
    th = 0, else (1 - th) src[j] + th src[j + 1]."""
    if th == 0.0:
        return src[:n]
    out = (1.0 - th) * src[:n]
    out += th * src[1:n + 1]
    return out


def _scatter(dst: np.ndarray, th: float, vals: np.ndarray):
    """Exact transpose of _gather: spread vals over the first len(vals) +
    (th > 0) samples of dst, whatever they held."""
    n = len(vals)
    if th == 0.0:
        dst[:n] = vals
    else:
        np.multiply(1.0 - th, vals, out=dst[:n])
        dst[n] = 0.0
        dst[1:n + 1] += th * vals


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


# rows per adjoint-test probe block: the block and its rows of S^T e are
# 1.6 MB at cfg0's 12,401 field samples, inside a 2 MiB L2 (16 rows measured
# 4.3 MiB traced and slower); drawing a block adds n_f bytes of bits and
# n_f / 4 bytes of words (and their shifts) per row
_PROBE_BLOCK = 8

# window slots per adjoint_rows call, reused least recently used first:
# cfg0's three verify operators scatter 64, 45 and 2 windows per probe with
# 2 slots (26, 5 and 2 distinct keys; 4 slots scatter 45, 5 and 2 and trace
# 0.5 MiB more).  A slot is n_f samples plus the spread of the nodes' first
# field samples: 0.11 to 0.14 MiB at cfg0
_ADJOINT_SLOTS = 2


# SplitMix64 (Steele, Lea & Flood 2014): word k of the stream from state x is
# mix64(x + (k + 1) * _GAMMA) mod 2^64; mix64 xors in the word shifted right
# by 30, 27 and 31, multiplying by _MIX's constants after the first two
_GAMMA = 0x9E3779B97F4A7C15
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))


def _random_signs(state: int, out: np.ndarray) -> int:
    """Fill the (B, n) array out with random +-1.0, row by row, from the
    SplitMix64 stream at state; return the state after the words taken.

    Each row takes ceil(n / 64) words and unpacks them little-endian to n
    bits, bit 1 giving +1.0 and bit 0 giving -1.0.  Every row takes the same
    number of words, so a block is bit for bit its rows drawn one after
    another.  The state is a Python int: a numpy uint64 scalar warns where
    it wraps, an array does not.
    """
    b, n = out.shape
    count = b * -(-n // 64)
    words = np.arange(1, count + 1, dtype=np.uint64) * _GAMMA
    words += state
    shifted = np.empty_like(words)
    for shift, mult in _MIX:
        words ^= np.right_shift(words, shift, out=shifted)
        words *= mult
    words ^= np.right_shift(words, 31, out=shifted)
    signs = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8).reshape(b, -1),
                          axis=1, count=n, bitorder="little").view(np.int8)
    signs *= 2
    signs -= 1
    out[...] = signs
    return (state + count * _GAMMA) % 2**64


def _check_probe_args(ops: list, n_probes, seed) -> None:
    """Refuse, before any draw, a test that would check nothing, draw probes
    that do not fit every operator, or start from no SplitMix64 state."""
    if not ops:
        raise ValueError("adjoint_test needs at least one operator")
    if type(n_probes) is not int or n_probes < 1:
        raise ValueError(f"n_probes must be an int >= 1, got {n_probes!r}")
    if type(seed) is not int or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an int in [0, 2^64), got {seed!r}")
    for i, op in enumerate(ops[1:], 1):
        for what, grid in (("z nodes", "zgrid"), ("field grid", "field_tgrid"),
                           ("data grid", "data_tgrid")):
            if getattr(op, grid) != getattr(ops[0], grid):
                raise ValueError(f"operator {i} does not share operator 0's {what}")


def adjoint_test(ops: list, n_probes: int = 10, seed: int = 0) -> list:
    """Largest relative dot-product mismatch over random probe pairs, one
    per operator in ops, which must share z nodes and both time grids.

    Probes are random signs from the SplitMix64 stream seeded with seed, an
    int in [0, 2^64) (_random_signs), the trace e first as one row and then
    the field row by row; the mismatch per pair is |<S f, e> - <f, S^T e>|
    / (||S f|| ||e|| + tiny) with the rectangle-rule pairings that the
    transpose is exact for.  Every
    operator sees the same probes.  The field is drawn _PROBE_BLOCK whole
    z-node rows at a time, every sample of them +-1, into one reused
    block; while it is in cache each operator dots the block's rows with
    its next rows of S^T e (adjoint_rows, np.dot per row) and adds the
    block's reads to its own S f (as apply_blocks does).  An operator's
    mismatch is what it gets tested alone.
    """
    ops = list(ops)
    _check_probe_args(ops, n_probes, seed)
    m, nf, nd = ops[0].zgrid.m, ops[0].field_tgrid.n, ops[0].data_tgrid.n
    dt = ops[0].data_tgrid.dt
    block = np.empty((min(_PROBE_BLOCK, m), nf))
    state = seed
    worst = [0.0] * len(ops)
    for _ in range(n_probes):
        e = np.empty(nd)
        state = _random_signs(state, e[None])
        norm_e = np.sqrt(dt * float(np.dot(e, e)))
        sums = [np.zeros(nd) for _ in ops]
        row_dots = [[] for _ in ops]
        ste = [op.adjoint_rows(e) for op in ops]
        for i0 in range(0, m, _PROBE_BLOCK):
            rows = block[:m - i0]
            state = _random_signs(state, rows)
            for op, out, dots, ste_rows in zip(ops, sums, row_dots, ste):
                # map stops at the block's last row, before asking for the next
                dots.extend(map(np.dot, rows, ste_rows))
                op._accumulate(out, i0, rows)
        for j, (op, out, dots) in enumerate(zip(ops, sums, row_dots)):
            sf = op._trace(out).samples
            lhs = dt * float(np.dot(sf, e))
            rhs = op.z_weight * op.field_tgrid.dt * math.fsum(dots)
            norm_sf = np.sqrt(dt * float(np.dot(sf, sf)))
            denom = norm_sf * norm_e + np.finfo(float).tiny
            worst[j] = max(worst[j], abs(lhs - rhs) / denom)
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
    if not alpha > 0.0:
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
