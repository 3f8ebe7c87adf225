"""Command-line front end: config parsing, verification suite, CSV emission.

Subcommands:

    verify    run the operator/objective identity suite, write verify.csv
    scan      evaluate all objectives on a velocity grid, write scan.csv
    theorems  far-region argmin checks per (pulse width, alpha), theorems.csv
    basins    descent from a start grid at the first width and alpha, basins.csv

Configuration is flat ``key = value`` text (see CONFIG_KEYS); `--preset cfg0`
supplies the reference configuration, and a `--config` file overrides preset
values key by key.  Numbers are written with 17 significant digits so CSV
output round-trips doubles exactly; identical config and seed give
byte-identical files.  scan.csv, all floats, is formatted in numpy a block
of rows at a time, each block written before the next is made: the digits
come from an exact product and integer arithmetic, byte for byte what
"%.17g" writes.  The other files' rows mix text and numbers and go value by
value.  The parser is built, and malloc set up, once per process, so
repeated main calls in one process pay neither again.  Config validation and
scan need only acoustics and objectives; each other subcommand imports the
modules it runs in its own body, so a launch loads (and, with no bytecode
cache, compiles) nothing it does not run.  --jobs is accepted and has no
effect: wrilab starts no threads, with velocity as a batch axis, though
OpenBLAS splits a dot product of over about 10,000 samples across its own.

Exit status: 0 all checks passed, 1 a check failed, 2 invalid configuration
or usage.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .acoustics import (
    Geometry, Wavelet, _check_eps, _check_steps, _require_width, point_forward,
)
from .objectives import (
    _ROW_BLOCK, annihilator_value, fwi_value, make_experiment, penalty_factor,
)

# largest number of float64 samples a config may ask one array to hold (512 MiB),
# or verify to sweep through one field
MAX_ARRAY_SAMPLES = 2**26

# basins descends from this many evenly spaced starts under each objective
BASIN_STARTS = 101

CONFIG_KEYS = (
    "z_min", "z_max", "z_s", "z_r", "T", "rho", "c_min", "c_max", "c_star",
    "lambda", "alpha", "wavelet", "dz", "dt", "scan_points", "eps", "seed",
    "outdir",
)

PRESETS = {
    "cfg0": {
        "z_min": "0", "z_max": "1", "z_s": "0.3", "z_r": "0.8", "T": "1.5",
        "rho": "1", "c_min": "0.5", "c_max": "2", "c_star": "1",
        "lambda": "0.04, 0.02, 0.01", "alpha": "0.25, 0.5, 0.6",
        "wavelet": "bump", "dz": "0.0025", "dt": "0.00025",
        "scan_points": "2001", "eps": "0.2", "seed": "0", "outdir": ".",
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters for every subcommand."""

    z_min: float
    z_max: float
    z_s: float
    z_r: float
    T: float
    rho: float
    c_min: float
    c_max: float
    c_star: float
    lambdas: tuple
    alphas: tuple
    wavelet: str
    dz: float
    dt: float
    scan_points: int
    eps: float
    seed: int
    outdir: str

    def __post_init__(self):
        floats = [(f.name, (getattr(self, f.name),))
                  for f in fields(self) if f.type == "float"]
        for key, values in floats + [("lambda", self.lambdas), ("alpha", self.alphas)]:
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"config violation: {key} must be finite")
        geo = self.geometry()  # raises with the violated invariant named
        _named("c_star", geo.require_admissible, self.c_star)
        if not self.lambdas:
            raise ValueError("config violation: lambda list must be nonempty")
        for lam in self.lambdas:
            _named("lambda", _require_width, geo, lam)
        if not self.alphas or any(a <= 0.0 for a in self.alphas):
            raise ValueError("config violation: alpha values must be positive")
        for a in self.alphas:
            if not 0.0 < a * a < math.inf:
                raise ValueError("config violation: alpha: alpha^2 must be a positive "
                                 f"finite double; got alpha = {a}")
        _named("wavelet", self.make_wavelet, self.lambdas[0])
        if self.dz <= 0.0 or self.dt <= 0.0:
            raise ValueError("config violation: dz and dt must be positive")
        if self.scan_points < 2:
            raise ValueError("config violation: scan_points must be at least 2")
        _named("eps", _check_eps, geo, self.eps)
        _named("c_min, c_max", _check_steps, geo)
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"config violation: seed must lie in [0, 2^64); got {self.seed}")
        self._check_grids(geo)

    def _check_grids(self, geo: Geometry):
        """Reject grids too short to sample a pulse, too large to allocate, or
        too large to sweep."""
        record = _named("dt", geo.data_grid, self.dt)
        # a field time grid spans T and the longest shift |z_r - z|/c_min
        refined_keys = "dz, dt, T, z_min, z_max, z_r, c_min"
        row_keys = "lambda, T, z_min, z_max, z_r, c_min"
        # verify holds its probe field at most 8 whole rows at a time (and
        # two window slots of S^T e per operator), but each adjoint probe
        # still sweeps every sample of the dz/2 by dt/2 field; the refined
        # extension check evaluates the pulse on its windows only, but
        # streams full-length rows over the mollifier band.  scan samples
        # its pulse windows and writes scan.csv a block of rows at a time
        # (0.92 MiB traced to write the 414,000 x 8 table cfg0's widths
        # allow at the limit), so its limit bounds the misfit kernel's
        # sweep over all the windows, not memory or the CSV text
        refined = (_named(refined_keys, geo.space_grid, self.dz / 2.0).m
                   * _named(refined_keys, geo.field_time_grid, self.dt / 2.0).n)
        row = _named(row_keys, geo.field_time_grid, self.lambdas[0] / 80.0).n
        scan_windows = self.scan_points * (max(self.lambdas) / self.dt + 2.0)
        # the misfit kernel samples a call's windows _ROW_BLOCK rows at a
        # time, however many rows the call holds (a basins round may hold
        # more than scan_points), so its block bounds the memory of a call
        # at the first width
        block = _ROW_BLOCK * (self.lambdas[0] / self.dt + 2.0)
        for keys, what, n in (
            ("T, dt", "the data record would hold", record.n),
            (refined_keys, "verify's refined field (dz/2 by dt/2) would sweep", refined),
            (row_keys, "verify's normal-identity row (dt = lambda/80) would hold", row),
            ("scan_points, lambda, dt",
             "scan's pulse windows (scan_points windows of lambda/dt + 2 "
             "samples) would sweep", scan_windows),
            ("lambda, dt", f"a misfit-kernel block ({_ROW_BLOCK} windows of "
             "lambda/dt + 2 samples) would hold", block),
        ):
            if n > MAX_ARRAY_SAMPLES:
                # an int count may lie past the double range, which .4g refuses
                size = f"{n:.4g}" if n < 1e300 else "more than 1e300"
                raise ValueError(f"config violation: {keys}: {what} {size} "
                                 f"samples, above the limit of {MAX_ARRAY_SAMPLES}")
        for lam in self.lambdas:
            data = point_forward(geo, self.c_star, self.make_wavelet(lam), record)
            if not data.samples.any():
                raise ValueError(f"config violation: lambda: the width-{lam} pulse "
                                 f"samples to all zeros at dt = {self.dt}")

    def geometry(self) -> Geometry:
        return Geometry(self.z_min, self.z_max, self.z_s, self.z_r, self.T,
                        self.rho, self.c_min, self.c_max)

    def make_wavelet(self, lam: float) -> Wavelet:
        return Wavelet(self.wavelet, lam)


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines; '#' starts a comment.  A key may be
    set once."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"config line {lineno}: key {key!r} is set twice")
        out[key] = value
    return out


def _named(key: str, fn, *args):
    """fn(*args), with a ValueError or OverflowError it raises restated as a
    violation of key."""
    try:
        return fn(*args)
    except (ValueError, OverflowError) as err:
        raise ValueError(f"config violation: {key}: {err}") from None


def _float_list(text: str) -> tuple:
    items = [part.strip() for part in text.split(",") if part.strip()]
    return tuple(float(part) for part in items)


# how each raw value is typed; every other key is a float
_PARSERS = {"lambda": _float_list, "alpha": _float_list, "wavelet": str,
            "scan_points": int, "seed": int, "outdir": str}


def build_run_config(raw: dict) -> RunConfig:
    """Typed RunConfig from raw string values (preset plus overrides)."""
    missing = [key for key in CONFIG_KEYS if key not in raw]
    if missing:
        raise ValueError(f"config violation: missing keys {missing}")
    values = {key: _named(key, _PARSERS.get(key, float), raw[key]) for key in CONFIG_KEYS}
    values["lambdas"] = values.pop("lambda")
    values["alphas"] = values.pop("alpha")
    return RunConfig(**values)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


# rows of a float table formatted and written at a time
CSV_BLOCK_ROWS = 512


def _write_csv(path: Path, header, rows):
    """Write header and rows, each value as _fmt writes it.

    rows is an iterable of tuples, each value formatted by _fmt, or an
    (n, k) float array.  An array is written CSV_BLOCK_ROWS rows at a time:
    _float_text makes a block's bytes in numpy, byte for byte what "%.17g"
    (and so _fmt) writes, and they go to the file before the next block is
    made, so the text of only one block is ever held.
    """
    if not isinstance(rows, np.ndarray):
        body = "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
        path.write_text(",".join(header) + "\n" + body)
        return
    tables = _text_tables()
    seps = np.full(rows.shape[1], ord(","), np.uint64)
    seps[-1] = ord("\n")
    seps = np.tile(seps << 56, min(len(rows), CSV_BLOCK_ROWS))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[start:start + CSV_BLOCK_ROWS].ravel()
            fh.write(_float_text(block, seps[:block.size], tables))


# 2^27 + 1: Veltkamp's constant, which splits a double into two halves of
# 26 significant bits whose products with other halves are exact
_SPLIT = 134217729.0
_BYTES = 0x0101010101010101  # a uint64 with 1 in every byte


def _words(texts) -> np.ndarray:
    """(3, n) uint64: each of n byte strings of at most 24 bytes, zero-padded,
    as three little-endian words."""
    raw = b"".join(text.ljust(24, b"\0") for text in texts)
    return np.frombuffer(raw, "<u8").reshape(-1, 3).T.astype(np.uint64)


def _text_tables():
    """Small lookup tables for _float_text, made once per table written.

    pow10[j] is the double 10^j, which is exact (j <= 20).  For a value with p
    integer digits, leading[:, p] masks the first p bytes of its 17 digits
    and point[:, p] puts the point after them.  prefix[i + 5 * negative] is
    the sign and, for i > 0, the "0." and i - 1 zeros before the digits of a
    value at 10^-i, right-aligned in a word.
    """
    pow10 = np.array([float(10**j) for j in range(21)])
    leading = _words(b"\xff" * p for p in range(18))
    point = _words(b"\0" * p + b"." if p else b"" for p in range(18))
    prefix = np.frombuffer(b"".join(
        (sign + lead).rjust(8, b"\0") for sign in (b"", b"-")
        for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000")), "<u8").astype(np.uint64)
    return pow10, leading, point, prefix


def _scaled(a, e, pow10):
    """a * 10^(16 - e) rounded half-even to an integer, as int64.

    hi + lo is the product exactly (Dekker 1971).  Where e is the exponent
    of a, the product is at least 10^16 > 2^53, so hi is an even integer and
    hi + rint(lo) rounds the product half-even."""
    p = pow10.take(16 - e)
    hi = a * p
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    t = p * _SPLIT
    ph = t - (t - p)
    pl = p - ph
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _significand(a, pow10):
    """E = floor(log10 a) and the 17 significant digits of a,
    D = a * 10^(16 - E) rounded half-even (uint64), for a in [1e-4, 1e17)."""
    # log10 may miss E by one next to a power of ten: D then falls outside
    # [10^16, 10^17), and E moves one step toward it
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    d = _scaled(a, e, pow10)
    step = (d >= 10**17).astype(np.intp) - (d < 10**16)
    moved = np.flatnonzero(step)
    e[moved] += step[moved]
    d[moved] = _scaled(a[moved], e[moved], pow10)
    return e, d.view(np.uint64)


def _digits8(n):
    """The 8 decimal digits of each n < 10^8 (uint64), one per byte, the
    leading digit in the lowest byte.  n splits into 4-digit halves side by
    side in one word, those into 2-digit halves and those into digits;
    10486 / 2^20 and 103 / 2^10 divide by 100 and 10 exactly below 10^4
    and 10^2."""
    hi = n // 10000
    x = hi | (n - hi * 10000) << 32
    hi = (x * 10486) >> 20 & 0x0000007F0000007F
    x = hi | (x - hi * 100) << 16
    hi = (x * 103) >> 10 & 0x000F000F000F000F
    return hi | (x - hi * 10) << 8


def _digits17(d):
    """(3, n) uint64: the 17 digits of each d in [10^16, 10^17), one per
    byte, in order through three words."""
    q = d // 10
    hi = q // 10**8
    digits = np.empty((3, d.size), np.uint64)
    digits[:2] = _digits8(np.stack([hi, q - hi * 10**8]))
    digits[2] = d - q * 10
    return digits


def _float_text(x, seps, tables) -> bytes:
    """The text of each value v of the flat float array x as '%.17g' % v
    writes it, followed by its separator: the top byte of seps.

    For 1e-4 <= |v| < 1e17, '%.17g' writes the 17 significant digits of v
    (_significand) with the point after the first E + 1 of them, or after
    "0" and -E - 1 zeros ahead of them, and drops trailing zeros and a bare
    point.  Each value takes four words: its sign and any "0.000"
    right-aligned in the first, its digits and point from the second on,
    and its separator in the top byte of the last.  Unused bytes stay zero,
    and deleting every zero byte leaves the text.  Zeros, infinities, NaN
    and other magnitudes take '%.17g' itself, padded with spaces, which are
    deleted too.
    """
    pow10, leading, point, prefix = tables
    a = np.abs(x)
    other = np.flatnonzero(~((a >= 1e-4) & (a < 1e17)))
    a[other] = 1.0
    e, d = _significand(a, pow10)
    digits = _digits17(d)
    # keep the integer digits and every digit up to the last nonzero one:
    # mark their bytes, then copy each mark into every byte ahead of it
    n_int = np.maximum(e + 1, 0)
    is_int = np.take(leading, n_int, axis=1)
    keep = (((digits + 0x7F * _BYTES) | is_int) & 0x80 * _BYTES) >> 7
    keep[1] |= (keep[2] != 0).astype(np.uint64) << 56
    keep[0] |= (keep[1] != 0).astype(np.uint64) << 56
    keep |= keep >> 8
    keep |= keep >> 16
    keep |= keep >> 32
    digits = (digits | 0x30 * _BYTES) & keep * 0xFF
    # the fraction digits move up one byte, and the point goes between
    frac = digits & ~is_int
    words = np.empty((4, x.size), "<u8")
    words[0] = prefix.take(np.maximum(-e, 0) + 5 * (x < 0))
    body = words[1:]
    np.bitwise_or(digits & is_int, frac << 8, out=body)
    body[1:] |= frac[:-1] >> 56
    body |= np.take(point, n_int * ((frac[0] | frac[1] | frac[2]) != 0), axis=1)
    body[2] |= seps
    if other.size:
        text = ("%-24.17g" * other.size) % tuple(x[other].tolist())
        words[:3, other] = np.frombuffer(text.encode(), "<u8").reshape(-1, 3).T
        words[3, other] = seps[other]
    return words.T.tobytes().translate(None, b"\0 ")


# -- verify ------------------------------------------------------------------


def _ratio(fine: float, coarse: float) -> float:
    """Refinement ratio; inf (a failed check) when the coarse error is 0."""
    return fine / coarse if coarse else math.inf


def cmd_verify(cfg: RunConfig, out_dir: Path) -> int:
    from .analysis import far_region_verify
    from .checks import (
        extension_error, normal_identity_error, quadratic_form_residual,
        right_inverse_error, trace_norm_deviation, weight_paths_error,
        wri_deviations,
    )
    from .operators import adjoint_test, make_discrete_S

    geo = cfg.geometry()
    lam = cfg.lambdas[0]
    w = cfg.make_wavelet(lam)
    exp = make_experiment(geo, cfg.c_star, w, dt=cfg.dt)
    rows = []

    def check(name: str, measured: float, tol: float):
        rows.append((name, measured, tol, int(measured <= tol)))

    cs = (cfg.c_min, cfg.c_star, cfg.c_max)
    ops = [make_discrete_S(geo, c, cfg.dz, cfg.dt) for c in cs]
    for c, mismatch in zip(cs, adjoint_test(ops, 10, cfg.seed)):
        check(f"adjoint_c{c:g}", mismatch, 1e-12)

    for c in cs:
        check(f"trace_norm_c{c:g}", trace_norm_deviation(geo, c, w, cfg.dt), 1e-3)

    # dt tied to the pulse width here so the interpolation error is the
    # resolved quantity (the preset dt makes some shifts land on the lattice)
    dt_n = lam / 40.0
    err_coarse = normal_identity_error(geo, cfg.c_star, cfg.dz, dt_n)
    err_fine = normal_identity_error(geo, cfg.c_star, cfg.dz / 2.0, dt_n / 2.0)
    check("normal_identity", err_coarse, 2e-2)
    check("normal_identity_refine", _ratio(err_fine, err_coarse), 0.5)

    # nan (a failed check) when the far region is empty
    far = far_region_verify(exp, (), cfg.scan_points)[0].detail
    check("plateau_far", far.get("max_plateau_rel_dev", math.nan), 5e-3)

    route_dev, ratio_dev, const_dev = wri_deviations(
        exp, (0.6, 0.8, 1.2, 1.5, 2.0), cfg.alphas, cfg.dz)
    check("wri_route_equivalence", route_dev, 1e-6)
    check("wri_fwi_ratio", ratio_dev, 1e-6)
    check("wri_full_constant", const_dev, 1e-6)

    # off the target, as quadratic_forms below: the residual at c_star is 0
    check("weight_paths",
          weight_paths_error(exp, 1.2 * cfg.c_star, cfg.alphas[0], cfg.dz), 1e-6)

    for kind in ("bump", "bump_derivative"):
        wk = Wavelet(kind, lam)
        e1 = extension_error(geo, cfg.c_star, wk, cfg.eps, cfg.dz, cfg.dt)
        e2 = extension_error(geo, cfg.c_star, wk, cfg.eps, cfg.dz / 2.0, cfg.dt / 2.0)
        check(f"extension_{kind}", e1, 2e-2)
        check(f"extension_refine_{kind}", _ratio(e2, e1), 0.5)

    qdev = quadratic_form_residual(exp, (0.8 * cfg.c_star, cfg.c_star, 1.2 * cfg.c_star))
    check("quadratic_forms", qdev, 1e-8)

    check("right_inverse_roundtrip", right_inverse_error(exp), 1e-10)

    _write_csv(out_dir / "verify.csv",
               ("check", "measured", "tolerance", "pass"), rows)
    n_pass = sum(row[3] for row in rows)
    print(f"verify: {n_pass}/{len(rows)} checks passed -> {out_dir / 'verify.csv'}")
    return 0 if n_pass == len(rows) else 1


# -- scan ----------------------------------------------------------------------


def cmd_scan(cfg: RunConfig, out_dir: Path) -> int:
    geo = cfg.geometry()
    lam = cfg.lambdas[0]
    exp = make_experiment(geo, cfg.c_star, cfg.make_wavelet(lam), dt=cfg.dt)
    cs = np.linspace(cfg.c_min, cfg.c_max, cfg.scan_points)
    misfit = fwi_value(exp, cs).value
    # a list, not a dict: two alphas may print alike at 6 digits; each
    # penalty column is penalty_factor * misfit, the doubles wri_value returns
    columns = [("c", cs), ("J_fwi", misfit)]
    columns += [(f"J_wri_a{alpha:.6g}", penalty_factor(geo, cs, alpha) * misfit)
                for alpha in cfg.alphas]
    columns += [(col, annihilator_value(exp, cs, variant))
                for variant, col in (("signed", "J_ann_signed"),
                                     ("squared", "J_ann_squared"),
                                     ("normalized", "J_ann_norm"))]
    table = np.column_stack([values for _, values in columns])
    _write_csv(out_dir / "scan.csv", [name for name, _ in columns], table)
    print(f"scan: {cfg.scan_points} rows at lambda = {lam:g} -> {out_dir / 'scan.csv'}")
    return 0


# -- theorems --------------------------------------------------------------------


def cmd_theorems(cfg: RunConfig, out_dir: Path) -> int:
    from .analysis import far_region_verify

    geo = cfg.geometry()
    header = ("theorem", "lambda", "alpha", "L", "lambda0", "beta",
              "predicted_c", "argmin_c", "pass")
    rows = []
    all_ok = True
    for lam in cfg.lambdas:
        exp = make_experiment(geo, cfg.c_star, cfg.make_wavelet(lam), dt=cfg.dt)
        for rep in far_region_verify(exp, cfg.alphas, cfg.scan_points):
            if rep.applicable:
                flag = str(int(rep.passed))
                all_ok = all_ok and rep.passed
            else:
                flag = "na"
            rows.append((rep.theorem, rep.lam, rep.alpha, rep.big_l, rep.lam0,
                         rep.beta, rep.predicted_c, rep.argmin_c, flag))
    _write_csv(out_dir / "theorems.csv", header, rows)
    n_pass = sum(1 for row in rows if row[-1] == "1")
    n_app = sum(1 for row in rows if row[-1] != "na")
    print(f"theorems: {n_pass}/{n_app} applicable rows passed "
          f"-> {out_dir / 'theorems.csv'}")
    return 0 if all_ok else 1


# -- basins ----------------------------------------------------------------------


def cmd_basins(cfg: RunConfig, out_dir: Path) -> int:
    from .descent import basin_map

    geo = cfg.geometry()
    lam = cfg.lambdas[0]
    exp = make_experiment(geo, cfg.c_star, cfg.make_wavelet(lam), dt=cfg.dt)
    starts = np.linspace(cfg.c_min, cfg.c_max, BASIN_STARTS)
    header = ("objective", "c0", "c_final", "label", "iterations", "final_grad")
    names = ("fwi", f"wri_a{cfg.alphas[0]:.6g}")
    reports = basin_map(exp, [None, cfg.alphas[0]], starts)
    rows = [(name, rep.c0, rep.c_final, rep.label, rep.iterations, rep.grad_final)
            for name, reps in zip(names, reports) for rep in reps]
    _write_csv(out_dir / "basins.csv", header, rows)
    print(f"basins: {len(rows)} descents at lambda = {lam:g}, alpha = {cfg.alphas[0]:g} "
          f"-> {out_dir / 'basins.csv'}")
    return 0


# -- entry point -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="wrilab",
        description="Landscape laboratory for 1D transmission velocity inversion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("verify", "run the operator/objective identity suite"),
        ("scan", "evaluate all objectives over a velocity grid"),
        ("theorems", "check the far-region argmin predictions"),
        ("basins", "map descent basins from a start grid"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="flat key = value file")
        p.add_argument("--preset", choices=sorted(PRESETS),
                       help="built-in configuration")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: config outdir)")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; has no effect (wrilab "
                            "starts no threads; the BLAS may use its own)")
    return parser


def load_config(args) -> RunConfig:
    raw = dict(PRESETS[args.preset]) if args.preset else dict(PRESETS["cfg0"])
    if args.preset is None and args.config is None:
        raise ValueError("need --preset and/or --config")
    if args.config is not None:
        raw.update(parse_config_text(args.config.read_text()))
    return build_run_config(raw)


@functools.cache
def _keep_freed_blocks():
    """Let glibc's malloc keep freed blocks of up to 32 MiB for reuse.

    glibc maps every block above its mmap threshold afresh and returns free
    heap above its trim threshold to the system.  Both start at 128 KiB and
    rise only as large mapped blocks are freed.  A batched objective call
    allocates and frees several blocks above 128 KiB, so at those limits
    each call page-faults its memory in again: on a cfg0 scan plus theorems
    job about 2,600 faults and 15% more CPU time.  (basins takes about
    4,300 faults over the eight cfg0-sized configs of the perfbench basins
    workload, at about the same CPU time.)  32 MiB, and twice that for
    trimming, is the most glibc's own rule reaches.  Nothing happens where
    the C library has no mallopt.  The settings hold for the process, so
    only the first call looks the C library up and sets them.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    m_trim_threshold, m_mmap_threshold = -1, -3  # parameter numbers in <malloc.h>
    mallopt(m_mmap_threshold, 32 * 2**20)
    mallopt(m_trim_threshold, 64 * 2**20)


COMMANDS = {
    "verify": cmd_verify,
    "scan": cmd_scan,
    "theorems": cmd_theorems,
    "basins": cmd_basins,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.out is not None:
        out_dir, source = args.out, "--out"
    else:
        out_dir, source = Path(cfg.outdir), "outdir"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"error: {source} {out_dir}: cannot make the output directory "
              f"({err.strerror})", file=sys.stderr)
        return 2
    _keep_freed_blocks()
    return COMMANDS[args.command](cfg, out_dir)


if __name__ == "__main__":
    sys.exit(main())
