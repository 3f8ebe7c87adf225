"""Command-line front end: config parsing, verification suite, CSV emission.

Subcommands:

    verify    run the operator/objective identity suite, write verify.csv
    scan      evaluate all objectives on a velocity grid, write scan.csv
    theorems  far-region argmin checks per (pulse width, alpha), theorems.csv
    basins    descent from a start grid, basins.csv

Configuration is flat ``key = value`` text (see CONFIG_KEYS); `--preset cfg0`
supplies the reference configuration, and a `--config` file overrides preset
values key by key.  Numbers are written with 17 significant digits so CSV
output round-trips doubles exactly; identical config and seed give
byte-identical files.  --jobs is accepted and has no effect: every command
runs in one thread, with velocity as a batch axis.

Exit status: 0 all checks passed, 1 a check failed, 2 invalid configuration
or usage.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .acoustics import Geometry, Wavelet, _check_eps, _require_width, point_forward
from .analysis import scan_landscape, theorem1_verify, theorem2_verify
from .checks import (
    extension_error, normal_identity_error, quadratic_form_residual,
    right_inverse_error, trace_norm_deviation, weight_paths_error,
    wri_deviations,
)
from .descent import basin_map
# fwi_value is read as cli.fwi_value by perfbench/worker.py
from .objectives import fwi_value, make_experiment, make_objective  # noqa: F401
from .operators import adjoint_test, make_discrete_S

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
        geo.require_admissible(self.c_star)
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
        if self.seed < 0:
            raise ValueError("config violation: seed must be nonnegative")
        self._check_grids(geo)

    def _check_grids(self, geo: Geometry):
        """Reject grids too short to sample a pulse, too large to allocate, or
        too large to sweep."""
        record = _named("dt", geo.data_grid, self.dt)
        # verify holds its probe field at most 16 whole rows at a time (with
        # as many rows of S^T e), but each adjoint probe still sweeps every
        # sample of the dz/2 by dt/2 field; the refined extension check
        # evaluates the pulse on its windows only, but streams full-length
        # rows over the mollifier band
        refined = (_named("dz", geo.space_grid, self.dz / 2.0).m
                   * _named("dt", geo.field_time_grid, self.dt / 2.0).n)
        row = _named("lambda", geo.field_time_grid, self.lambdas[0] / 80.0).n
        block = self.scan_points * (max(self.lambdas) / self.dt + 2.0)
        # a basins round evaluates up to two velocities (the gradient pair)
        # per start under each of its two objectives, at the first width
        basins_block = 2 * 2 * BASIN_STARTS * (self.lambdas[0] / self.dt + 2.0)
        for keys, what, n in (
            ("T, dt", "the data record would hold", record.n),
            ("dz, dt, T", "verify's refined field (dz/2 by dt/2) would sweep", refined),
            ("lambda", "verify's normal-identity row (dt = lambda/80) would hold", row),
            ("scan_points, lambda, dt",
             "the scan block (scan_points by lambda/dt) would hold", block),
            ("lambda, dt", "a basins round's block (4 x "
             f"{BASIN_STARTS} starts by lambda/dt) would hold", basins_block),
        ):
            if n > MAX_ARRAY_SAMPLES:
                raise ValueError(f"config violation: {keys}: {what} {n:.4g} "
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
    """Parse flat ``key = value`` lines; '#' starts a comment."""
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


def _write_csv(path: Path, header, rows):
    """Write header and rows; a row of floats only is formatted by one
    "%.17g,..." template, which gives the strings _fmt gives."""
    lines = [",".join(header)]
    templates = {}
    for row in rows:
        if all(isinstance(v, float) for v in row):
            n = len(row)
            if n not in templates:
                templates[n] = ",".join(["%.17g"] * n)
            lines.append(templates[n] % tuple(row))
        else:
            lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


# -- verify ------------------------------------------------------------------


def _ratio(fine: float, coarse: float) -> float:
    """Refinement ratio; inf (a failed check) when the coarse error is 0."""
    return fine / coarse if coarse else math.inf


def cmd_verify(cfg: RunConfig, out_dir: Path) -> int:
    geo = cfg.geometry()
    lam = cfg.lambdas[0]
    w = cfg.make_wavelet(lam)
    exp = make_experiment(geo, cfg.c_star, w, dt=cfg.dt)
    rows = []

    def check(name: str, measured: float, tol: float):
        rows.append((name, measured, tol, int(measured <= tol)))

    for c in (cfg.c_min, cfg.c_star, cfg.c_max):
        op = make_discrete_S(geo, c, cfg.dz, cfg.dt)
        check(f"adjoint_c{c:g}", adjoint_test(op, 10, cfg.seed), 1e-12)

    for c in (cfg.c_min, cfg.c_star, cfg.c_max):
        check(f"trace_norm_c{c:g}", trace_norm_deviation(geo, c, w, cfg.dt), 1e-3)

    # dt tied to the pulse width here so the interpolation error is the
    # resolved quantity (the preset dt makes some shifts land on the lattice)
    dt_n = lam / 40.0
    err_coarse = normal_identity_error(geo, cfg.c_star, cfg.dz, dt_n)
    err_fine = normal_identity_error(geo, cfg.c_star, cfg.dz / 2.0, dt_n / 2.0)
    check("normal_identity", err_coarse, 2e-2)
    check("normal_identity_refine", _ratio(err_fine, err_coarse), 0.5)

    # nan (a failed check) when the far region is empty
    far = theorem1_verify(exp, cfg.scan_points).detail
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
    objectives = [("J_fwi", make_objective(exp, "fwi"))]
    for alpha in cfg.alphas:
        objectives.append(
            (f"J_wri_a{alpha:.6g}", make_objective(exp, "wri", alpha=alpha))
        )
    for variant, col in (("signed", "J_ann_signed"), ("squared", "J_ann_squared"),
                         ("normalized", "J_ann_norm")):
        objectives.append((col, make_objective(exp, "annihilator", variant=variant)))
    cs = np.linspace(cfg.c_min, cfg.c_max, cfg.scan_points)
    result = scan_landscape(exp, objectives, cs)
    header = ["c"] + [name for name, _ in objectives]
    columns = [result.c_values.tolist()] + [result.values[n].tolist() for n, _ in objectives]
    _write_csv(out_dir / "scan.csv", header, zip(*columns))
    print(f"scan: {cfg.scan_points} rows at lambda = {lam:g} -> {out_dir / 'scan.csv'}")
    return 0


# -- theorems --------------------------------------------------------------------


def cmd_theorems(cfg: RunConfig, out_dir: Path) -> int:
    geo = cfg.geometry()
    header = ("theorem", "lambda", "alpha", "L", "lambda0", "beta",
              "predicted_c", "argmin_c", "pass")
    rows = []
    all_ok = True
    for lam in cfg.lambdas:
        exp = make_experiment(geo, cfg.c_star, cfg.make_wavelet(lam), dt=cfg.dt)
        reports = [theorem1_verify(exp, cfg.scan_points)]
        reports.extend(
            theorem2_verify(exp, alpha, cfg.scan_points) for alpha in cfg.alphas
        )
        for rep in reports:
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
    geo = cfg.geometry()
    lam = cfg.lambdas[0]
    exp = make_experiment(geo, cfg.c_star, cfg.make_wavelet(lam), dt=cfg.dt)
    starts = np.linspace(cfg.c_min, cfg.c_max, BASIN_STARTS)
    header = ("objective", "c0", "c_final", "label", "iterations", "final_grad")
    names = ("fwi", f"wri_a{cfg.alphas[0]:.6g}")
    reports = basin_map(exp, [("fwi", None), ("wri", cfg.alphas[0])], starts,
                        scan_points=cfg.scan_points)
    rows = [(name, rep.c0, rep.c_final, rep.label, rep.iterations, rep.grad_final)
            for name, reps in zip(names, reports) for rep in reps]
    _write_csv(out_dir / "basins.csv", header, rows)
    print(f"basins: {len(rows)} descents -> {out_dir / 'basins.csv'}")
    return 0


# -- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
                       help="accepted for compatibility; has no effect (every "
                            "command runs in one thread)")
    return parser


def load_config(args) -> RunConfig:
    raw = dict(PRESETS[args.preset]) if args.preset else dict(PRESETS["cfg0"])
    if args.preset is None and args.config is None:
        raise ValueError("need --preset and/or --config")
    if args.config is not None:
        raw.update(parse_config_text(args.config.read_text()))
    return build_run_config(raw)


def _keep_freed_blocks():
    """Let glibc's malloc keep freed blocks of up to 32 MiB for reuse.

    glibc maps every block above its mmap threshold afresh and returns free
    heap above its trim threshold to the system.  Both start at 128 KiB and
    rise only as large mapped blocks are freed.  A batched objective call
    allocates and frees several blocks above 128 KiB, so at those limits
    each call page-faults its memory in again: on a cfg0 scan plus theorems
    job about 2,600 faults and 15% more CPU time.  (basins, which sends the
    kernel only each distinct velocity once, takes about 4,300 faults over
    the eight cfg0-sized configs of the perfbench basins workload, at about
    the same CPU time.)  32 MiB, and twice that for trimming, is the most
    glibc's own rule reaches.  Nothing happens where the C library has no
    mallopt.
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
    out_dir = args.out if args.out is not None else Path(cfg.outdir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _keep_freed_blocks()
    return COMMANDS[args.command](cfg, out_dir)


if __name__ == "__main__":
    sys.exit(main())
