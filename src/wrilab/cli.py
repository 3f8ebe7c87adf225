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
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .acoustics import (
    Geometry, Wavelet, extension_source, normal_constant, point_forward,
    point_right_inverse,
)
from .analysis import (
    lambda_admissible_max, scan_landscape, separation_scale, theorem1_verify,
    theorem2_verify,
)
from .descent import basin_map
from .grids import Trace, eval_interp
from .objectives import (
    WriConfig, fwi_plateau, fwi_value, make_experiment, make_objective,
    quadratic_form_checks, weight_apply, wri_value,
)
from .operators import adjoint_test, forward_general, make_discrete_S

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
        lam0 = lambda_admissible_max(geo)
        if not self.lambdas:
            raise ValueError("config violation: lambda list must be nonempty")
        for lam in self.lambdas:
            if not (0.0 < lam < lam0):
                raise ValueError(
                    f"config violation: lambda = {lam} must satisfy "
                    f"0 < lambda < {lam0} (= T - |z_s - z_r|/c_min)"
                )
        if not self.alphas or any(a <= 0.0 for a in self.alphas):
            raise ValueError("config violation: alpha values must be positive")
        try:
            self.make_wavelet(self.lambdas[0])
        except ValueError as err:
            raise ValueError(f"config violation: {err}") from None
        if self.dz <= 0.0 or self.dt <= 0.0:
            raise ValueError("config violation: dz and dt must be positive")
        if self.scan_points < 2:
            raise ValueError("config violation: scan_points must be at least 2")
        eps_max = min(abs(self.z_r - self.z_s), self.z_s - self.z_min,
                      self.z_max - self.z_s)
        if not (0.0 < self.eps < eps_max):
            raise ValueError(
                f"config violation: eps must lie in (0, {eps_max})"
            )
        if self.seed < 0:
            raise ValueError("config violation: seed must be nonnegative")

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


def _float_list(text: str) -> tuple:
    items = [part.strip() for part in text.split(",") if part.strip()]
    return tuple(float(part) for part in items)


def build_run_config(raw: dict) -> RunConfig:
    """Typed RunConfig from raw string values (preset plus overrides)."""
    missing = [key for key in CONFIG_KEYS if key not in raw]
    if missing:
        raise ValueError(f"config violation: missing keys {missing}")
    return RunConfig(
        z_min=float(raw["z_min"]), z_max=float(raw["z_max"]),
        z_s=float(raw["z_s"]), z_r=float(raw["z_r"]), T=float(raw["T"]),
        rho=float(raw["rho"]), c_min=float(raw["c_min"]),
        c_max=float(raw["c_max"]), c_star=float(raw["c_star"]),
        lambdas=_float_list(raw["lambda"]), alphas=_float_list(raw["alpha"]),
        wavelet=raw["wavelet"], dz=float(raw["dz"]), dt=float(raw["dt"]),
        scan_points=int(raw["scan_points"]), eps=float(raw["eps"]),
        seed=int(raw["seed"]), outdir=raw["outdir"],
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _trace_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


# -- verify ------------------------------------------------------------------


def _extension_error(cfg: RunConfig, kind: str, dz: float, dt: float) -> float:
    """Relative trace error of the extended source against the point source."""
    geo = cfg.geometry()
    lam = cfg.lambdas[0]
    w = Wavelet(kind, lam)
    zgrid = geo.space_grid(dz)
    ftgrid = geo.field_time_grid(dt)
    data_grid = geo.data_grid(dt)
    c = cfg.c_star
    src = extension_source(geo, c, w, cfg.eps, zgrid, ftgrid)
    made = forward_general(geo, c, src, data_grid)
    ref = point_forward(geo, c, w, data_grid)
    return _trace_rel_err(made.samples, ref.samples)


def _normal_identity_error(cfg: RunConfig, dz: float, dt: float) -> float:
    """|| S S^T e - k e || / || e || for a smooth probe trace."""
    geo = cfg.geometry()
    op = make_discrete_S(geo, cfg.c_star, dz, dt)
    t = op.data_tgrid.times()
    s = (t - 0.3) / 0.9
    e = np.zeros_like(t)
    inside = (s > 0.0) & (s < 1.0)
    e[inside] = np.exp(-1.0 / (s[inside] * (1.0 - s[inside])))
    k = normal_constant(geo, cfg.c_star)
    y = op.normal_apply(e, alpha=0.0)
    return float(np.linalg.norm(y - k * e) / np.linalg.norm(e))


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
        tr = point_forward(geo, c, w, geo.data_grid(cfg.dt))
        norm2 = cfg.dt * float(np.dot(tr.samples, tr.samples))
        check(f"trace_norm_c{c:g}", abs(4.0 * c * c * norm2 - 1.0), 1e-3)

    # dt tied to the pulse width here so the interpolation error is the
    # resolved quantity (the preset dt makes some shifts land on the lattice)
    dt_n = lam / 40.0
    err_coarse = _normal_identity_error(cfg, cfg.dz, dt_n)
    err_fine = _normal_identity_error(cfg, cfg.dz / 2.0, dt_n / 2.0)
    check("normal_identity", err_coarse, 2e-2)
    check("normal_identity_refine", err_fine / err_coarse, 0.5)

    big_l = separation_scale(geo)
    cs = np.linspace(cfg.c_min, cfg.c_max, cfg.scan_points)
    far = cs[np.abs(cs - cfg.c_star) > big_l * lam]
    plateau = fwi_plateau(exp, far)
    check("plateau_far",
          float(np.max(np.abs(fwi_value(exp, far).value - plateau) / plateau)), 5e-3)

    route_dev = 0.0
    ratio_dev = 0.0
    const_dev = 0.0
    for c in (0.6, 0.8, 1.2, 1.5, 2.0):
        fwi = fwi_value(exp, c).value
        for alpha in cfg.alphas:
            var = wri_value(exp, c, WriConfig(alpha, route="variational", dz=cfg.dz))
            clo = wri_value(exp, c, WriConfig(alpha, route="closed_form"))
            route_dev = max(route_dev, abs(var.value - clo.value) / clo.value)
            factor = alpha**2 / (normal_constant(geo, c) + alpha**2)
            ratio_dev = max(ratio_dev, abs(var.value / fwi - factor))
            const_dev = max(const_dev, abs(var.value / (factor * fwi) - 1.0))
    check("wri_route_equivalence", route_dev, 1e-6)
    check("wri_fwi_ratio", ratio_dev, 1e-6)
    # a weighted-norm variant would make this ratio 0.5; the solver gives 1
    check("wri_full_constant", const_dev, 1e-6)

    r = Trace(exp.data.grid, exp.data.samples - point_forward(
        geo, 1.2, w, exp.data.grid).samples)
    gen = weight_apply(exp, 1.2, cfg.alphas[0], r, path="general", dz=cfg.dz)
    sca = weight_apply(exp, 1.2, cfg.alphas[0], r, path="scalar")
    check("weight_paths", _trace_rel_err(gen.samples, sca.samples), 1e-6)

    for kind in ("bump", "bump_derivative"):
        e1 = _extension_error(cfg, kind, cfg.dz, cfg.dt)
        e2 = _extension_error(cfg, kind, cfg.dz / 2.0, cfg.dt / 2.0)
        check(f"extension_{kind}", e1, 2e-2)
        check(f"extension_refine_{kind}", e2 / e1, 0.5)

    qdev = 0.0
    for c in (0.8 * cfg.c_star, cfg.c_star, 1.2 * cfg.c_star):
        rep = quadratic_form_checks(exp, c)
        qdev = max(qdev, rep["resid_reconstructed"], rep["resid_three_term"],
                   rep["resid_cross_term"])
    check("quadratic_forms", qdev, 1e-8)

    # right-inverse roundtrip at a velocity whose transit time is on the
    # dt lattice, so the discrete composition is interpolation-free
    c_ri = geo.offset / (round(geo.offset / (1.25 * cfg.dt)) * cfg.dt)
    u = point_right_inverse(geo, c_ri, exp.data, exp.data.grid)
    back = eval_interp(u, exp.data.grid.times() - geo.transit_time(c_ri))
    back = back / (2.0 * c_ri)
    check("right_inverse_roundtrip",
          _trace_rel_err(back, exp.data.samples), 1e-10)

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
    rows = [
        [float(result.c_values[i])] + [float(result.values[n][i]) for n, _ in objectives]
        for i in range(cfg.scan_points)
    ]
    _write_csv(out_dir / "scan.csv", header, rows)
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
    starts = np.linspace(cfg.c_min, cfg.c_max, 101)
    header = ("objective", "c0", "c_final", "label", "iterations", "final_grad")
    rows = []
    runs = [("fwi", "fwi", None),
            (f"wri_a{cfg.alphas[0]:.6g}", "wri", cfg.alphas[0])]
    for name, kind, alpha in runs:
        for rep in basin_map(exp, kind, starts, alpha=alpha,
                             scan_points=cfg.scan_points):
            rows.append((name, rep.c0, rep.c_final, rep.label,
                         rep.iterations, rep.grad_final))
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
    return COMMANDS[args.command](cfg, out_dir)


if __name__ == "__main__":
    sys.exit(main())
