"""Workload inputs and output checks for the wrilab benchmark.

A workload job is a fixed sequence of ``wrilab`` subcommands run on each of a
fixed number of generated config files.  A seed draws, per config, the target
velocity c_star uniformly from [0.9, 1.1] and the probe seed of the adjoint
tests; the first config of seed 0 is the cfg0 preset verbatim.  That range
keeps every check of every subcommand passing (verified at c_star = 0.9,
0.97, 1.06 and 1.1), so no operation is expected to fail; it must not be
narrowed to hide a failing check.

basins runs on eight configs per job: the number of objective calls its
descents make is an erratic function of c_star (32k to 65.6k per config, 35%
apart for c_star 0.9472 and 0.9475), so a single draw would make the job's
work, not the program's speed, dominate the spread between seeds.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
import struct

# name -> (subcommands of one job, configs per job)
WORKLOADS = {
    "verify": (("verify",), 1),
    "landscape": (("scan", "theorems"), 1),
    "basins": (("basins",), 8),
}

CSV_OF = {"verify": "verify.csv", "scan": "scan.csv",
          "theorems": "theorems.csv", "basins": "basins.csv"}

# the cfg0 preset of wrilab.cli, copied so the inputs do not move with the program
CFG0 = {
    "z_min": "0", "z_max": "1", "z_s": "0.3", "z_r": "0.8", "T": "1.5",
    "rho": "1", "c_min": "0.5", "c_max": "2", "c_star": "1",
    "lambda": "0.04, 0.02, 0.01", "alpha": "0.25, 0.5, 0.6",
    "wavelet": "bump", "dz": "0.0025", "dt": "0.00025",
    "scan_points": "2001", "eps": "0.2", "seed": "0", "outdir": ".",
}

C_STAR_RANGE = (0.9, 1.1)

# deviation reported when CSVs differ in structure; above any ulp distance
MISMATCH_ULP = 2.0**64

BASIN_LABELS = {"target", "lower_bound", "upper_bound", "interior_spurious"}

# columns that must match the reference text exactly; the rest are compared in ulps
EXACT_COLUMNS = {
    "verify.csv": ("check", "tolerance", "pass"),
    "scan.csv": (),
    "theorems.csv": ("theorem", "lambda", "alpha", "pass"),
    "basins.csv": ("objective", "c0", "label"),
}


def configs_for_seed(seed: int, count: int) -> list:
    """Config values of a workload seed; the first one of seed 0 is cfg0."""
    rng = random.Random(seed)
    configs = []
    for k in range(count):
        cfg = dict(CFG0)
        if seed != 0 or k > 0:
            cfg["c_star"] = repr(rng.uniform(*C_STAR_RANGE))
            cfg["seed"] = str(rng.randrange(2**31))
        configs.append(cfg)
    return configs


def config_text(cfg: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in cfg.items())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def check_csv(command: str, text: str, cfg: dict) -> str | None:
    """None when the command's CSV is correct, else the reason it is not."""
    rows = _rows(text)
    if not rows:
        return "empty csv"
    header, body = rows[0], rows[1:]
    col = {name: k for k, name in enumerate(header)}
    if command == "verify":
        passed = sum(row[col["pass"]] == "1" for row in body)
        if len(body) != 19 or passed != 19:
            return f"verify: {passed}/{len(body)} checks passed, want 19/19"
    elif command == "scan":
        if len(body) != int(cfg["scan_points"]):
            return f"scan: {len(body)} rows, want {cfg['scan_points']}"
        if not all(math.isfinite(float(v)) for row in body for v in row):
            return "scan: non-finite value"
    elif command == "theorems":
        flags = [row[col["pass"]] for row in body]
        if not flags or any(f not in ("1", "na") for f in flags) or "1" not in flags:
            return f"theorems: pass flags {flags}"
    elif command == "basins":
        labels = {row[col["label"]] for row in body}
        if len(body) != 202 or not labels <= BASIN_LABELS:
            return f"basins: {len(body)} rows with labels {sorted(labels)}"
    return None


def _ordered(x: float) -> int:
    """Integer whose order matches the float's, so differences count ulps."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def ulp_distance(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return 0.0 if (a == b or (math.isnan(a) and math.isnan(b))) else MISMATCH_ULP
    return float(abs(_ordered(a) - _ordered(b)))


def compare_csv(name: str, text: str, ref: str) -> tuple:
    """(same structure, largest ulp deviation) of a CSV against a reference.

    Structure is the header, the row count and the exact columns (check names,
    pass flags, labels, inputs); every other field is parsed as a double.
    """
    if text == ref:
        return True, 0.0
    rows, ref_rows = _rows(text), _rows(ref)
    if len(rows) != len(ref_rows) or rows[0] != ref_rows[0]:
        return False, MISMATCH_ULP
    exact = {k for k, col in enumerate(ref_rows[0]) if col in EXACT_COLUMNS.get(name, ())}
    worst = 0.0
    for row, ref_row in zip(rows[1:], ref_rows[1:]):
        if len(row) != len(ref_row):
            return False, MISMATCH_ULP
        for k, (a, b) in enumerate(zip(row, ref_row)):
            if a == b:
                continue
            if k in exact:
                return False, MISMATCH_ULP
            try:
                worst = max(worst, ulp_distance(float(a), float(b)))
            except ValueError:
                return False, MISMATCH_ULP
    return True, worst
