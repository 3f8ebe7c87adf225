"""End-to-end CLI runs: CSV schemas, determinism, config validation."""

import csv
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import wrilab
from wrilab import cli
from wrilab.acoustics import Wavelet
from wrilab.checks import right_inverse_error, weight_paths_error, wri_deviations
from wrilab.cli import (
    CONFIG_KEYS, CSV_BLOCK_ROWS, MAX_ARRAY_SAMPLES, PRESETS, _fmt, _write_csv,
    build_parser, build_run_config, main, parse_config_text,
)
from wrilab.objectives import _ROW_BLOCK, make_experiment, penalty_factor


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_cfg0(tmp_path_factory, command, name):
    """Exit code, bytes and rows of the CSV that command writes on cfg0."""
    out = tmp_path_factory.mktemp(command)
    rc = main([command, "--preset", "cfg0", "--out", str(out)])
    return rc, (out / name).read_bytes(), read_csv(out / name)


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    return run_cfg0(tmp_path_factory, "verify", "verify.csv")


@pytest.fixture(scope="module")
def scan_run(tmp_path_factory):
    return run_cfg0(tmp_path_factory, "scan", "scan.csv")


@pytest.fixture(scope="module")
def theorems_run(tmp_path_factory):
    return run_cfg0(tmp_path_factory, "theorems", "theorems.csv")


@pytest.fixture(scope="module")
def basins_run(tmp_path_factory):
    return run_cfg0(tmp_path_factory, "basins", "basins.csv")


# sha256 of the cfg0 CSVs.  These are the bytes written on the reference
# machine of the BENCH_*.json files (2-core Intel Xeon, Python 3.11.7,
# numpy 2.4.6); another numpy or BLAS may round some values differently.
# A change that moves any of them breaks the byte identity that every
# speedup must keep, so re-pinning a digest needs an entry in CHANGES.md
# that says why the bytes changed.
CFG0_SHA256 = {
    "verify.csv": "87d2e3188072d02795c8d7a91c006dcfa05755887a84a96c9d9af889c73fd2dc",
    "scan.csv": "93b1c34085a15a71c979fdd4c1d3e3a6b32bbe58822ffcb51bc781c57b856c25",
    "theorems.csv": "ea57332cb63f044a57115c8e9ab6ac690c13f7ff13d8cbf37d5391d3d961b20c",
    "basins.csv": "9071e0398748d319bb9ad2cb810616cf73a3b66bdc57e80dc82042a42f53381f",
}


def test_cfg0_csvs_are_byte_identical(verify_run, scan_run, theorems_run, basins_run):
    runs = zip(CFG0_SHA256, (verify_run, scan_run, theorems_run, basins_run))
    digests = {name: hashlib.sha256(data).hexdigest() for name, (_, data, _) in runs}
    assert digests == CFG0_SHA256


# -- verify --------------------------------------------------------------------

# the wrilab modules each command loads besides cli, acoustics, grids and objectives
OWN_MODULES = {"scan": set(), "theorems": {"analysis"}, "basins": {"descent"},
               "verify": {"analysis", "checks", "operators"}}


@pytest.mark.parametrize("command", OWN_MODULES)
def test_command_imports_only_its_modules_and_numpy_core(tmp_path, command):
    # config validation and scan need acoustics and objectives alone, and
    # each other command imports what it runs, so a launch compiles no
    # module it does not run; the adjoint probes come from SplitMix64 on
    # numpy arrays and the bump antiderivative's Gauss-Legendre nodes are
    # literals, so numpy.random and numpy.polynomial stay unloaded
    code = ("import sys; from wrilab.cli import main; "
            f"rc = main([{command!r}, '--preset', 'cfg0', '--out', {str(tmp_path)!r}]); "
            "print(rc, sorted(m for m in sys.modules if m.startswith("
            "('numpy.random', 'numpy.polynomial', 'wrilab.'))))")
    env = dict(os.environ, PYTHONPATH=str(Path(wrilab.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    rc, loaded = done.stdout.splitlines()[-1].split(" ", 1)
    expected = {"acoustics", "cli", "grids", "objectives"} | OWN_MODULES[command]
    assert (rc, loaded) == ("0", str(sorted(f"wrilab.{m}" for m in expected)))


def test_verify_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a dot product of more than about 10,000 samples
    # across its threads, so a norm taken through it moves in the last bits
    # with their number; verify's long norms are numpy's pairwise sums
    env = dict(os.environ, PYTHONPATH=str(Path(wrilab.__file__).parents[1]))
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        subprocess.run([sys.executable, "-m", "wrilab.cli", "verify", "--preset", "cfg0",
                        "--out", str(out)], env=dict(env, OPENBLAS_NUM_THREADS=threads),
                       capture_output=True, check=True, timeout=120)
        written.append((out / "verify.csv").read_bytes())
    assert written[0] == written[1]


def test_verify_all_checks_pass(verify_run):
    rc, _, rows = verify_run
    assert rc == 0
    assert len(rows) == 19
    assert all(row["pass"] == "1" for row in rows)
    names = [row["check"] for row in rows]
    for expected in ("adjoint_c1", "trace_norm_c2", "normal_identity",
                     "plateau_far", "wri_route_equivalence", "wri_full_constant",
                     "weight_paths", "extension_bump", "quadratic_forms",
                     "right_inverse_roundtrip"):
        assert expected in names
    measured = {row["check"]: float(row["measured"]) for row in rows}
    assert measured["adjoint_c1"] <= 1e-12
    # the adjoint rows are round-off, held to a budget of 1e-14
    adjoint = [name for name in measured if name.startswith("adjoint_c")]
    assert len(adjoint) == 3
    assert all(measured[name] <= 1e-14 for name in adjoint)
    assert measured["normal_identity_refine"] <= 0.5
    # the two bump extension rows read W from a cubic Hermite table; they
    # moved by 7.0e-11 and 2.1e-10 relative from the trapezoid table's
    # values, within a budget of 1e-9
    trapezoid = {"extension_bump": 0.00049592970922358458,
                 "extension_refine_bump": 0.24756583083788999}
    for name, old in trapezoid.items():
        assert measured[name] == pytest.approx(old, rel=1e-9, abs=0.0)


def test_verify_records_inf_when_coarse_error_is_zero(tmp_path):
    # at dz = 0.6 every node's shift is a whole number of lam/40 samples, so
    # the coarse normal-identity error is exactly 0 and the refined one is not
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("dz = 0.6\n")
    rc = main(["verify", "--preset", "cfg0", "--config", str(cfg),
               "--out", str(tmp_path)])
    assert rc == 1
    rows = {row["check"]: row for row in read_csv(tmp_path / "verify.csv")}
    assert len(rows) == 19
    assert float(rows["normal_identity"]["measured"]) == 0.0
    assert rows["normal_identity_refine"]["measured"] == "inf"
    assert rows["normal_identity_refine"]["pass"] == "0"


@pytest.mark.parametrize("c_star", [0.8, 1.2, 1.5, 2.0])
def test_verify_measurements_pass_when_c_star_is_a_fixed_velocity(geo, c_star):
    # verify measures the penalty objective at 0.6, 0.8, 1.2, 1.5 and 2.0,
    # where a c_star among them leaves a misfit of round-off, and the weight
    # paths at 1.2 c_star; the arguments are cmd_verify's on cfg0
    exp = make_experiment(geo, c_star, Wavelet("bump", 0.04), dt=0.00025)
    deviations = wri_deviations(exp, (0.6, 0.8, 1.2, 1.5, 2.0), (0.25, 0.5, 0.6),
                                0.0025)
    assert max(deviations) <= 1e-6
    assert weight_paths_error(exp, 1.2 * c_star, 0.25, 0.0025) <= 1e-6


@pytest.mark.parametrize("c_star", [0.5, 1.0, 1.26, 1.3, 1.5, 1.9, 2.0])
def test_right_inverse_roundtrip_for_every_c_star(geo, c_star):
    # above c_star = 1.25 the inverse shifts the pulse before t = 0
    exp = make_experiment(geo, c_star, Wavelet("bump", 0.04), dt=0.00025)
    assert right_inverse_error(exp) <= 1e-13


def test_verify_passes_when_c_star_is_a_fixed_velocity(tmp_path):
    # at c_star = 1.2 the residual at a literal 1.2 is 0, and the penalty
    # checks meet a round-off misfit; cfg0 with dt doubled and one pulse
    # width still resolves every check
    cfg = tmp_path / "c12.cfg"
    cfg.write_text("c_star = 1.2\ndt = 0.0005\nlambda = 0.04\nscan_points = 301\n")
    rc = main(["verify", "--preset", "cfg0", "--config", str(cfg),
               "--out", str(tmp_path)])
    rows = read_csv(tmp_path / "verify.csv")
    assert len(rows) == 19
    assert [row["check"] for row in rows if row["pass"] != "1"] == []
    assert rc == 0


# -- scan ----------------------------------------------------------------------

def test_scan_schema_and_values(scan_run):
    rc, data, rows = scan_run
    assert rc == 0
    header = data.decode().splitlines()[0]
    assert header == ("c,J_fwi,J_wri_a0.25,J_wri_a0.5,J_wri_a0.6,"
                      "J_ann_signed,J_ann_squared,J_ann_norm")
    assert len(rows) == 2001
    cs = [float(row["c"]) for row in rows]
    assert cs[0] == 0.5 and cs[-1] == 2.0
    fwi = [float(row["J_fwi"]) for row in rows]
    argmin_c = cs[fwi.index(min(fwi))]
    assert abs(argmin_c - 1.0) <= 0.00075 + 1e-12
    # last row sits on the far plateau where the closed-form ratio is exactly
    # alpha^2/(k + alpha^2) = 1/2 for alpha = 1/4 at c = 2
    last = rows[-1]
    assert float(last["J_wri_a0.25"]) / float(last["J_fwi"]) == pytest.approx(
        0.5, abs=1e-12)
    assert float(last["J_ann_signed"]) > 0.0


def test_scan_keeps_alphas_that_print_alike_apart(tmp_path):
    cfg = tmp_path / "alphas.cfg"
    cfg.write_text("alpha = 0.25, 0.2500001, 0.6\nscan_points = 301\n")
    assert main(["scan", "--preset", "cfg0", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[2:5] == ["J_wri_a0.25", "J_wri_a0.25", "J_wri_a0.6"]
    geo = build_run_config(PRESETS["cfg0"]).geometry()
    for line in lines[1:]:
        c, fwi, *wri = (float(v) for v in line.split(",")[:5])
        for alpha, value in zip((0.25, 0.2500001, 0.6), wri):
            assert value == penalty_factor(geo, c, alpha) * fwi


def test_scan_jobs_byte_identical(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("scan_points = 301\n")
    out1, out4 = tmp_path / "j1", tmp_path / "j4"
    assert main(["scan", "--preset", "cfg0", "--config", str(cfg),
                 "--out", str(out1), "--jobs", "1"]) == 0
    assert main(["scan", "--preset", "cfg0", "--config", str(cfg),
                 "--out", str(out4), "--jobs", "4"]) == 0
    assert (out1 / "scan.csv").read_bytes() == (out4 / "scan.csv").read_bytes()


def _ulps(x: float, n: int) -> float:
    """The double n ulps above x (below it for n < 0)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


# doubles whose text is easy to get wrong: signed zeros and infinities, NaN,
# the smallest subnormal and normal doubles, the points where %.17g changes
# between fixed and exponent notation (below 1e-4 and from 1e17) or needs
# all 17 digits (1e16), and what the numpy formatter has to decide: 1e-4
# and its neighbours; 1 and 2 ulps either side of each 10^k it writes in
# fixed notation, where log10 can miss the exponent; the 17-digit ties,
# which round half-even; and the largest doubles below 1e16 and 1e17
EDGE_DOUBLES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                2.2250738585072014e-308, 1e-5, 9.999999999999999e-06, 1e-4,
                1e16, 1e16 + 2.0, 1e17, 9.999999999999998e16, -1e17, 0.1, 1.0 / 3.0,
                1000000000000000.25, 1000000000000000.75, 1e16 - 2.0, 1e17 - 16.0]
EDGE_DOUBLES += [_ulps(float(f"1e{k}"), n) for k in range(-4, 17) for n in (-2, -1, 1, 2)]


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(1, 5)),
                    elements=st.one_of(st.sampled_from(EDGE_DOUBLES), st.floats())))
def test_float_table_is_written_as_fmt_writes_each_value(tmp_path, table):
    # an array is formatted in numpy a block of rows at a time; its text must
    # be the rows of _fmt strings, the form every other CSV row takes
    path = tmp_path / "table.csv"
    header = [f"h{j}" for j in range(table.shape[1])]
    _write_csv(path, header, table)
    rows = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in table.tolist()]
    assert path.read_text() == "\n".join(rows) + "\n"


@settings(max_examples=25, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1))
def test_float_table_text_is_percent_17g_on_whole_arrays(tmp_path, seed):
    # 4,104 values per example, over more than one block of rows: 64-bit
    # patterns drawn uniformly (every double, NaN and the infinities among
    # them), magnitudes drawn log-uniformly from [1e-4, 1e17) with either
    # sign, and every EDGE_DOUBLE; about 0.5 s of the tier-1 suite
    rng = np.random.default_rng(seed)
    n_log = 2000 + (-len(EDGE_DOUBLES)) % 8
    values = np.concatenate([
        rng.integers(0, 2**64, 2000, dtype=np.uint64).view(np.float64),
        10.0 ** rng.uniform(-4.0, 17.0, n_log) * rng.choice([-1.0, 1.0], n_log),
        EDGE_DOUBLES])
    table = rng.permutation(values).reshape(-1, 8)
    assert len(table) > CSV_BLOCK_ROWS
    path = tmp_path / "table.csv"
    _write_csv(path, [f"h{j}" for j in range(8)], table)
    expected = "".join(",".join(["%.17g"] * 8) % tuple(row) + "\n" for row in table.tolist())
    assert path.read_text() == "h0,h1,h2,h3,h4,h5,h6,h7\n" + expected


def _traced_peak(fn, *args) -> int:
    """Bytes traced at the peak of a second call fn(*args)."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_float_table_is_written_one_block_at_a_time(tmp_path):
    # the text of one block of rows is made and written at a time: writing
    # (n, 8) tables holds 0.91 MiB traced at n = 2,000 and at n = 20,000
    # (formatted whole, they held 0.93 and 9.29 MiB)
    rng = np.random.default_rng(0)
    header = [f"h{j}" for j in range(8)]
    small, large = (_traced_peak(_write_csv, tmp_path / "t.csv", header,
                                 rng.standard_normal((n, 8))) for n in (2000, 20000))
    assert large < 1.1 * small


def test_scan_csv_holds_less_than_the_scan_misfit(tmp_path, monkeypatch):
    # writing cfg0's 2,001 x 8 scan table holds 0.92 MiB traced, below the
    # 1.98 MiB of the scan's misfit call (test_objectives.py,
    # test_scan_grid_misfit_holds_one_block_at_a_time), so scan.csv cannot
    # raise the peak memory of a scan
    write, peaks = cli._write_csv, []
    monkeypatch.setattr(cli, "_write_csv",
                        lambda *args: peaks.append(_traced_peak(write, *args)))
    assert main(["scan", "--preset", "cfg0", "--out", str(tmp_path)]) == 0
    assert len(peaks) == 1 and peaks[0] < 1.98 * 2**20


# -- theorems --------------------------------------------------------------------

def test_theorems_all_applicable_rows_pass(theorems_run):
    rc, _, rows = theorems_run
    assert rc == 0
    assert len(rows) == 12
    assert all(row["pass"] == "1" for row in rows)
    t1 = [row for row in rows if row["theorem"] == "1"]
    assert len(t1) == 3
    assert all(row["alpha"] == "" and row["beta"] == "" for row in t1)
    flat = [row for row in rows if row["alpha"] == "0.5"]
    assert len(flat) == 3
    assert all(row["beta"] == "0" and row["predicted_c"] == "" for row in flat)
    wide_low = next(row for row in rows
                    if float(row["lambda"]) == 0.04 and row["alpha"] == "0.25")
    # the lower far segment is cut off by c_min at this width; the predicted
    # argmin is the first grid point beyond c_star + L*lambda = 1.64
    assert abs(float(wide_low["predicted_c"]) - 1.64) <= 0.00075 + 1e-9
    assert wide_low["argmin_c"] == wide_low["predicted_c"]


# -- basins ----------------------------------------------------------------------

def test_basins_schema_and_label_structure(basins_run):
    rc, _, rows = basins_run
    assert rc == 0
    assert len(rows) == 202
    fwi = [row for row in rows if row["objective"] == "fwi"]
    wri = [row for row in rows if row["objective"] == "wri_a0.25"]
    assert len(fwi) == len(wri) == 101
    assert {row["label"] for row in fwi} == {"target", "upper_bound"}
    assert {row["label"] for row in wri} == {"target", "lower_bound"}
    assert fwi[0]["label"] == "target" and fwi[-1]["label"] == "upper_bound"
    assert wri[0]["label"] == "lower_bound" and wri[-1]["label"] == "target"
    assert float(fwi[-1]["c_final"]) == 2.0
    assert float(wri[0]["c_final"]) == 0.5
    # cfg0's descent outcome; labels survive objective noise of +-64 ulp
    assert Counter(row["label"] for row in fwi) == {"upper_bound": 64, "target": 37}
    assert Counter(row["label"] for row in wri) == {"lower_bound": 31, "target": 70}


def test_basins_target_labels_survive_a_coarse_scan_grid(tmp_path, basins_run):
    # the labels come from the descents' end points alone, so a 3-point scan
    # grid writes cfg0's basins.csv byte for byte
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("scan_points = 3\n")
    assert main(["basins", "--preset", "cfg0", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "basins.csv").read_bytes() == basins_run[1]


# -- configuration -------------------------------------------------------------

def test_config_parsing_units():
    parsed = parse_config_text("# comment\n\ndz = 0.01 # inline\nseed = 3\n")
    assert parsed == {"dz": "0.01", "seed": "3"}
    with pytest.raises(ValueError, match="line 2: unknown key"):
        parse_config_text("dz = 0.01\nbogus = 3\n")
    with pytest.raises(ValueError, match="line 1: expected"):
        parse_config_text("just words\n")
    with pytest.raises(ValueError, match="missing keys"):
        build_run_config({"dz": "0.01"})


@pytest.mark.parametrize("override,message", [
    ("z_r = 0.3", "z_s != z_r"),
    ("T = 1.0", "slowest arrival"),
    ("lambda = 0.5", "config violation: lambda"),
    ("eps = 0.6", "eps must lie in"),
    ("wavelet = ricker", "unknown wavelet"),
    ("alpha = -0.25", "alpha values must be positive"),
    ("scan_points = 1", "scan_points must be at least 2"),
    # every float key must be finite
    ("z_min = -inf", "z_min must be finite"),
    ("z_max = inf", "z_max must be finite"),
    ("z_s = nan", "z_s must be finite"),
    ("z_r = nan", "z_r must be finite"),
    ("T = inf", "T must be finite"),
    ("rho = nan", "rho must be finite"),
    ("c_min = nan", "c_min must be finite"),
    ("c_max = inf", "c_max must be finite"),
    ("c_star = nan", "c_star must be finite"),
    ("lambda = 0.04, nan", "lambda must be finite"),
    ("alpha = 0.25, inf", "alpha must be finite"),
    ("dz = nan", "dz must be finite"),
    ("dt = inf", "dt must be finite"),
    ("eps = nan", "eps must be finite"),
    # a value that does not parse names its key
    ("dz = abc", "config violation: dz: could not convert"),
    ("scan_points = 1e3", "config violation: scan_points: invalid literal"),
    ("seed = x", "config violation: seed: invalid literal"),
    # the seed is the adjoint probes' SplitMix64 state, a 64-bit word
    ("seed = -1", "config violation: seed must lie in [0, 2^64); got -1"),
    ("seed = 18446744073709551616",
     "config violation: seed must lie in [0, 2^64); got 18446744073709551616"),
    ("lambda = 0.04, abc", "config violation: lambda: could not convert"),
    # grids too short to sample, or too large to allocate
    ("dt = 5", "config violation: dt: time grid needs at least two samples"),
    ("dt = 1e-9", "config violation: T, dt: the data record would hold"),
    ("dt = 1e-320", "config violation: dt: cannot convert float infinity"),
    ("dz = 1e-9", "config violation: dz, dt, T, z_min, z_max, z_r, c_min: verify's "
     "refined field"),
    ("T = 100", "config violation: dz, dt, T, z_min, z_max, z_r, c_min: verify's "
     "refined field"),
    # each node and each row fits, but every probe would sweep ~3e10 samples
    ("dz = 1e-5\ndt = 1e-5", "config violation: dz, dt, T, z_min, z_max, z_r, c_min: "
     "verify's refined field (dz/2 by dt/2) would sweep"),
    # the field time grid grows with the receiver's distance from the
    # domain's ends over c_min
    ("z_max = 3", "config violation: dz, dt, T, z_min, z_max, z_r, c_min: verify's "
     "refined field (dz/2 by dt/2) would sweep 1.133e+08 samples"),
    # a sample count past the double range
    ("z_max = 1e200", "config violation: dz, dt, T, z_min, z_max, z_r, c_min: verify's "
     "refined field (dz/2 by dt/2) would sweep more than 1e300 samples"),
    ("z_min = -1e300", "config violation: dz, dt, T, z_min, z_max, z_r, c_min: verify's "
     "refined field (dz/2 by dt/2) would sweep more than 1e300 samples"),
    ("scan_points = 100000000",
     "config violation: scan_points, lambda, dt: scan's pulse windows (scan_points "
     "windows of lambda/dt + 2 samples) would sweep"),
    ("lambda = 1e-6", "config violation: lambda, T, z_min, z_max, z_r, c_min: verify's "
     "normal-identity row"),
    # values that crashed a command
    ("alpha = 1e200", "config violation: alpha: alpha^2 must be a positive finite"),
    ("alpha = 1e-200", "config violation: alpha: alpha^2 must be a positive finite"),
    ("lambda = 0.0001",
     "config violation: lambda: the width-0.0001 pulse samples to all zeros"),
    ("c_min = 1\nc_max = 1", "0 < c_min < c_max"),
    # c_star must lie in [c_min, c_max], however the interval moved
    ("c_star = 3", "config violation: c_star: velocity 3.0 outside admissible [0.5, 2.0]"),
    ("c_min = 1.5", "config violation: c_star: velocity 1.0 outside admissible [1.5, 2.0]"),
    ("c_max = 0.8", "config violation: c_star: velocity 1.0 outside admissible [0.5, 0.8]"),
    # fd_h's default, 1e-6 (c_max - c_min), reaches c_min: a gradient pair
    # at c_min would ask for a velocity that is not positive
    ("c_max = 6e5", "config violation: c_min, c_max: fd_h must be below c_min"),
    # a key set twice would run at its last value
    ("c_star = 1.05\nc_star = 0.95", "config line 2: key 'c_star' is set twice"),
])
def test_invalid_config_exits_2(tmp_path, capsys, override, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(override + "\n")
    rc = main(["scan", "--preset", "cfg0", "--config", str(cfg),
               "--out", str(tmp_path)])
    assert rc == 2
    assert message in capsys.readouterr().err


# every value lies far from the array limits, so no accepted edit makes
# _check_grids build a large record: one just under them would take 512 MiB
EDIT_POOL = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "-1e300", "abc")


@pytest.mark.parametrize("key", [key for key in CONFIG_KEYS if key != "outdir"])
def test_every_one_key_edit_of_cfg0_is_accepted_or_refused_by_name(key):
    values = list(EDIT_POOL)
    if key != "wavelet":  # and cfg0's value times 0.5, 2 and 3, item by item
        numbers = [float(part) for part in PRESETS["cfg0"][key].split(",")]
        values += [", ".join(f"{x * f:.17g}" for x in numbers) for f in (0.5, 2, 3)]
    unnamed = []
    for value in values:
        try:
            build_run_config(dict(PRESETS["cfg0"], **{key: value}))
        except Exception as err:  # a refusal is a ValueError that names its keys
            if not (isinstance(err, ValueError) and str(err).startswith(
                    ("config violation", "geometry violation"))):
                unnamed.append((value, repr(err)))
    assert unnamed == []


def test_basins_round_block_is_bounded():
    # every key but lambda and dt fits: scan sweeps 2 windows and verify's
    # grids are coarse, but a basins round, one kernel call of 202 rows or
    # more, would sample blocks of 512 windows of 2,000,002 samples (7.6 GiB);
    # the config is rejected before any of it
    raw = dict(PRESETS["cfg0"], dt="2e-7", scan_points="2", dz="0.8")
    raw["lambda"] = "0.4"
    assert _ROW_BLOCK * (0.4 / 2e-7 + 2) > MAX_ARRAY_SAMPLES
    with pytest.raises(ValueError, match="config violation: lambda, dt: a misfit-kernel "
                                         r"block \(512 windows of lambda/dt \+ 2 samples\)"):
        build_run_config(raw)


def test_missing_config_source_exits_2(tmp_path, capsys):
    rc = main(["scan", "--out", str(tmp_path)])
    assert rc == 2
    assert "need --preset and/or --config" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--out", "outdir"])
def test_unusable_output_directory_exits_2(tmp_path, capsys, flag):
    # an existing file as the directory, or a directory under a file
    taken = tmp_path / "taken"
    taken.write_text("")
    if flag == "--out":
        rc = main(["scan", "--preset", "cfg0", "--out", str(taken)])
    else:
        cfg = tmp_path / "out.cfg"
        cfg.write_text(f"outdir = {taken / 'sub'}\n")
        rc = main(["scan", "--preset", "cfg0", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and "output directory" in err


def test_config_overrides_preset(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("scan_points = 101\n")
    out = tmp_path / "out"
    assert main(["scan", "--preset", "cfg0", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert len(read_csv(out / "scan.csv")) == 101


# -- one parser per process ------------------------------------------------------

def test_parser_is_built_once_and_each_call_parses_its_own_arguments(tmp_path, capsys):
    assert build_parser() is build_parser()
    cfg = tmp_path / "small.cfg"
    cfg.write_text(f"scan_points = 11\noutdir = {tmp_path / 'outdir'}\n")
    out = tmp_path / "out"
    # the first call's --out must not reach the second call, which writes to
    # the config's outdir
    assert main(["scan", "--preset", "cfg0", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert len(read_csv(out / "scan.csv")) == 11
    assert not (tmp_path / "outdir").exists()
    assert main(["theorems", "--config", str(cfg)]) == 0
    assert (tmp_path / "outdir" / "theorems.csv").exists()
    assert not (out / "theorems.csv").exists()
    capsys.readouterr()
    for argv in (["scan", "--preset", "cfg0", "--bogus"], ["scan", "--preset", "cfg9"],
                 ["sacn"], []):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        assert "usage: wrilab" in capsys.readouterr().err


# -- the benchmark's entry points --------------------------------------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_entry_points_run_on_cfg0(tmp_path):
    # the benchmark's worker probes set-up through cli.load_config,
    # cli.make_experiment and cli.fwi_value(...).value, and runs jobs
    # through cli.main with --jobs 1, on config files that set every key,
    # rho and outdir among them; it only reads this checkout
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    config = tmp_path / "cfg0.cfg"
    config.write_text(workloads.config_text(workloads.CFG0))
    worker = [sys.executable, str(PERFBENCH / "worker.py")]
    common = ["--src", str(Path(wrilab.__file__).parents[1]), "--config", str(config)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    probe = subprocess.run(worker + ["probe", "--command", "scan"] + common, env=env,
                           capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    assert isinstance(json.loads(probe.stdout)["value"], float)
    result = tmp_path / "result.json"
    job = subprocess.run(worker + ["run", "--workload", "landscape", "--seed", "0",
                                   "--out", str(tmp_path / "out"), "--seconds", "0",
                                   "--min-jobs", "1", "--result", str(result)] + common,
                         env=env, capture_output=True, text=True, timeout=120)
    assert job.returncode == 0, job.stderr
    run = json.loads(result.read_text())
    assert run["failures"] == [] and run["reference_structure_ok"]
