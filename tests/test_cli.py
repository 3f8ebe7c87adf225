"""End-to-end CLI runs: CSV schemas, determinism, config validation."""

import csv

import pytest

from wrilab.cli import build_run_config, main, parse_config_text


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify")
    rc = main(["verify", "--preset", "cfg0", "--out", str(out)])
    return rc, read_csv(out / "verify.csv")


@pytest.fixture(scope="module")
def scan_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("scan")
    rc = main(["scan", "--preset", "cfg0", "--out", str(out)])
    return rc, (out / "scan.csv").read_text(), read_csv(out / "scan.csv")


@pytest.fixture(scope="module")
def theorems_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("theorems")
    rc = main(["theorems", "--preset", "cfg0", "--out", str(out)])
    return rc, read_csv(out / "theorems.csv")


@pytest.fixture(scope="module")
def basins_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("basins")
    rc = main(["basins", "--preset", "cfg0", "--out", str(out)])
    return rc, read_csv(out / "basins.csv")


# -- verify --------------------------------------------------------------------

def test_verify_all_checks_pass(verify_run):
    rc, rows = verify_run
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
    assert measured["normal_identity_refine"] <= 0.5


# -- scan ----------------------------------------------------------------------

def test_scan_schema_and_values(scan_run):
    rc, text, rows = scan_run
    assert rc == 0
    header = text.splitlines()[0]
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


def test_scan_jobs_byte_identical(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("scan_points = 301\n")
    out1, out4 = tmp_path / "j1", tmp_path / "j4"
    assert main(["scan", "--preset", "cfg0", "--config", str(cfg),
                 "--out", str(out1), "--jobs", "1"]) == 0
    assert main(["scan", "--preset", "cfg0", "--config", str(cfg),
                 "--out", str(out4), "--jobs", "4"]) == 0
    assert (out1 / "scan.csv").read_bytes() == (out4 / "scan.csv").read_bytes()


# -- theorems --------------------------------------------------------------------

def test_theorems_all_applicable_rows_pass(theorems_run):
    rc, rows = theorems_run
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
    rc, rows = basins_run
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
    ("lambda = 0.04, abc", "config violation: lambda: could not convert"),
])
def test_invalid_config_exits_2(tmp_path, capsys, override, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(override + "\n")
    rc = main(["scan", "--preset", "cfg0", "--config", str(cfg),
               "--out", str(tmp_path)])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_missing_config_source_exits_2(tmp_path, capsys):
    rc = main(["scan", "--out", str(tmp_path)])
    assert rc == 2
    assert "need --preset and/or --config" in capsys.readouterr().err


def test_config_overrides_preset(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("scan_points = 101\n")
    out = tmp_path / "out"
    assert main(["scan", "--preset", "cfg0", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert len(read_csv(out / "scan.csv")) == 101
