"""Self-tests of the benchmark: inputs, counters, tracing side effects.

Run from the root of a checkout (about a minute; not part of the tier-1 suite,
whose collection pattern does not match this file):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer, is_count, layer_metrics  # noqa: E402
from worker import Runner, import_cli, reference  # noqa: E402

# counts of one job per subcommand on cfg0, measured at the commit that added
# the benchmark; a change that alters one must say so
SEED0_COUNTS = {
    "verify": {"operators.apply.calls": 49, "operators.apply_adjoint.calls": 45,
               "operators.normal_apply.calls": 18, "operators.cg_solve.calls": 16,
               "operators.cg_solve.iterations": 16},
    "scan": {"objectives.fwi_value.calls": 8004, "operators.apply.calls": 0},
    "theorems": {"objectives.fwi_value.calls": 12816, "operators.apply.calls": 0},
    "basins": {"descent.objective_calls": 65569, "descent.descend.calls": 202,
               "descent.iterations": 3645 + 4610, "descent.reason.bound": 64 + 31,
               "descent.reason.step": 37 + 39, "descent.reason.gradient": 31,
               "descent.reason.max_iterations": 0, "operators.apply.calls": 0},
}


def _snapshot() -> dict:
    """Every name, class attribute and module-level dict entry of wrilab."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name != "wrilab" and not name.startswith("wrilab."):
            continue
        for key, value in vars(mod).items():
            snap[(name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("wrilab"):
                snap.update({(name, key, a): v for a, v in vars(value).items()})
            if isinstance(value, dict) and not key.startswith("__"):
                snap.update({(name, key, "[]", k): v for k, v in value.items()})
    return snap


@pytest.fixture(scope="module")
def cli():
    return import_cli(ROOT / "src")


@pytest.fixture()
def cfg0(tmp_path):
    path = tmp_path / "cfg0.txt"
    path.write_text(workloads.config_text(workloads.CFG0))
    return path


def test_seed_inputs(cli):
    assert workloads.CFG0 == cli.PRESETS["cfg0"]
    for count in (1, 4):
        assert workloads.configs_for_seed(0, count)[0] == workloads.CFG0
    drawn = workloads.configs_for_seed(12, 4)
    assert drawn == workloads.configs_for_seed(12, 4)
    assert drawn != workloads.configs_for_seed(13, 4)
    lo, hi = workloads.C_STAR_RANGE
    assert all(lo <= float(cfg["c_star"]) <= hi for cfg in drawn)
    assert len({cfg["c_star"] for cfg in drawn}) == 4


def test_ulp_compare():
    assert workloads.ulp_distance(1.0, math.nextafter(1.0, 2.0)) == 1.0
    assert workloads.ulp_distance(-0.0, 0.0) == 0.0
    tiny = math.nextafter(0.0, 1.0)
    assert workloads.ulp_distance(-tiny, tiny) == 2.0
    ref = "objective,c0,c_final,label\nfwi,0.5,1.0,target\n"
    bumped = f"objective,c0,c_final,label\nfwi,0.5,{math.nextafter(1.0, 2.0)!r},target\n"
    assert workloads.compare_csv("basins.csv", bumped, ref) == (True, 1.0)
    relabeled = ref.replace("target", "upper_bound")
    assert workloads.compare_csv("basins.csv", relabeled, ref)[0] is False


@pytest.mark.parametrize("command", ["verify", "scan", "theorems", "basins"])
def test_tracing_counts_and_side_effects(cli, cfg0, tmp_path, command):
    runner = Runner(workloads, cli, "basins", [cfg0], 0, tmp_path)
    runner.commands = (command,)
    _, plain = runner.job()
    before = _snapshot()
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        assert not tracer.missing
        try:
            _, traced = runner.job()
        finally:
            assert tracer.uninstall()
        assert traced == plain  # tracing leaves every CSV byte-identical
        metrics = layer_metrics(tracer)
        counts.append({k: v for k, v in metrics.items() if is_count(k)})
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not runner.failures
    assert counts[0] == counts[1]
    for key, want in SEED0_COUNTS[command].items():
        assert counts[0][key] == want, key
    name = f"0/{workloads.CSV_OF[command]}"
    assert plain[name] == reference()[name]


def test_bare_checkout_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        spec["command"] + ["--workload", "landscape", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
