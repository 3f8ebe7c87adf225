"""wrilab benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload verify|landscape|basins --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the end-to-end
ones (setup_s, wall_s, peak_rss_mb); with --trace 1 they are the per-layer
ones from a traced run.  Details (sample counts, percentiles, CSV hashes,
machine) go to the lines before it and to .perfbench_work/.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKER = HERE / "worker.py"

SETUP_PROBES = 5         # fresh processes per run for setup_s
TRACED_PROBES = 3        # fresh traced processes per traced run
MIN_JOBS = 2             # timed jobs per run, even when they outlast --seconds
CHILD_TIMEOUT_S = 150.0  # the whole run must end within 180 s


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def machine() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": platform.processor() or platform.machine(),
        "loadavg": os.getloadavg(),
    }
    try:
        info["numpy"] = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        info["numpy"] = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def spread(values: list) -> dict:
    """Median, sample count, and the highest of p90/p95/p99 with at least ten
    samples beyond it (none for fewer than 100 samples), plus the maximum."""
    out = {"median": statistics.median(values), "n": len(values), "max": max(values)}
    for q in (0.99, 0.95, 0.90):
        if len(values) * (1.0 - q) >= 10:
            ordered = sorted(values)
            out[f"p{round(q * 100)}"] = ordered[int(q * len(values)) - 1]
            break
    return out


def probe(config: Path, command: str, traced: bool) -> dict:
    """One fresh process from interpreter launch to the first objective value."""
    argv = [sys.executable, str(WORKER), "probe", "--src", str(SRC),
            "--config", str(config), "--command", command]
    t_launch = time.monotonic()
    done = subprocess.run(argv + (["--trace"] if traced else []), capture_output=True,
                          text=True, timeout=60, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    out = json.loads(done.stdout.splitlines()[-1])
    out["setup_s"] = out["t_first"] - t_launch
    return out


def run_worker(argv: list, timeout: float) -> tuple:
    """Run the workload process; (exit code, peak RSS in MiB) from wait4."""
    child = subprocess.Popen(argv)
    deadline = time.monotonic() + timeout
    try:
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                child.returncode = os.waitstatus_to_exitcode(status)
                return child.returncode, usage.ru_maxrss / 1024.0
            if time.monotonic() > deadline:
                raise RuntimeError(f"workload process exceeded {timeout:.0f} s")
            time.sleep(0.05)
    finally:
        if child.returncode is None:  # not reaped: timed out or interrupted
            child.kill()
            child.wait()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        parser.error("seed must be nonnegative")
    if not (SRC / "wrilab" / "cli.py").is_file():
        print(f"error: no wrilab sources under {SRC}", file=sys.stderr)
        return 2

    t_begin = time.monotonic()
    host_before = machine()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / f"run-{tag}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        commands, count = workloads.WORKLOADS[args.workload]
        paths = [run_dir / f"config{k}.txt" for k in range(count)]
        for path, cfg in zip(paths, workloads.configs_for_seed(args.seed, count)):
            path.write_text(workloads.config_text(cfg))
        probes = [probe(paths[0], commands[0], bool(args.trace))
                  for _ in range(TRACED_PROBES if args.trace else SETUP_PROBES)]
        result_file = run_dir / "result.json"
        # a traced run attributes one config's job, at seed 0 exactly cfg0
        traced_paths = paths[:1] if args.trace else paths
        argv = [sys.executable, str(WORKER), "run", "--src", str(SRC),
                *(arg for path in traced_paths for arg in ("--config", str(path))),
                "--seed", str(args.seed), "--workload", args.workload, "--out", str(run_dir),
                "--seconds", str(args.seconds), "--min-jobs", str(1 if args.trace else MIN_JOBS),
                "--trace", str(args.trace), "--result", str(result_file)]
        if args.trace:
            argv += ["--spans", str(WORK / f"spans-{args.workload}.csv")]
        code, peak_rss_mb = run_worker(argv, CHILD_TIMEOUT_S - (time.monotonic() - t_begin))
        if code != 0 or not result_file.is_file():
            print(f"error: workload process exited with {code}", file=sys.stderr)
            return 1
        res = json.loads(result_file.read_text())
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = len(res["failures"])
    correct = (failed == 0 and res["deterministic"] and res["patches_restored"]
               and res.get("reference_structure_ok", True)
               and res.get("traced_structure_ok", True)
               and res.get("counters_repeat", True)
               and all(p.get("patches_restored", True) for p in probes))
    setup = [p["setup_s"] for p in probes]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "cli_jobs": 1,
        "wall_s": spread(res["calibrated_walls"]) if not args.trace else None,
        "raw_wall_s": spread(res["walls"]),
        "setup_s": spread(setup),
        "peak_rss_mb": peak_rss_mb, "failures": res["failures"],
        "csv_sha256": res["csv_sha256"], "deterministic": res["deterministic"],
        "csv_max_ulp_dev": res.get("csv_max_ulp_dev"),
        "machine_before": host_before, "loadavg_after": os.getloadavg(),
    }
    if args.trace:
        layer = dict(res["per_layer"])
        layer["acoustics.mother_constants_s"] = statistics.median(
            p["mother_constants_s"] for p in probes)
        layer["cli.csv_max_ulp_dev"] = res["csv_max_ulp_dev"]
        layer["trace.wall_s"] = statistics.median(res["traced_walls"])
        layer["trace.overhead_s"] = layer["trace.wall_s"] - statistics.median(res["walls"])
        detail["traced_wall_s"] = spread(res["traced_walls"])
        detail["missing_targets"] = res["missing_targets"]
        detail["per_layer"] = layer
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in per_layer_units().items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(res["calibrated_walls"]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    (WORK / f"result-{tag}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(detail))
    print(json.dumps({"correct": bool(correct), "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
