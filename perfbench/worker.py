"""Process that imports wrilab from the checkout and runs one benchmark part.

    worker.py probe --src SRC --config CFG --command CMD [--trace]
        fresh-process set-up: import, config validation, make_experiment and
        the first objective value; prints a JSON line with the monotonic time
        of that first value (CLOCK_MONOTONIC is shared between processes)

    worker.py run --src SRC --config CFG [--config CFG ...] --seed N
                  --workload W --out DIR --seconds S --min-jobs K --trace 0|1
                  --result FILE [--spans FILE]
        warm set-up, then whole workload jobs through wrilab.cli.main: at
        least K, and more while the next one is expected to end within S
        seconds; with --trace 1, jobs alternate untraced and traced.  Writes
        the result JSON to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference" / "cfg0"


def reference() -> dict:
    """The committed cfg0 CSVs, keyed like the texts of a job's first config."""
    return {f"0/{p.name[:-3]}": gzip.decompress(p.read_bytes()).decode()
            for p in REFERENCE.glob("*.csv.gz")}


def import_cli(src: Path):
    """wrilab.cli imported from src, never from an installed copy."""
    sys.path.insert(0, str(src))
    import wrilab.cli

    if Path(wrilab.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"wrilab was imported from {wrilab.__file__}, not from {src}")
    return wrilab.cli


def first_value(cli, config: Path, command: str) -> float:
    """Config validation, experiment set-up and one misfit value, as a CLI call does."""
    cfg = cli.load_config(cli.build_parser().parse_args([command, "--config", str(config)]))
    exp = cli.make_experiment(cfg.geometry(), cfg.c_star,
                              cfg.make_wavelet(cfg.lambdas[0]), dt=cfg.dt)
    return cli.fwi_value(exp, cfg.c_min).value


def probe(args) -> None:
    cli = import_cli(args.src)
    tracer = None
    if args.trace:
        from spans import MOTHER_CONSTANTS, Tracer

        tracer = Tracer(MOTHER_CONSTANTS)
        tracer.install()
    value = first_value(cli, args.config[0], args.command)
    t_first = time.monotonic()
    out = {"t_first": t_first, "value": value}
    if tracer is not None:
        out["patches_restored"] = tracer.uninstall()
        # the first call computes the constants; later calls hit the cache
        out["mother_constants_s"] = tracer.ends[0] - tracer.starts[0] if tracer.names else 0.0
    print(json.dumps(out))


class SpeedSampler:
    """Times a small fixed kernel every PERIOD_S of wall time while active.

    The host's speed drifts by up to a factor of two over seconds on a shared
    machine.  While a timed job runs, SIGALRM interrupts it every PERIOD_S
    and times KERNEL_REPS steps of numpy and interpreter work much like an
    objective evaluation; the job's wall time, less the time spent sampling,
    is then scaled by NOMINAL_STEP_S over the mean step time.  Sampling costs
    about 4% of the job and removes most of the drift (same-seed repeats of
    verify agree to about 6% instead of 17%).
    """

    PERIOD_S = 0.02
    KERNEL_REPS = 40
    # step time on a 2-vCPU Xeon (Python 3.11.7, numpy 2.4.6) when unloaded
    NOMINAL_STEP_S = 15e-6

    def __init__(self):
        import numpy as np

        self._np = np
        self._base = 0.00025 * np.arange(160)
        self.samples: list = []
        self._previous = None

    def _kernel(self, signum, frame):
        np = self._np
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(self.KERNEL_REPS):
            s = (0.001 * i % 0.5 + self._base) / 0.04
            out = np.zeros(s.size)
            inside = (s > 0.0) & (s < 1.0)
            si = s[inside]
            out[inside] = np.exp(-1.0 / (si * (1.0 - si)))
            acc += float(np.dot(out, out))
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._kernel)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def calibrated(wall: float, samples: list) -> float:
    """wall, less the SpeedSampler samples taken in it, at the nominal speed."""
    if not samples:
        return wall
    step = sum(samples) / (len(samples) * SpeedSampler.KERNEL_REPS)
    return (wall - sum(samples)) * SpeedSampler.NOMINAL_STEP_S / step


class Runner:
    """Runs whole workload jobs and checks their CSV outputs."""

    def __init__(self, wl, cli, workload: str, configs: list, seed: int, out: Path):
        self.wl = wl
        self.cli = cli
        self.commands, count = wl.WORKLOADS[workload]
        self.configs = list(zip(configs, wl.configs_for_seed(seed, count)))
        self.out = out
        self.attempted = 0
        self.failures: list = []

    def job(self) -> tuple:
        """(wall seconds, {"<config>/<csv>": text}) of one job; failures are recorded."""
        runs = []
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            for k, (config, cfg) in enumerate(self.configs):
                for command in self.commands:
                    argv = [command, "--config", str(config), "--out", str(self.out / str(k)),
                            "--jobs", "1"]
                    try:
                        code = self.cli.main(argv)
                    except Exception:  # a crashing command is a failed operation
                        traceback.print_exc()
                        code = None
                    runs.append((k, cfg, command, code))
        wall = time.perf_counter() - t0
        texts = {}
        for k, cfg, command, code in runs:
            self.attempted += 1
            name = self.wl.CSV_OF[command]
            path = self.out / str(k) / name
            text = path.read_text() if path.is_file() else ""
            path.unlink(missing_ok=True)
            problem = (f"{command}: exit {code}" if code != 0
                       else self.wl.check_csv(command, text, cfg))
            if problem:
                self.failures.append(f"config {k}: {problem}")
            texts[f"{k}/{name}"] = text
        return wall, texts


def compare(wl, texts: dict, refs: dict) -> tuple:
    """(structure equal, largest ulp deviation) of the CSVs that refs has."""
    same, worst = True, 0.0
    for key, ref in refs.items():
        ok, dev = wl.compare_csv(key.rpartition("/")[2], texts.get(key, ""), ref)
        same, worst = same and ok, max(worst, dev)
    return same, worst


def run(args) -> None:
    # imported here so that the set-up probes load nothing but wrilab
    import workloads
    from spans import Tracer, is_count, layer_metrics

    cli = import_cli(args.src)
    runner = Runner(workloads, cli, args.workload, args.config, args.seed, args.out)
    with contextlib.redirect_stdout(io.StringIO()):
        first_value(cli, args.config[0], runner.commands[0])  # lazy set-up, untimed

    walls, calibrated_walls, traced_walls, layer_runs, hashes = [], [], [], [], []
    sampler = SpeedSampler()
    first_texts = traced_texts = None
    restored, missing = True, []
    t_start = time.perf_counter()
    last = 0.0
    # another job only when it is expected to end within the measuring time
    while len(walls) < args.min_jobs or time.perf_counter() - t_start + last <= args.seconds:
        t_job = time.perf_counter()
        if args.trace:  # traced runs compare raw times, unperturbed by sampling
            wall, texts = runner.job()
        else:
            with sampler:
                wall, texts = runner.job()
            calibrated_walls.append(calibrated(wall, sampler.samples))
        walls.append(wall)
        hashes.append({n: workloads.sha256(t) for n, t in texts.items()})
        first_texts = first_texts or texts
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                wall, traced_texts = runner.job()
            finally:
                restored = tracer.uninstall() and restored
            traced_walls.append(wall)
            hashes.append({n: workloads.sha256(t) for n, t in traced_texts.items()})
            layer_runs.append(layer_metrics(tracer))
            missing = tracer.missing
            if args.spans and len(traced_walls) == 1:
                tracer.write(args.spans)
        last = time.perf_counter() - t_job

    result = {
        "walls": walls,
        "calibrated_walls": calibrated_walls,
        "traced_walls": traced_walls,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "csv_sha256": hashes[0],
        "deterministic": all(h == hashes[0] for h in hashes),
        "patches_restored": restored,
        "missing_targets": missing,
    }
    if args.seed == 0:
        refs = {key: text for key, text in reference().items() if key in first_texts}
        result["reference_structure_ok"], result["csv_max_ulp_dev"] = compare(
            workloads, first_texts, refs)
    if args.trace:
        same, dev = compare(workloads, traced_texts, first_texts)
        result["traced_structure_ok"] = same
        result["csv_max_ulp_dev"] = max(dev, result.get("csv_max_ulp_dev", 0.0))
        result["per_layer"] = {
            key: statistics.median(run[key] for run in layer_runs) for key in layer_runs[0]
        }
        # counters must repeat exactly from one traced job to the next
        result["counters_repeat"] = all(
            run[k] == layer_runs[0][k] for run in layer_runs for k in run if is_count(k))
    Path(args.result).write_text(json.dumps(result))


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("probe")
    p.add_argument("--command", required=True)
    p.add_argument("--trace", action="store_true")
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--out", type=Path, required=True)
    r.add_argument("--seconds", type=float, required=True)
    r.add_argument("--min-jobs", type=int, default=1)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--result", type=Path, required=True)
    r.add_argument("--spans", type=Path)
    for q in (p, r):
        q.add_argument("--src", type=Path, required=True)
        q.add_argument("--config", type=Path, action="append", required=True)
    args = parser.parse_args()
    if args.mode == "probe":
        probe(args)
    else:
        run(args)


if __name__ == "__main__":
    main()
