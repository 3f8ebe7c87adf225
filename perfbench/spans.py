"""In-memory span tracing around the public functions of the wrilab modules.

A Tracer wraps each target function, records one span per call (name, start,
end, parent span) and counters read from the returned objects, and restores
every patched attribute on uninstall.  Targets are patched at every binding
site: a function imported with ``from .x import y`` is a separate name in the
importing module, and dict values such as ``cli.COMMANDS`` hold their own
reference, so install() replaces every reference to the original object found
in the namespaces of the loaded wrilab modules and in their module-level
dicts.  Targets missing from the program are skipped and listed in
``Tracer.missing``; their counters stay at zero.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict


def _wri_name(args, kwargs) -> str:
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    route = getattr(cfg, "route", "closed_form")
    return "objectives.wri_closed" if route == "closed_form" else "objectives.wri_variational"


def _apply_bytes(tracer, args, result):
    # field read plus trace written, from the array sizes
    tracer.counts["operators.computed_bytes"] += args[1].values.nbytes + result.samples.nbytes


def _adjoint_bytes(tracer, args, result):
    tracer.counts["operators.computed_bytes"] += args[1].samples.nbytes + result.values.nbytes


def _cg_report(tracer, args, result):
    tracer.counts["operators.cg_solve.iterations"] += result.iterations
    tracer.maxima["operators.cg_solve.worst_rel_residual"] = max(
        tracer.maxima["operators.cg_solve.worst_rel_residual"],
        result.final_relative_residual,
    )


def _descent_report(tracer, args, result):
    tracer.counts["descent.iterations"] += result.iterations
    tracer.counts[f"descent.reason.{result.reason}"] += 1


# (module, attribute, span name or name function, result hook); an attribute
# "Class.method" patches the method on the class
TARGETS = (
    ("grids", "eval_interp", "grids.eval_interp", None),
    ("acoustics", "Wavelet.value", "acoustics.wavelet_value", None),
    ("acoustics", "point_forward", "acoustics.point_forward", None),
    ("acoustics", "extension_source", "acoustics.extension_source", None),
    ("operators", "LinearMap.apply", "operators.apply", _apply_bytes),
    ("operators", "LinearMap.apply_adjoint", "operators.apply_adjoint", _adjoint_bytes),
    ("operators", "LinearMap.normal_apply", "operators.normal_apply", None),
    ("operators", "cg_solve_dataspace", "operators.cg_solve", _cg_report),
    ("operators", "adjoint_test", "operators.adjoint_test", None),
    ("operators", "forward_general", "operators.forward_general", None),
    ("objectives", "make_experiment", "objectives.make_experiment", None),
    ("objectives", "fwi_value", "objectives.fwi_value", None),
    ("objectives", "wri_value", _wri_name, None),
    ("objectives", "annihilator_value", "objectives.annihilator", None),
    ("objectives", "quadratic_form_checks", "objectives.quadratic_form_checks", None),
    ("analysis", "scan_landscape", "analysis.scan_landscape", None),
    ("analysis", "theorem1_verify", "analysis.theorem_verify", None),
    ("analysis", "theorem2_verify", "analysis.theorem_verify", None),
    ("descent", "basin_map", "descent.basin_map", None),
    ("descent", "descend", "descent.descend", _descent_report),
    ("cli", "main", "cli.main", None),
    ("cli", "load_config", "cli.config", None),
    ("cli", "cmd_verify", "cli.cmd", None),
    ("cli", "cmd_scan", "cli.cmd", None),
    ("cli", "cmd_theorems", "cli.cmd", None),
    ("cli", "cmd_basins", "cli.cmd", None),
    ("cli", "_write_csv", "cli.write_csv", None),
)

# traced alone in fresh set-up processes, where its first call is uncached
MOTHER_CONSTANTS = (
    ("acoustics", "_mother_constants", "acoustics.mother_constants", None),
)

LAYERS = ("grids", "acoustics", "operators", "objectives", "analysis", "descent", "cli")

OBJECTIVE_SPANS = ("objectives.fwi_value", "objectives.wri_closed",
                   "objectives.wri_variational", "objectives.annihilator")


class Tracer:
    """Span recorder that patches the wrilab modules while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.counts: Counter = Counter()
        self.maxima: defaultdict = defaultdict(float)
        self.missing: list = []
        self._stack: list = []
        self._patches: list = []  # (namespace dict or class, key, original)

    def _wrap(self, fn, name, hook):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name(args, kwargs) if callable(name) else name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target at each reference to it; absent ones go to missing."""
        modules = [mod for key, mod in sys.modules.items()
                   if key == "wrilab" or key.startswith("wrilab.")]
        for mod_name, attr, name, hook in self.targets:
            mod = sys.modules.get(f"wrilab.{mod_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = (getattr(owner, "__dict__", {}).get(method) if owner_name
                        else getattr(owner, method, None))
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, hook)
            if owner_name:
                self._patches.append((owner, method, original))
                setattr(owner, method, wrapper)
                continue
            for ns in modules:
                for space in [vars(ns)] + [v for k, v in vars(ns).items()
                                           if isinstance(v, dict) and not k.startswith("__")]:
                    for key, value in list(space.items()):
                        if value is original:
                            self._patches.append((space, key, original))
                            space[key] = wrapper

    def uninstall(self) -> bool:
        """Restore every patched attribute; True when all are the originals."""
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        restored = all(
            (owner[key] if isinstance(owner, dict) else owner.__dict__[key]) is original
            for owner, key, original in self._patches
        )
        self._patches.clear()
        return restored

    def self_times(self) -> list:
        """Span duration minus the time its direct children cover."""
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - covered[i] for i in range(len(self.names))]

    def write(self, path):
        """Spans as CSV: index, name, start, end, parent."""
        with open(path, "w") as out:
            out.write("span,name,start_s,end_s,parent\n")
            for i, name in enumerate(self.names):
                out.write(f"{i},{name},{self.starts[i]!r},{self.ends[i]!r},{self.parents[i]}\n")


def is_count(metric: str) -> bool:
    """True for metrics that count work and so repeat exactly between runs."""
    return not metric.endswith(("_s", "_p50", "_p95", "_p99"))


def percentile(values, q: float) -> float:
    """Nearest-rank q-quantile (q in [0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and times of one traced job, keyed by metric name."""
    self_t = tracer.self_times()
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    durations: defaultdict = defaultdict(list)
    selfs: defaultdict = defaultdict(list)
    for i, name in enumerate(tracer.names):
        calls[name] += 1
        self_s[name] += self_t[i]
        durations[name].append(tracer.ends[i] - tracer.starts[i])
        selfs[name].append(self_t[i])
    descend_spans = {i for i, name in enumerate(tracer.names) if name == "descent.descend"}
    objective_calls = sum(
        1 for i, name in enumerate(tracer.names)
        if name in OBJECTIVE_SPANS and tracer.parents[i] in descend_spans
    )
    iterations = tracer.counts["descent.iterations"]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum((v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0)
    m["grids.eval_interp.calls"] = calls["grids.eval_interp"]
    m["grids.eval_interp.self_s"] = self_s["grids.eval_interp"]
    m["acoustics.wavelet_value.calls"] = calls["acoustics.wavelet_value"]
    m["acoustics.wavelet_value.self_s"] = self_s["acoustics.wavelet_value"]
    m["acoustics.extension_source.self_s"] = self_s["acoustics.extension_source"]
    m["acoustics.point_forward.calls"] = calls["acoustics.point_forward"]
    for op in ("apply", "apply_adjoint", "normal_apply"):
        key = f"operators.{op}"
        m[f"{key}.calls"] = calls[key]
        m[f"{key}.self_s"] = self_s[key]
        m[f"{key}.ms_p50"] = 1e3 * percentile(durations[key], 0.5)
    m["operators.cg_solve.calls"] = calls["operators.cg_solve"]
    m["operators.cg_solve.iterations"] = tracer.counts["operators.cg_solve.iterations"]
    m["operators.cg_solve.self_s"] = self_s["operators.cg_solve"]
    m["operators.cg_solve.worst_rel_residual"] = tracer.maxima["operators.cg_solve.worst_rel_residual"]
    m["operators.adjoint_test.self_s"] = self_s["operators.adjoint_test"]
    m["operators.computed_bytes"] = tracer.counts["operators.computed_bytes"]
    m["objectives.fwi_value.calls"] = calls["objectives.fwi_value"]
    m["objectives.fwi_value.self_s"] = self_s["objectives.fwi_value"]
    m["objectives.fwi_value.us_p50"] = 1e6 * percentile(durations["objectives.fwi_value"], 0.5)
    m["objectives.fwi_value.us_p99"] = 1e6 * percentile(durations["objectives.fwi_value"], 0.99)
    m["objectives.wri_closed.calls"] = calls["objectives.wri_closed"]
    m["objectives.wri_closed.us_p50"] = 1e6 * percentile(selfs["objectives.wri_closed"], 0.5)
    m["objectives.wri_variational.calls"] = calls["objectives.wri_variational"]
    m["objectives.wri_variational.self_s"] = self_s["objectives.wri_variational"]
    m["objectives.quadratic_form_checks.self_s"] = self_s["objectives.quadratic_form_checks"]
    m["objectives.annihilator.calls"] = calls["objectives.annihilator"]
    m["objectives.annihilator.self_s"] = self_s["objectives.annihilator"]
    m["objectives.make_experiment.self_s"] = self_s["objectives.make_experiment"]
    m["analysis.scan_landscape.self_s"] = self_s["analysis.scan_landscape"]
    m["analysis.theorem_verify.self_s"] = self_s["analysis.theorem_verify"]
    m["descent.descend.calls"] = calls["descent.descend"]
    m["descent.descend.self_s"] = self_s["descent.descend"]
    m["descent.descend.ms_p50"] = 1e3 * percentile(durations["descent.descend"], 0.5)
    m["descent.descend.ms_p95"] = 1e3 * percentile(durations["descent.descend"], 0.95)
    m["descent.objective_calls"] = objective_calls
    m["descent.iterations"] = iterations
    m["descent.useful_ratio"] = iterations / objective_calls if objective_calls else 0.0
    for reason in ("bound", "step", "gradient", "max_iterations"):
        m[f"descent.reason.{reason}"] = tracer.counts[f"descent.reason.{reason}"]
    m["cli.config_s"] = self_s["cli.config"]
    m["cli.cmd_self_s"] = self_s["cli.cmd"]
    m["cli.write_csv.self_s"] = self_s["cli.write_csv"]
    m["trace.spans"] = len(tracer.names)
    return m
