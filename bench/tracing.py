"""Per-layer spans and counts around fscfb functions, installed from outside.

A span wraps one function: it counts calls and adds the call's self time
(its duration minus the durations of the spans it encloses). A counter
wraps a function that is called too often or too finely for a span, and
only counts. Each wrapper replaces every binding of the original function
in the loaded fscfb modules, so names imported with ``from .capacity import
optimize_rate`` are traced too. A traced name the program no longer has is
skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


def _iterations(extra, metric, args, kwargs, result):
    extra[f"{metric}.iterations"] += getattr(result, "iterations", 0)


def _solve_iterations(extra, metric, args, kwargs, result):
    extra["capacity.iterations"] += getattr(result, "diagnostics", {}).get("iterations", 0)


def _sequences(extra, metric, args, kwargs, result):
    channel = args[0] if args else kwargs["c"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    extra[f"{metric}.sequences"] += channel.x_size**n


def _machine_steps(extra, metric, args, kwargs, result):
    # run_bounded returns the halting step, or None after max_steps steps
    budget = args[2] if len(args) > 2 else kwargs["max_steps"]
    extra["reduction.machine_steps"] += budget if result is None else result


# (module, attribute path, metric prefix, result hook)
SPANS = (
    ("fscfb.capacity", "optimize_rate", "capacity.optimize_rate", _solve_iterations),
    ("fscfb.capacity", "_ascend", "capacity.ascend", None),
    ("fscfb.capacity", "_PathModel.objective", "capacity.objective", None),
    ("fscfb.capacity", "_PathModel.gradient", "capacity.gradient", None),
    ("fscfb.capacity", "_PathModel.__init__", "capacity.path_build", None),
    ("fscfb.capacity", "_central_difference_error", "capacity.fd_check", None),
    ("fscfb.capacity", "evaluate_rate", "capacity.evaluate_rate", None),
    ("fscfb.capacity", "feedback_channel_kernel", "capacity.feedback_channel_kernel", None),
    ("fscfb.capacity", "dmc_capacity", "capacity.dmc_capacity", _iterations),
    ("fscfb.info", "causal_product", "info.causal_product", None),
    ("fscfb.info", "directed_information", "info.directed_information", None),
    ("fscfb.channels", "indecomposability_gap", "channels.indecomposability_gap", _sequences),
    ("fscfb.channels", "tv_distance", "channels.tv_distance", None),
    ("fscfb.channels", "compose_unifilar", "channels.compose_unifilar", None),
    ("fscfb.reduction", "lambda_double_sequence", "reduction.lambda_double_sequence", None),
    ("fscfb.channel_io", "load_channel", "channel_io.load_channel", None),
    ("fscfb.channel_io", "dumps_channel", "channel_io.dumps_channel", None),
    ("fscfb.gallery", "noiseless_z_pair", "gallery.build", None),
    ("fscfb.gallery", "mixing_pair", "gallery.build", None),
    ("fscfb.gallery", "inverse_k_pair", "gallery.build", None),
    ("fscfb.gallery", "extend_alphabets", "gallery.build", None),
    ("fscfb.gallery", "extend_states", "gallery.build", None),
    ("fscfb.cli", "render_report", "cli.render_report", None),
    ("fscfb.cli", "main", "cli.main", None),
)

COUNTERS = (
    ("fscfb.capacity", "_PathModel.softmax", "capacity.softmax.calls", None),
    ("fscfb.reduction", "CounterMachineOracle.halted_within", "reduction.oracle_queries", None),
    ("fscfb.reduction", "FixedHaltingOracle.halted_within", "reduction.oracle_queries", None),
    ("fscfb.reduction", "NeverHaltingOracle.halted_within", "reduction.oracle_queries", None),
    ("fscfb.reduction", "run_bounded", "reduction.run_bounded.calls", _machine_steps),
)

# calls of a span made while an enclosing span is open, counted as
# "<enclosing>.<short name>_calls"
NESTED_COUNTS = {
    "capacity.objective": ("capacity.ascend", "capacity.fd_check"),
    "capacity.gradient": ("capacity.ascend",),
}

# name -> (unit, better, the end-to-end metric and workloads it should move)
PER_LAYER = {
    "capacity.optimize_rate.calls": ("count", "lower", "wall_s on solve"),
    "capacity.optimize_rate.self_s": ("s", "lower", "wall_s on solve"),
    "capacity.iterations": ("count", "lower", "wall_s on solve"),
    "capacity.ascend.self_s": ("s", "lower", "wall_s on solve"),
    "capacity.ascend.objective_calls": ("count", "lower", "wall_s on solve"),
    "capacity.ascend.gradient_calls": ("count", "lower", "wall_s on solve"),
    "capacity.linesearch_accept_ratio": ("ratio", "higher", "wall_s on solve"),
    "capacity.objective.calls": ("count", "lower", "wall_s on solve"),
    "capacity.objective.self_s": ("s", "lower", "wall_s on solve"),
    "capacity.gradient.calls": ("count", "lower", "wall_s on solve"),
    "capacity.gradient.self_s": ("s", "lower", "wall_s on solve"),
    "capacity.softmax.calls": ("count", "lower", "wall_s on solve"),
    "capacity.path_build.self_s": ("s", "lower", "wall_s and peak_rss_mb on solve"),
    "capacity.fd_check.self_s": ("s", "lower", "wall_s and peak_rss_mb on solve"),
    "capacity.fd_check.objective_calls": ("count", "lower", "wall_s and peak_rss_mb on solve"),
    "capacity.evaluate_rate.calls": ("count", "lower", "wall_s and peak_rss_mb on solve"),
    "capacity.evaluate_rate.self_s": ("s", "lower", "wall_s and peak_rss_mb on solve"),
    "capacity.feedback_channel_kernel.self_s": ("s", "lower", "wall_s on structure, solve"),
    "capacity.dmc_capacity.calls": ("count", "lower", "wall_s on structure"),
    "capacity.dmc_capacity.self_s": ("s", "lower", "wall_s on structure"),
    "capacity.dmc_capacity.iterations": ("count", "lower", "wall_s on structure"),
    "info.causal_product.self_s": ("s", "lower", "wall_s on structure"),
    "info.directed_information.self_s": ("s", "lower", "wall_s on structure"),
    "channels.indecomposability_gap.calls": ("count", "lower", "wall_s on structure"),
    "channels.indecomposability_gap.self_s": ("s", "lower", "wall_s on structure"),
    "channels.indecomposability_gap.sequences": ("count", "lower", "wall_s on structure"),
    "channels.tv_distance.self_s": ("s", "lower", "wall_s on solve"),
    "channels.compose_unifilar.self_s": ("s", "lower", "wall_s on solve"),
    "reduction.lambda_double_sequence.calls": ("count", "lower", "wall_s on structure"),
    "reduction.lambda_double_sequence.self_s": ("s", "lower", "wall_s on structure"),
    "reduction.oracle_queries": ("count", "lower", "wall_s on structure"),
    "reduction.machine_steps": ("count", "lower", "wall_s on structure"),
    "channel_io.load_channel.calls": ("count", "lower", "setup_s on all workloads"),
    "channel_io.load_channel.self_s": ("s", "lower", "setup_s on all workloads"),
    "channel_io.dumps_channel.self_s": ("s", "lower", "setup_s on all workloads"),
    "gallery.build.self_s": ("s", "lower", "setup_s on all workloads"),
    "cli.render_report.self_s": ("s", "lower", "wall_s on structure"),
    "cli.main.self_s": ("s", "lower", "wall_s on structure"),
    "trace.pass_s": ("s", "lower", "traced wall time of one pass"),
    "trace.overhead_s": ("s", "lower", "traced minus untraced wall time of one pass"),
}


def _resolve(module, path):
    """Return (owner, attribute name, raw attribute) or None if absent."""
    owner = module
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return None if raw is None else (owner, name, raw)


class Tracer:
    """Spans and counters over the fscfb modules; install, run, uninstall."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.extra = Counter()
        self._stack = []      # [start, seconds covered by enclosed spans]
        self._open = Counter()
        self._undo = []

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.extra.clear()

    def _span(self, metric, fn, hook):
        nested = NESTED_COUNTS.get(metric, ())
        short = metric.rsplit(".", 1)[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[metric] += 1
            for outer in nested:
                if self._open[outer]:
                    self.extra[f"{outer}.{short}_calls"] += 1
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            self._open[metric] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                self._stack.pop()
                self._open[metric] -= 1
                self.self_s[metric] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
            if hook:
                hook(self.extra, metric, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, metric, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.extra[metric] += 1
            result = fn(*args, **kwargs)
            if hook:
                hook(self.extra, metric, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "fscfb" or n.startswith("fscfb.")]
        for specs, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for module_name, path, metric, hook in specs:
                module = sys.modules.get(module_name)
                found = module and _resolve(module, path)
                if not found:
                    continue
                owner, name, raw = found
                if isinstance(raw, staticmethod):
                    self._set(owner, name, staticmethod(make(metric, raw.__func__, hook)))
                    continue
                wrapped = make(metric, raw, hook)
                if isinstance(owner, type):
                    self._set(owner, name, wrapped)
                    continue
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is raw:
                            self._set(mod, attr, wrapped)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def snapshot(self) -> dict:
        """Every per-layer metric that the spans and counters give directly."""
        out = {}
        for name in PER_LAYER:
            if name.endswith(".calls") and name not in self.extra:
                out[name] = self.calls[name[: -len(".calls")]]
            elif name.endswith(".self_s"):
                out[name] = self.self_s[name[: -len(".self_s")]]
            else:
                out[name] = self.extra[name]
        return out
