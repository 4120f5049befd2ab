"""Call-site tracing for the benchmark's traced runs.

The program is traced from outside: every binding through which one layer
calls another is replaced by a wrapper. ``optimize``, ``cli``,
``asymptotic`` and ``mc_oracle`` bind imported names with
``from .x import y``, so each consumer's binding is patched separately;
``finitekey`` calls the scipy kernels as ``_sp.bdtrik``/``_sp.bdtr``, so
those are patched on the ``scipy.special`` module.

A wrapper counts calls per (layer, calling layer) and accumulates self time
(its duration minus the time covered by traced children). Coarse layers
also keep a span (trace id, span id, parent id, name, start, end) in
memory; the spans are written out once, at the end of the run.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import time
from collections import defaultdict

# (module, attribute, layer): each binding through which the program calls a layer.
CALL_SITES = (
    ("bb84rate.cli", "load_config", "config.load_config"),
    ("bb84rate.cli", "run_sweep", "optimize.run_sweep"),
    ("bb84rate.cli", "optimize_point", "optimize.optimize_point"),
    ("bb84rate.cli", "max_tolerable_loss", "optimize.max_tolerable_loss"),
    ("bb84rate.cli", "run_oracle_suite", "mc_oracle.run_oracle_suite"),
    ("bb84rate.optimize", "optimize_point", "optimize.optimize_point"),
    ("bb84rate.optimize", "finite_key_length", "finitekey.finite_key_length"),
    ("bb84rate.optimize", "asymptotic_rate", "asymptotic.asymptotic_rate"),
    ("bb84rate.optimize", "click_error_probs", "models.click_error_probs"),
    ("bb84rate.finitekey", "lambda_ec", "finitekey.lambda_ec"),
    ("bb84rate.finitekey", "inverse_binomial_cdf", "finitekey.inverse_binomial_cdf"),
    ("bb84rate.finitekey", "click_error_probs", "models.click_error_probs"),
    ("bb84rate.asymptotic", "click_error_probs", "models.click_error_probs"),
    ("bb84rate.mc_oracle", "sample_session", "mc_oracle.sample_session"),
    ("bb84rate.mc_oracle", "chernoff_coverage", "mc_oracle.chernoff_coverage"),
    ("bb84rate.mc_oracle", "sampling_bound_coverage", "mc_oracle.sampling_bound_coverage"),
    ("bb84rate.mc_oracle", "click_error_probs", "models.click_error_probs"),
    ("scipy.special", "bdtrik", "scipy.special.bdtrik"),
    ("scipy.special", "bdtr", "scipy.special.bdtr"),
)

# Layers called a few hundred times per iteration at most: these keep spans.
SPAN_LAYERS = frozenset({
    "cli.main", "config.load_config", "optimize.run_sweep", "optimize.max_tolerable_loss",
    "optimize.optimize_point", "mc_oracle.run_oracle_suite", "mc_oracle.sample_session",
    "mc_oracle.chernoff_coverage", "mc_oracle.sampling_bound_coverage",
})

# Per-layer metrics reported by a traced run, with their units.
PER_LAYER_UNITS = {
    "optimize.optimize_point.calls": "count",
    "optimize.optimize_point.self_s": "s",
    "optimize.evals": "count",
    "optimize.evals_per_point": "evals/point",
    "optimize.max_tolerable_loss.self_s": "s",
    "optimize.probes": "count",
    "optimize.probes_per_boundary": "probes/bound",
    "finitekey.finite_key_length.calls": "count",
    "finitekey.finite_key_length.self_s": "s",
    "finitekey.lambda_ec.calls": "count",
    "finitekey.lambda_ec.self_s": "s",
    "finitekey.inverse_binomial_cdf.calls": "count",
    "finitekey.inverse_binomial_cdf.self_s": "s",
    "scipy.special.bdtrik.calls": "count",
    "scipy.special.bdtrik.self_s": "s",
    "scipy.special.bdtr.calls": "count",
    "scipy.special.bdtr.self_s": "s",
    "finitekey.info_term_ratio": "ratio",
    "asymptotic.asymptotic_rate.calls": "count",
    "asymptotic.asymptotic_rate.self_s": "s",
    "models.click_error_probs.calls": "count",
    "models.click_error_probs.self_s": "s",
    "mc_oracle.sample_session.calls": "count",
    "mc_oracle.sample_session.self_s": "s",
    "mc_oracle.pulses_per_s": "1/s",
    "mc_oracle.chernoff_coverage.self_s": "s",
    "mc_oracle.sampling_bound_coverage.self_s": "s",
    "config.load_config.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}

# Counts that a workload must (True) or must not (False) produce, following
# the layer-to-workload mapping the benchmark was designed around.
EXPECTED_NONZERO = {
    "optimize.optimize_point.calls": {"maxloss": True, "curves": True, "oracle": False},
    "optimize.evals": {"maxloss": True, "curves": True, "oracle": False},
    "optimize.probes": {"maxloss": True, "curves": True, "oracle": False},
    "finitekey.finite_key_length.calls": {"maxloss": True, "curves": True, "oracle": False},
    "finitekey.lambda_ec.calls": {"maxloss": True, "curves": True, "oracle": False},
    "finitekey.inverse_binomial_cdf.calls": {"maxloss": True, "curves": True, "oracle": False},
    "scipy.special.bdtrik.calls": {"maxloss": True, "curves": True, "oracle": False},
    "scipy.special.bdtr.calls": {"maxloss": True, "curves": True, "oracle": False},
    "asymptotic.asymptotic_rate.calls": {"maxloss": False, "curves": True, "oracle": False},
    "models.click_error_probs.calls": {"maxloss": True, "curves": True},
    "mc_oracle.sample_session.calls": {"maxloss": False, "curves": False, "oracle": True},
}


class Tracer:
    """Counts, self times and coarse spans gathered by wrapped call sites."""

    def __init__(self) -> None:
        self.calls: defaultdict[tuple[str, str], int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.info_wins = 0
        self.pulses = 0
        self.spans: list[tuple] = []
        self.trace_id = 0
        self._stack = [["", 0, 0.0]]  # frames: [layer, span id, time covered by children]
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Start a new trace (one workload iteration); spans are kept."""
        self.calls.clear()
        self.self_s.clear()
        self.info_wins = 0
        self.pulses = 0
        self.trace_id += 1

    def wrap(self, layer, fn, observe=None):
        stack, calls, self_s, spans = self._stack, self.calls, self.self_s, self.spans
        ids, clock, keep_span = self._ids, time.perf_counter, layer in SPAN_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[2]
                parent[2] += duration
                calls[layer, parent[0]] += 1
                if keep_span:
                    spans.append((self.trace_id, frame[1], parent[1], layer, start, end))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every call site in CALL_SITES."""
        from bb84rate.entropy import binary_entropy
        from bb84rate.finitekey import lambda_ec

        default_f_ec = inspect.signature(lambda_ec).parameters["f_ec_value"].default

        def observe_lambda_ec(args, kwargs, result):
            # lambda_ec returns max(info, f_EC*n*H(e)); the information term won
            # exactly when the result exceeds the practical cost
            n_x, e_x = args[0], args[1]
            f_value = args[3] if len(args) > 3 else kwargs.get("f_ec_value", default_f_ec)
            if e_x > 0.0 and result > f_value * n_x * binary_entropy(e_x):
                self.info_wins += 1

        def observe_sample_session(args, kwargs, result):
            self.pulses += result.n_pulses

        observers = {"finitekey.lambda_ec": observe_lambda_ec,
                     "mc_oracle.sample_session": observe_sample_session}
        for module_name, attr, layer in CALL_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(layer, original, observers.get(layer)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        """Counts and self times of the current trace."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "info_wins": self.info_wins,
            "pulses": self.pulses,
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for trace, span, parent, name, start, end in self.spans:
                fh.write(json.dumps({"trace": trace, "span": span, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


def layer_metrics(snapshot: dict) -> dict[str, float]:
    """Derive the per-layer metrics of one trace (all of PER_LAYER_UNITS but the overhead)."""
    calls, self_s = snapshot["calls"], snapshot["self_s"]

    def count(layer: str) -> int:
        return sum(n for (callee, _), n in calls.items() if callee == layer)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    points = count("optimize.optimize_point")
    evals = (calls.get(("finitekey.finite_key_length", "optimize.optimize_point"), 0)
             + calls.get(("asymptotic.asymptotic_rate", "optimize.optimize_point"), 0))
    probes = calls.get(("optimize.optimize_point", "optimize.max_tolerable_loss"), 0)
    sampling_s = self_s.get("mc_oracle.sample_session", 0.0)
    metrics = {
        "optimize.evals": evals,
        "optimize.evals_per_point": ratio(evals, points),
        "optimize.probes": probes,
        "optimize.probes_per_boundary": ratio(probes, count("optimize.max_tolerable_loss")),
        "finitekey.info_term_ratio": ratio(snapshot["info_wins"], count("finitekey.lambda_ec")),
        "mc_oracle.pulses_per_s": ratio(snapshot["pulses"], sampling_s),
    }
    for name in PER_LAYER_UNITS:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = count(layer)
        elif kind == "self_s":
            metrics[name] = self_s.get(layer, 0.0)
    return metrics


def expectation_failures(workload: str, metrics: dict[str, float]) -> list[str]:
    """Counts that are zero where the layer should run, or non-zero where it should not."""
    failures = []
    for name, by_workload in EXPECTED_NONZERO.items():
        want = by_workload.get(workload)
        if want is not None and (metrics[name] > 0) != want:
            failures.append(f"{name} = {metrics[name]} on {workload}, expected "
                            + ("non-zero" if want else "zero"))
    return failures


def summarize(workload: str, snapshots: list[dict], traced_walls: list[float],
              untraced_walls: list[float]) -> tuple[dict[str, float], list[str]]:
    """Median per-layer metrics over traced iterations, plus self-check failures."""
    failures = []
    counts = [(s["calls"], s["info_wins"], s["pulses"]) for s in snapshots]
    if any(c != counts[0] for c in counts[1:]):
        failures.append("traced counts differ between iterations of the same inputs")
    per_iteration = [layer_metrics(s) for s in snapshots]
    metrics = dict(per_iteration[0])  # counts and their ratios repeat exactly
    for name, unit in PER_LAYER_UNITS.items():
        if unit in ("s", "1/s") and name in metrics:
            metrics[name] = statistics.median(m[name] for m in per_iteration)
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(untraced_walls))
    failures += expectation_failures(workload, per_iteration[0])
    return metrics, failures
