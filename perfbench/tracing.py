"""Per-layer tracing from outside the package.

Wrappers are installed at the name each caller looks up (modules import
functions by name, so ``fedlinucb.simulator.sample_decision_set`` is the name
the run loop calls, not ``fedlinucb.environment.sample_decision_set``).  A
span is recorded per call and kept in memory; layer metrics are computed
after the op, and the originals are put back and checked afterwards, so ops
run outside a traced pass execute the package's own functions.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc

# (layer, module whose attribute the caller looks up, attribute path)
TARGETS = [
    ("environment.sample_decision_set", "simulator", "sample_decision_set"),
    ("environment.sample_reward", "simulator", "sample_reward"),
    ("core.SpdMatrix.from_dense", "core", "SpdMatrix.from_dense"),
    ("core.ucb_select", "protocol", "ucb_select"),
    ("protocol.local_update", "protocol", "local_update"),
    ("protocol.should_sync", "protocol", "should_sync"),
    ("protocol.sync", "protocol", "sync"),
    ("protocol.step_agent", "simulator", "step_agent"),
    ("simulator.run_fedlinucb", "cli", "run_fedlinucb"),
    ("simulator.run_independent_oful", "cli", "run_independent_oful"),
    ("simulator.epoch_boundaries", "simulator", "epoch_boundaries"),
    ("analysis.run_invariant_suite", "cli", "run_invariant_suite"),
    ("analysis.conservation_check", "analysis", "conservation_check"),
    ("analysis.elliptical_potential_check", "analysis", "elliptical_potential_check"),
    ("analysis.noise_decomposition_check", "analysis", "noise_decomposition_check"),
    ("analysis.covariance_comparison_check", "analysis", "covariance_comparison_check"),
    ("analysis.confidence_coverage", "analysis", "confidence_coverage"),
    ("analysis.build_noise_ledger", "analysis", "build_noise_ledger"),
    ("cli.write_trace_csv", "cli", "write_trace_csv"),
    ("cli.cmd_run", "cli", "cmd_run"),
    ("cli.cmd_check", "cli", "cmd_check"),
    ("cli.cmd_sweep", "cli", "cmd_sweep"),
]

# Layers whose peak traced allocation is reported (memory pass only).
ALLOC_LAYERS = ("simulator.run_fedlinucb", "analysis.run_invariant_suite")

# Layers whose truthy results are counted (the trigger's fire ratio).
COUNT_TRUE = ("protocol.should_sync",)

# Every per-layer metric, in BENCHMARK.json order: (name, unit).
PER_LAYER = [
    ("environment.sample_decision_set.calls", "count"),
    ("environment.sample_decision_set.busy_s", "s"),
    ("environment.sample_reward.calls", "count"),
    ("environment.sample_reward.busy_s", "s"),
    ("core.SpdMatrix.from_dense.calls", "count"),
    ("core.SpdMatrix.from_dense.busy_s", "s"),
    ("core.ucb_select.calls", "count"),
    ("core.ucb_select.busy_s", "s"),
    ("protocol.should_sync.calls", "count"),
    ("protocol.should_sync.busy_s", "s"),
    ("protocol.should_sync.fire_ratio", "ratio"),
    ("protocol.sync.calls", "count"),
    ("protocol.sync.busy_s", "s"),
    ("protocol.local_update.calls", "count"),
    ("protocol.local_update.busy_s", "s"),
    ("protocol.step_agent.self_s", "s"),
    ("simulator.run_fedlinucb.calls", "count"),
    ("simulator.run_fedlinucb.self_s", "s"),
    ("simulator.run_fedlinucb.alloc_peak_mb", "MB"),
    ("simulator.run_independent_oful.calls", "count"),
    ("simulator.run_independent_oful.self_s", "s"),
    ("simulator.epoch_boundaries.busy_s", "s"),
    ("analysis.run_invariant_suite.self_s", "s"),
    ("analysis.run_invariant_suite.alloc_peak_mb", "MB"),
    ("analysis.conservation_check.busy_s", "s"),
    ("analysis.elliptical_potential_check.busy_s", "s"),
    ("analysis.noise_decomposition_check.busy_s", "s"),
    ("analysis.covariance_comparison_check.busy_s", "s"),
    ("analysis.confidence_coverage.busy_s", "s"),
    ("analysis.build_noise_ledger.calls", "count"),
    ("analysis.build_noise_ledger.busy_s", "s"),
    ("cli.write_trace_csv.busy_s", "s"),
    ("cli.cmd_run.self_s", "s"),
    ("cli.cmd_check.self_s", "s"),
    ("cli.cmd_sweep.self_s", "s"),
    ("trace.op_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

ROOT = "op"


class _Patches:
    """Replaces target attributes and puts the originals back on exit."""

    def __init__(self, layers: list[str], make_wrapper):
        self.layers = layers
        self.make_wrapper = make_wrapper
        self.saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def __enter__(self) -> "_Patches":
        for layer, module, path in TARGETS:
            if layer not in self.layers:
                continue
            owner = importlib.import_module(f"fedlinucb.{module}")
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            original = vars(owner).get(attr)
            defining = _resolve(layer)
            if isinstance(original, classmethod):
                wrapper = classmethod(self.make_wrapper(layer, original.__func__))
            elif original is not None and original is defining:
                wrapper = self.make_wrapper(layer, original)
            else:
                # The package no longer calls this layer through this name.
                self.missing.append(layer)
                continue
            self.saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        stale = [f"{owner.__name__}.{attr}" for owner, attr, original in self.saved
                 if vars(owner).get(attr) is not original]
        if stale:
            raise RuntimeError(f"tracing wrappers left installed: {stale}")


def _resolve(layer: str):
    module, *path = layer.split(".")
    obj = importlib.import_module(f"fedlinucb.{module}")
    for name in path:
        obj = getattr(obj, name, None)
    return obj


class SpanRecorder:
    """Timing pass: one span (layer, start, end, parent span) per call."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self.ids: dict[str, int] = {ROOT: 0}
        self.spans: list[tuple[int, int, int, int]] = []
        self.stack: list[int] = []
        self.true_counts: dict[str, int] = {}
        self.missing: list[str] = []

    def _wrap(self, layer: str, fn):
        name_id = self.ids.setdefault(layer, len(self.names))
        if name_id == len(self.names):
            self.names.append(layer)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        count_true = layer in COUNT_TRUE
        if count_true:
            self.true_counts[layer] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if count_true and result:
                self.true_counts[layer] += 1
            return result

        return wrapper

    def run(self, op):
        """Call op() with every target traced, inside a root span."""
        with _Patches([layer for layer, _, _ in TARGETS], self._wrap) as patches:
            self.missing = patches.missing
            return self._wrap(ROOT, op)()

    def arrays(self) -> dict:
        import numpy as np

        spans = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        return {"name_id": spans[:, 0], "start_ns": spans[:, 1], "end_ns": spans[:, 2],
                "parent": spans[:, 3], "names": np.array(self.names)}

    def layer_totals(self) -> dict:
        """calls, busy_s and self_s per layer; self excludes traced children."""
        import numpy as np

        a = self.arrays()
        n = len(a["name_id"])
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        busy = np.bincount(a["name_id"], weights=dur, minlength=k) / 1e9
        self_s = np.bincount(a["name_id"], weights=dur - child, minlength=k) / 1e9
        return {
            name: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }


class AllocRecorder:
    """Memory pass: peak tracemalloc allocation inside each ALLOC_LAYERS call.

    tracemalloc runs only while such a call is active, so the rest of the op
    (the sweep's baseline runs, CLI output) does not pay for it.
    """

    def __init__(self):
        self.peak_mb = {layer: 0.0 for layer in ALLOC_LAYERS}

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
                self.peak_mb[layer] = max(self.peak_mb[layer], peak)

        return wrapper

    def run(self, op):
        with _Patches(list(ALLOC_LAYERS), self._wrap):
            return op()


def layer_metrics(totals: dict, true_counts: dict, alloc_mb: dict, op_s: float,
                  untraced_op_s: float) -> dict:
    """The PER_LAYER metrics from one timing pass and one memory pass."""
    values = {}
    for name, _unit in PER_LAYER:
        layer, quantity = name.rsplit(".", 1)
        if quantity == "alloc_peak_mb":
            values[name] = alloc_mb.get(layer, 0.0)
        elif quantity == "fire_ratio":
            calls = totals.get(layer, {}).get("calls", 0)
            values[name] = true_counts.get(layer, 0) / calls if calls else 0.0
        elif layer == "trace":
            values[name] = op_s if quantity == "op_s" else op_s / untraced_op_s - 1.0
        else:
            values[name] = totals.get(layer, {}).get(quantity, 0)
    return values


def module_self_shares(totals: dict, op_s: float) -> dict:
    """Share of the traced op's wall time spent in each module's own code.

    Time outside every traced function (argument parsing, untraced helpers
    called straight from the op) is reported as ``untraced``.
    """
    shares: dict[str, float] = {}
    for layer, t in totals.items():
        module = "untraced" if layer == ROOT else layer.split(".", 1)[0]
        shares[module] = shares.get(module, 0.0) + t["self_s"] / op_s
    return shares
