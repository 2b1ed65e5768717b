"""Spans and counters recorded from outside mrpower.

The tracer swaps each traced function for a wrapper on every mrpower module
that holds it, because modules bind each other's functions by name
(`from .channels import compose` leaves a separate name in `powers`,
`sampling` and `suites`). Constructors are wrapped on their class. Spans are
kept in memory as (id, name, start_ns, end_ns, parent_id, op_id) and written
out when the run ends.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# span name -> [(module, function name)]; each function is wrapped wherever
# a module of the package binds it
SPANS = {
    "operators.entropy": [
        ("mrpower.operators", "von_neumann_entropy"),
        ("mrpower.operators", "relative_entropy"),
    ],
    "channels.compose": [("mrpower.channels", "compose")],
    "channels.classify": [("mrpower.channels", "classify_channel")],
    "channels.pullback": [("mrpower.channels", "pullback_povm")],
    "measures.coherence": [
        ("mrpower.measures", "measurement_coherence"),
        ("mrpower.measures", "relative_entropy_of_coherence"),
    ],
    "measures.divergence": [("mrpower.measures", "measurement_relative_entropy")],
    "measures.ere_bound": [("mrpower.measures", "ere_lower_bound")],
    "powers.cohering_power": [
        ("mrpower.powers", "measurement_cohering_power"),
        ("mrpower.powers", "state_cohering_power"),
    ],
    "powers.certificate": [("mrpower.powers", "conversion_ent_lower_bound")],
    "powers.conversion_channel": [("mrpower.powers", "conversion_channel")],
    "powers.composite_bound": [("mrpower.powers", "composite_ent_lower_bound")],
    "sampling.random_dio": [("mrpower.sampling", "random_dio")],
    "sampling.random_channel": [("mrpower.sampling", "random_channel")],
    "sampling.random_povm": [("mrpower.sampling", "random_povm")],
    "serialize.load": [("mrpower.serialize", "load_channel")],
    "serialize.save": [("mrpower.serialize", "save_channel")],
    "suites.run_suite": [("mrpower.suites", "run_suite")],
}

# counter name -> (module, class) whose constructor is counted
CONSTRUCTORS = {
    "operators.hermitian_new": ("mrpower.operators", "HermitianOperator"),
    "channels.channel_new": ("mrpower.channels", "QuantumChannel"),
    "channels.povm_new": ("mrpower.channels", "Povm"),
}

SUITE_NAMES = (
    "dm_properties", "cm_faithfulness", "cm_oracle", "structure_lemma",
    "power_monotone", "power_convexity", "conversion_equality", "thm3_proxy",
    "duality", "thm7_reduction",
)

# per-layer metric -> unit; times and counts are per round of the
# workload's operation set, suite times per trial
LAYER_METRICS = {
    "operators.hermitian_new": "count",
    "operators.entropy_calls": "count",
    "operators.entropy_self_ms": "ms",
    "channels.compose_calls": "count",
    "channels.compose_kraus_out": "count",
    "channels.compose_self_ms": "ms",
    "channels.classify_self_ms": "ms",
    "channels.pullback_self_ms": "ms",
    "channels.channel_new": "count",
    "channels.povm_new": "count",
    "measures.coherence_self_ms": "ms",
    "measures.divergence_self_ms": "ms",
    "measures.ere_bound_calls": "count",
    "measures.ere_bound_self_ms": "ms",
    "powers.cohering_power_self_ms": "ms",
    "powers.certificate_self_ms": "ms",
    "powers.conversion_channel_self_ms": "ms",
    "powers.composite_bound_self_ms": "ms",
    "sampling.random_dio_self_ms": "ms",
    "sampling.random_channel_self_ms": "ms",
    "sampling.random_povm_self_ms": "ms",
    "serialize.load_self_ms": "ms",
    "serialize.load_bytes": "B",
    "serialize.save_self_ms": "ms",
    "serialize.save_bytes": "B",
    **{f"suites.{name}.ms_per_trial": "ms" for name in SUITE_NAMES},
    "cli.self_ms": "ms",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Records spans and counters while installed; `install`/`uninstall`
    toggle the wrappers so traced and untraced rounds share one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    def _build_patches(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("mrpower")]
        for span_name, targets in SPANS.items():
            for module_name, attr in targets:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(span_name, original)
                for module in modules:
                    for key, value in vars(module).items():
                        if value is original:
                            self._patches.append((module, key, original, wrapper))
        for counter, (module_name, cls_name) in CONSTRUCTORS.items():
            cls = getattr(sys.modules[module_name], cls_name)
            self._patches.append(
                (cls, "__init__", cls.__init__, self._count(counter, cls.__init__))
            )

    def install(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.op_id))

    def _wrap(self, span_name: str, fn):
        tracer = self

        if span_name == "suites.run_suite":
            def wrapper(*args, **kwargs):
                report = tracer.span(f"suites.{args[0]}", fn, *args, **kwargs)
                tracer.counts[f"suites.{report.suite}.trials"] += report.trials
                return report
        elif span_name == "channels.compose":
            def wrapper(*args, **kwargs):
                result = tracer.span(span_name, fn, *args, **kwargs)
                tracer.counts["channels.compose_kraus_out"] += result.kraus.shape[0]
                return result
        elif span_name in ("serialize.load", "serialize.save"):
            def wrapper(*args, **kwargs):
                result = tracer.span(span_name, fn, *args, **kwargs)
                tracer.counts[f"{span_name}_bytes"] += os.path.getsize(args[0])
                return result
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(span_name, fn, *args, **kwargs)
        return wrapper

    def _count(self, counter: str, init):
        tracer = self

        def wrapper(obj, *args, **kwargs):
            tracer.counts[counter] += 1
            init(obj, *args, **kwargs)
        return wrapper

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round layer figures from the recorded spans and counters."""
        child_ns: dict[int, int] = defaultdict(int)
        for span_id, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for span_id, name, start, end, _, _ in self.spans:
            self_ns[name] += end - start - child_ns[span_id]
            total_ns[name] += end - start
            calls[name] += 1

        counts = {
            "operators.entropy_calls": calls["operators.entropy"],
            "channels.compose_calls": calls["channels.compose"],
            "measures.ere_bound_calls": calls["measures.ere_bound"],
            **self.counts,
        }
        out = {}
        for metric, unit in LAYER_METRICS.items():
            if unit in ("count", "B"):
                out[metric] = counts.get(metric, 0) / rounds
            elif metric.endswith("self_ms"):
                span_name = metric[: -len("self_ms") - 1]  # drops "_self_ms" or ".self_ms"
                out[metric] = self_ns[span_name] / 1e6 / rounds
            elif metric.endswith(".ms_per_trial"):
                suite = metric.split(".")[1]
                trials = self.counts[f"suites.{suite}.trials"]
                out[metric] = total_ns[f"suites.{suite}"] / 1e6 / trials if trials else 0.0
        return out

    def write(self, path) -> None:
        """Write the spans as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            for span in self.spans:
                handle.write("\t".join(str(v) for v in span) + "\n")
