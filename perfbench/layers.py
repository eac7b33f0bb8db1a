"""Per-layer timing for the traced benchmark run.

The traced run wraps the public entry points of each ``repro`` layer (see
:data:`TARGETS`) with a timing shim.  The calls, their duration and the
part of it spent in other wrapped calls land in the process-wide
``repro.obs.METRICS`` registry, as the counter ``bench.<layer>.calls``
and the histogram sums ``bench.<layer>.s`` and ``bench.<layer>.child_s``.  Going through
``METRICS`` means sweep workers ship their numbers back to the parent with
the per-cell metrics snapshot the runner already sends, and every
operation's before/after ``METRICS`` difference carries its own layer
times.

Nothing here runs unless :func:`install` is called, and :func:`restore`
puts every original attribute back.  The untraced run never installs a
wrapper, so end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import METRICS, clock

#: Every metric name the benchmark prints must match this.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _record_gates(circuit: Any) -> None:
    METRICS.counter("bench.netlist.load.gates", circuit.num_gates())


def _record_sizer_passes(result: Any) -> None:
    METRICS.counter("bench.core.sizer.passes", len(result.iterations))


def _record_baseline_passes(result: Any) -> None:
    METRICS.counter("bench.core.baseline.passes", int(result.passes))


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module.owner.attr`` (or ``module.attr``)."""

    layer: str
    module: str
    attr: str
    owner: Optional[str] = None
    on_result: Optional[Callable[[Any], None]] = None


#: The layer entry points the traced run times.  Calls the benchmark makes
#: itself (front-end load, flows) go through module attributes, so
#: wrapping the attribute times them as well.
TARGETS: Tuple[Target, ...] = (
    Target("netlist.load", "repro.cli", "load_circuit", on_result=_record_gates),
    Target("ir.compiled", "repro.netlist.circuit", "compiled", owner="Circuit"),
    Target("verify.preflight", "repro.verify.preflight", "preflight_circuit"),
    Target("library.gate_delay", "repro.library.delay_model", "gate_delay",
           owner="LookupTableDelayModel"),
    Target("library.gate_delay", "repro.library.delay_model", "gate_delay_at_size",
           owner="LookupTableDelayModel"),
    Target("variation.gate_distribution", "repro.variation.model",
           "gate_distribution", owner="VariationModel"),
    Target("sta.dsta", "repro.sta.dsta", "arrival_times", owner="DeterministicSTA"),
    Target("core.fassta.analyze", "repro.core.fassta", "analyze", owner="FASSTA"),
    Target("core.fassta.gate_delay_rv", "repro.core.fassta", "gate_delay_rv",
           owner="FASSTA"),
    Target("core.fullssta.analyze", "repro.core.fullssta", "analyze", owner="FULLSSTA"),
    Target("core.incremental.analyze", "repro.core.fullssta", "analyze",
           owner="IncrementalReanalysis"),
    Target("core.incremental.preview", "repro.core.fullssta", "preview",
           owner="IncrementalReanalysis"),
    Target("core.incremental.commit", "repro.core.fullssta", "commit_preview",
           owner="IncrementalReanalysis"),
    Target("core.cost.size_sweep", "repro.core.cost", "size_sweep_components",
           owner="CostEvaluator"),
    Target("core.wnss.trace", "repro.core.wnss", "trace", owner="WNSSTracer"),
    Target("core.sizer.optimize", "repro.core.sizer", "optimize",
           owner="StatisticalGreedySizer", on_result=_record_sizer_passes),
    Target("core.baseline.optimize", "repro.core.baseline", "optimize",
           owner="MeanDelaySizer", on_result=_record_baseline_passes),
    Target("montecarlo.run", "repro.montecarlo.mc", "run", owner="MonteCarloTimer"),
    Target("criticality.analyze", "repro.criticality.analysis", "analyze",
           owner="CriticalityAnalyzer"),
    Target("flow.run", "repro.flow", "run_sizing_flow"),
)


class LayerTimer:
    """Installs the timing shims and keeps the stack that splits self time.

    Each active wrapped call owns one stack frame accumulating the time of
    the wrapped calls nested directly inside it; on return the call adds
    its own duration to its parent's frame.  Per-layer totals build up in
    plain lists and are flushed into ``METRICS`` whenever the outermost
    wrapped call returns, which keeps the per-call cost low for the
    million-call per-gate entry points.
    """

    def __init__(self) -> None:
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        #: layer -> [calls, seconds, seconds in nested wrapped calls]
        self._totals: Dict[str, List[float]] = {}
        self.missing: List[str] = []

    def flush(self) -> None:
        """Move the accumulated totals into ``METRICS``."""
        for layer, totals in self._totals.items():
            calls, seconds, child = totals
            if calls:
                METRICS.counter(f"bench.{layer}.calls", int(calls))
                METRICS.histogram(f"bench.{layer}.s", seconds)
                METRICS.histogram(f"bench.{layer}.child_s", child)
                totals[:] = [0, 0.0, 0.0]

    def _wrap(self, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        totals = self._totals.setdefault(target.layer, [0, 0.0, 0.0])
        flush = self.flush
        on_result = target.on_result

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    flush()
            if on_result is not None:
                on_result(result)
            return result

        timed.perfbench_layer = target.layer  # type: ignore[attr-defined]
        return timed

    def install(self) -> None:
        """Wrap every resolvable target; unresolvable ones are listed in
        :attr:`missing` (a renamed entry point reads as zero calls)."""
        if self._saved:
            raise RuntimeError("layer timers are already installed")
        self.missing = []
        for target in TARGETS:
            try:
                module = importlib.import_module(target.module)
                owner = getattr(module, target.owner) if target.owner else module
                original = (
                    owner.__dict__[target.attr]
                    if target.owner
                    else getattr(module, target.attr)
                )
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{target.module}.{target.owner or ''}.{target.attr}")
                continue
            self._saved.append((owner, target.attr, original))
            setattr(owner, target.attr, self._wrap(target, original))
        for name in self.missing:
            print(f"perfbench: layer entry point not found: {name}", file=sys.stderr)

    def restore(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()
        self.flush()

    def leftovers(self) -> List[str]:
        """Targets still pointing at a wrapper (empty after :meth:`restore`)."""
        found = []
        for target in TARGETS:
            try:
                module = importlib.import_module(target.module)
                owner = getattr(module, target.owner) if target.owner else module
                current = getattr(owner, target.attr)
            except (ImportError, AttributeError):
                continue
            if hasattr(current, "perfbench_layer"):
                found.append(f"{target.layer}:{target.attr}")
        return found


# ---------------------------------------------------------------------------
# Metrics registry arithmetic
# ---------------------------------------------------------------------------
def snapshot_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """What happened between two ``METRICS.snapshot()`` calls.

    Counters and histogram counts/sums subtract; min/max cannot, so deltas
    keep only ``count`` and ``sum``.  Gauges are last-write readings and
    appear when they changed.
    """
    counters = {
        name: value - before["counters"].get(name, 0)
        for name, value in after["counters"].items()
        if value != before["counters"].get(name, 0)
    }
    histograms = {}
    for name, hist in after["histograms"].items():
        old = before["histograms"].get(name) or {"count": 0, "sum": 0.0}
        count = hist["count"] - old["count"]
        if count:
            histograms[name] = {"count": count, "sum": hist["sum"] - old["sum"]}
    gauges = {
        name: value
        for name, value in after["gauges"].items()
        if before["gauges"].get(name) != value
    }
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def merge_delta(into: Dict[str, Any], delta: Dict[str, Any]) -> None:
    """Add one delta (or a worker snapshot) into an accumulating delta."""
    for name, value in delta.get("counters", {}).items():
        into["counters"][name] = into["counters"].get(name, 0) + value
    into["gauges"].update(delta.get("gauges", {}))
    for name, hist in delta.get("histograms", {}).items():
        if not hist or not hist.get("count"):
            continue
        acc = into["histograms"].setdefault(name, {"count": 0, "sum": 0.0})
        acc["count"] += hist["count"]
        acc["sum"] += hist["sum"]


def empty_delta() -> Dict[str, Any]:
    return {"counters": {}, "gauges": {}, "histograms": {}}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------
#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("netlist.load.s", "s", "lower"),
    ("netlist.load.gates_per_s", "1/s", "higher"),
    ("ir.compiled.calls", "count", "lower"),
    ("ir.compiled.s", "s", "lower"),
    ("verify.preflight.s", "s", "lower"),
    ("library.gate_delay.calls", "count", "lower"),
    ("library.gate_delay.s", "s", "lower"),
    ("variation.gate_distribution.calls", "count", "lower"),
    ("variation.gate_distribution.s", "s", "lower"),
    ("sta.dsta.calls", "count", "lower"),
    ("sta.dsta.s", "s", "lower"),
    ("core.fassta.analyze.s", "s", "lower"),
    ("core.fassta.gate_delay_rv.calls", "count", "lower"),
    ("core.fassta.gate_delay_rv.s", "s", "lower"),
    ("core.fullssta.analyze.calls", "count", "lower"),
    ("core.fullssta.analyze.s", "s", "lower"),
    ("core.incremental.analyze.s", "s", "lower"),
    ("core.incremental.preview.calls", "count", "lower"),
    ("core.incremental.preview.s", "s", "lower"),
    ("core.incremental.dirty_cone_gates.mean", "count", "lower"),
    ("core.incremental.commit_ratio", "ratio", "higher"),
    ("core.discrete_pdf.add.calls", "count", "lower"),
    ("core.discrete_pdf.maximum.calls", "count", "lower"),
    ("core.discrete_pdf.batched_rows", "count", "lower"),
    ("core.cost.size_sweep.calls", "count", "lower"),
    ("core.cost.size_sweep.s", "s", "lower"),
    ("core.subcircuit.hit_ratio", "ratio", "higher"),
    ("core.wnss.trace.s", "s", "lower"),
    ("core.sizer.optimize.s", "s", "lower"),
    ("core.sizer.optimize.self_s", "s", "lower"),
    ("core.sizer.optimize.coverage", "ratio", "higher"),
    ("core.sizer.passes", "count", "lower"),
    ("core.sizer.eval_cache.hit_ratio", "ratio", "higher"),
    ("core.baseline.optimize.s", "s", "lower"),
    ("core.baseline.optimize.self_s", "s", "lower"),
    ("core.baseline.passes", "count", "lower"),
    ("montecarlo.run.s", "s", "lower"),
    ("montecarlo.samples_per_s", "1/s", "higher"),
    ("criticality.analyze.s", "s", "lower"),
    ("runner.cell.busy_s", "s", "lower"),
    ("runner.parallel_efficiency", "ratio", "higher"),
    ("runner.wait_s", "s", "lower"),
    ("runner.retries", "count", "lower"),
    ("runner.respawns", "count", "lower"),
    ("runner.resume.s", "s", "lower"),
    ("runner.resume.recomputed", "count", "lower"),
    ("flow.run.s", "s", "lower"),
    ("flow.self_s", "s", "lower"),
    ("obs.tracing_overhead_pct", "%", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(delta: Dict[str, Any]) -> Dict[str, float]:
    """Derive the per-layer metrics (except the tracing overhead) from the
    accumulated ``METRICS`` delta of a traced pass."""
    counters = delta["counters"]
    hists = delta["histograms"]

    def calls(layer: str) -> float:
        return float(counters.get(f"bench.{layer}.calls", 0))

    def seconds(layer: str) -> float:
        return float(hists.get(f"bench.{layer}.s", {}).get("sum", 0.0))

    def child(layer: str) -> float:
        return float(hists.get(f"bench.{layer}.child_s", {}).get("sum", 0.0))

    def count(name: str) -> float:
        return float(counters.get(name, 0))

    def hist_sum(name: str) -> float:
        return float(hists.get(name, {}).get("sum", 0.0))

    cone = hists.get("incremental.dirty_cone_gates", {"count": 0, "sum": 0.0})
    out = {
        "netlist.load.s": seconds("netlist.load"),
        "netlist.load.gates_per_s": _ratio(
            count("bench.netlist.load.gates"), seconds("netlist.load")
        ),
        "ir.compiled.calls": calls("ir.compiled"),
        "ir.compiled.s": seconds("ir.compiled"),
        "verify.preflight.s": seconds("verify.preflight"),
        "library.gate_delay.calls": calls("library.gate_delay"),
        "library.gate_delay.s": seconds("library.gate_delay"),
        "variation.gate_distribution.calls": calls("variation.gate_distribution"),
        "variation.gate_distribution.s": seconds("variation.gate_distribution"),
        "sta.dsta.calls": calls("sta.dsta"),
        "sta.dsta.s": seconds("sta.dsta"),
        "core.fassta.analyze.s": seconds("core.fassta.analyze"),
        "core.fassta.gate_delay_rv.calls": calls("core.fassta.gate_delay_rv"),
        "core.fassta.gate_delay_rv.s": seconds("core.fassta.gate_delay_rv"),
        "core.fullssta.analyze.calls": calls("core.fullssta.analyze"),
        "core.fullssta.analyze.s": seconds("core.fullssta.analyze"),
        "core.incremental.analyze.s": seconds("core.incremental.analyze"),
        "core.incremental.preview.calls": calls("core.incremental.preview"),
        "core.incremental.preview.s": seconds("core.incremental.preview"),
        "core.incremental.dirty_cone_gates.mean": _ratio(cone["sum"], cone["count"]),
        "core.incremental.commit_ratio": _ratio(
            calls("core.incremental.commit"), calls("core.incremental.preview")
        ),
        "core.discrete_pdf.add.calls": count("discrete_pdf.add"),
        "core.discrete_pdf.maximum.calls": count("discrete_pdf.maximum"),
        "core.discrete_pdf.batched_rows": float(sum(
            value for name, value in counters.items()
            if name.startswith("discrete_pdf.batched_") and name.endswith("_rows")
        )),
        "core.cost.size_sweep.calls": calls("core.cost.size_sweep"),
        "core.cost.size_sweep.s": seconds("core.cost.size_sweep"),
        "core.subcircuit.hit_ratio": _ratio(
            count("sizer.subcircuit_cache_hits"),
            count("sizer.subcircuit_cache_hits") + count("sizer.subcircuit_cache_misses"),
        ),
        "core.wnss.trace.s": seconds("core.wnss.trace"),
        "core.sizer.optimize.s": seconds("core.sizer.optimize"),
        "core.sizer.optimize.self_s": (
            seconds("core.sizer.optimize") - child("core.sizer.optimize")
        ),
        "core.sizer.optimize.coverage": _ratio(
            child("core.sizer.optimize"), seconds("core.sizer.optimize")
        ),
        "core.sizer.passes": count("bench.core.sizer.passes"),
        "core.sizer.eval_cache.hit_ratio": _ratio(
            count("sizer.eval_cache_hits"),
            count("sizer.eval_cache_hits") + count("sizer.eval_cache_misses"),
        ),
        "core.baseline.optimize.s": seconds("core.baseline.optimize"),
        "core.baseline.optimize.self_s": (
            seconds("core.baseline.optimize") - child("core.baseline.optimize")
        ),
        "core.baseline.passes": count("bench.core.baseline.passes"),
        "montecarlo.run.s": seconds("montecarlo.run"),
        "montecarlo.samples_per_s": _ratio(
            count("mc.samples"), seconds("montecarlo.run")
        ),
        "criticality.analyze.s": seconds("criticality.analyze"),
        "runner.cell.busy_s": hist_sum("bench.runner.cell.busy_s"),
        "runner.parallel_efficiency": _ratio(
            hist_sum("bench.runner.cell.busy_s"), hist_sum("bench.runner.slot_s")
        ),
        "runner.wait_s": (
            hist_sum("bench.runner.slot_s") - hist_sum("bench.runner.cell.busy_s")
        ),
        "runner.retries": count("bench.runner.retries"),
        "runner.respawns": count("bench.runner.respawns"),
        "runner.resume.s": hist_sum("bench.runner.resume.s"),
        "runner.resume.recomputed": count("bench.runner.resume.recomputed"),
        "flow.run.s": seconds("flow.run"),
        "flow.self_s": seconds("flow.run") - child("flow.run"),
    }
    return out
