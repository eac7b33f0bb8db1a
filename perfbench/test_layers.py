"""Tests of the benchmark's layer timers and metric names.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from layers import (  # noqa: E402
    METRIC_NAME,
    PER_LAYER,
    TARGETS,
    LayerTimer,
    empty_delta,
    layer_metrics,
    snapshot_delta,
)
from repro.circuits.registry import build_benchmark  # noqa: E402
from repro.core.fassta import FASSTA  # noqa: E402
from repro.library.delay_model import LookupTableDelayModel  # noqa: E402
from repro.library.synthetic90nm import make_synthetic_90nm_library  # noqa: E402
from repro.netlist.circuit import CircuitError  # noqa: E402
from repro.obs import METRICS  # noqa: E402
from repro.variation.model import VariationModel  # noqa: E402


def _current(target):
    import importlib

    module = importlib.import_module(target.module)
    owner = getattr(module, target.owner) if target.owner else module
    return getattr(owner, target.attr)


def test_every_target_resolves_and_is_restored():
    originals = [_current(t) for t in TARGETS]
    timer = LayerTimer()
    timer.install()
    try:
        assert timer.missing == []
        assert all(hasattr(_current(t), "perfbench_layer") for t in TARGETS)
        assert sorted(timer.leftovers()) == sorted(
            f"{t.layer}:{t.attr}" for t in TARGETS
        )
    finally:
        timer.restore()
    assert timer.leftovers() == []
    assert [_current(t) for t in TARGETS] == originals


def test_restore_after_an_exception_inside_a_timed_call():
    timer = LayerTimer()
    timer.install()
    try:
        circuit = build_benchmark("c17")
        engine = FASSTA(
            LookupTableDelayModel(make_synthetic_90nm_library()), VariationModel()
        )
        with pytest.raises(CircuitError):
            engine.gate_delay_rv(circuit, "no-such-gate")
    finally:
        timer.restore()
    assert timer.leftovers() == []


def test_timed_calls_split_self_and_child_time():
    circuit = build_benchmark("c17")
    engine = FASSTA(
        LookupTableDelayModel(make_synthetic_90nm_library()), VariationModel()
    )
    before = METRICS.snapshot()
    timer = LayerTimer()
    timer.install()
    try:
        engine.analyze(circuit)
    finally:
        timer.restore()
    delta = snapshot_delta(before, METRICS.snapshot())
    hists = delta["histograms"]
    assert delta["counters"]["bench.core.fassta.analyze.calls"] == 1
    gates = circuit.num_gates()
    assert delta["counters"]["bench.core.fassta.gate_delay_rv.calls"] >= gates
    analyze = hists["bench.core.fassta.analyze.s"]["sum"]
    child = hists["bench.core.fassta.analyze.child_s"]["sum"]
    assert 0.0 < child <= analyze
    assert layer_metrics(delta)["core.fassta.gate_delay_rv.calls"] >= gates


def test_metric_names_match_the_contract():
    names = [name for name, _, _ in PER_LAYER]
    names += list(layer_metrics(empty_delta()))
    config = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names += [m["name"] for m in config["end_to_end"] + config["per_layer"]]
    assert names and all(METRIC_NAME.fullmatch(name) for name in names)
    assert len(set(n for n, _, _ in PER_LAYER)) == len(PER_LAYER)


def test_benchmark_json_lists_every_reported_metric():
    import run

    config = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in config["end_to_end"]] == [
        name for name, _, _ in run.END_TO_END
    ]
    reported = [name for name, _, _ in PER_LAYER + run.QUALITY]
    assert [m["name"] for m in config["per_layer"]] == reported
    assert set(layer_metrics(empty_delta())) | {"obs.tracing_overhead_pct"} == set(
        name for name, _, _ in PER_LAYER
    )
