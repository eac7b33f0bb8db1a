"""The benchmark's three workloads.

Each workload is closed-loop: one operation at a time from one process
(``sweep-mixed`` hands its cells to the runner's own two-worker pool).
A workload has five parts:

* ``prepare(seed)`` builds the inputs: substrates, front-end load and IR
  compile of every circuit (``sweep-mixed``: only the cell specs; its
  workers load their own circuits).  It is timed as set-up.
* ``run(inputs, rec)`` is one pass of the workload's work, timed as
  ``wall_s``.  Every operation goes through :meth:`Recorder.op`.
* ``check(outputs, reference, seed, rec)`` compares the outputs with the
  values recorded in ``reference.json``; each comparison is one
  attempted operation.
* ``quality(outputs)`` gives the paper's Table-1 and accuracy figures.
* ``record(outputs, seed)`` gives what ``check`` compares against
  (``record.py`` writes it to ``reference.json``).

Layers are reached through defaults only: ``run_sizing_flow``,
``run_cells`` and the CLI-default engine constructors.  No
``vectorized=``, ``vectorized_fassta`` or ``incremental_reanalysis`` knob
is ever passed.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import repro.cli as cli
import repro.flow as flow_mod
import repro.runner.sweep as sweep_mod
from repro.analysis.metrics import Table1Row
from repro.analysis.timing_yield import period_for_yield
from repro.core.fassta import FASSTA
from repro.core.fullssta import FULLSSTA
from repro.criticality import CriticalityAnalyzer
from repro.montecarlo.mc import MonteCarloTimer
from repro.obs import METRICS, clock

from layers import merge_delta, snapshot_delta

#: Relative tolerance of every recorded-float comparison.
REL_TOL = 1e-9


@dataclass
class OpRecord:
    name: str
    seconds: float
    ok: bool
    delta: Dict[str, Any]


@dataclass
class Recorder:
    """Counts attempted and failed operations and keeps each operation's
    ``METRICS`` difference (the registry is process-wide and cumulative,
    so only a before/after difference belongs to one operation)."""

    attempted: int = 0
    failed: int = 0
    ops: List[OpRecord] = field(default_factory=list)

    def op(
        self,
        name: str,
        fn: Callable[[], Any],
        remote: Optional[Callable[[Any], Dict[str, Any]]] = None,
    ) -> Any:
        """Run one operation; ``remote`` extracts metrics its worker
        processes shipped back, which the parent registry never saw."""
        self.attempted += 1
        before = METRICS.snapshot()
        start = clock()
        ok = True
        try:
            out = fn()
        except Exception:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            ok = False
            out = None
        seconds = clock() - start
        delta = snapshot_delta(before, METRICS.snapshot())
        if remote is not None and out is not None:
            merge_delta(delta, remote(out))
        self.ops.append(OpRecord(name, seconds, ok, delta))
        return out

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {name} {detail}".rstrip(), file=sys.stderr)


def _close(actual: Any, expected: Any) -> bool:
    """Recorded-value equality: exact for ints and strings, ``REL_TOL``
    relative for floats, element-wise for dicts and lists."""
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and actual.keys() == expected.keys()
            and all(_close(actual[k], expected[k]) for k in expected)
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, (list, tuple))
            and len(actual) == len(expected)
            and all(_close(a, e) for a, e in zip(actual, expected))
        )
    if isinstance(expected, float) or isinstance(actual, float):
        return math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=REL_TOL)
    return bool(actual == expected)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _table1_row(flow: Any, name: str) -> Dict[str, Any]:
    row = dataclasses.asdict(Table1Row.from_flow(name, flow))
    row.pop("runtime_seconds")
    return row


# ---------------------------------------------------------------------------
class FlowLadder:
    """Default sizing flows (lambda=3, cost objective) on fresh circuits."""

    name = "flow-ladder"
    circuits = ("c432", "c880")

    def prepare(self, seed: int) -> List[Any]:
        circuits = [cli.load_circuit(name) for name in self.circuits]
        for circuit in circuits:
            circuit.compiled()
        return circuits

    def run(self, circuits: List[Any], rec: Recorder) -> Dict[str, Any]:
        flows = {}
        for circuit in circuits:
            flows[circuit.name] = rec.op(
                f"flow {circuit.name}",
                lambda circuit=circuit: flow_mod.run_sizing_flow(circuit),
            )
        return flows

    def record(self, flows: Dict[str, Any], seed: int) -> Dict[str, Any]:
        return {
            name: {"row": _table1_row(flow, name), "sizes": flow.circuit.sizes()}
            for name, flow in flows.items()
        }

    def check(self, flows: Dict[str, Any], reference: Dict[str, Any],
              seed: int, rec: Recorder) -> None:
        for name in self.circuits:
            flow = flows.get(name)
            expected = reference[name]
            rec.check(f"{name} table1 row", flow is not None
                      and _close(_table1_row(flow, name), expected["row"]))
            rec.check(f"{name} final sizes", flow is not None
                      and flow.circuit.sizes() == expected["sizes"])

    def quality(self, flows: Dict[str, Any]) -> Dict[str, float]:
        done = [flow for flow in flows.values() if flow is not None]
        return {
            "sigma_reduction_pct": _mean([f.sigma_reduction_pct for f in done]),
            "area_increase_pct": _mean([f.area_increase_pct for f in done]),
            "mean_increase_pct": _mean([f.mean_increase_pct for f in done]),
        }


# ---------------------------------------------------------------------------
class AnalysisLarge:
    """Sign-off analysis with no sizing: the ``repro-sizer ssta
    --monte-carlo 2000`` path plus one criticality analysis per circuit."""

    name = "analysis-large"
    mc_samples = 2000
    #: The generated circuit is one of this many seeded variants, so every
    #: workload seed has recorded FASSTA/FULLSSTA moments to check against.
    gen_variants = 16

    def circuit_names(self, seed: int) -> List[str]:
        return [
            "c6288",
            "c7552",
            f"gen:depth=40,width=125,seed={seed % self.gen_variants}",
        ]

    def prepare(self, seed: int) -> Dict[str, Any]:
        _, delay_model, variation_model = sweep_mod.SubstrateSpec().build()
        circuits = [cli.load_circuit(name) for name in self.circuit_names(seed)]
        for circuit in circuits:
            circuit.compiled()
        return {
            "seed": seed,
            "names": self.circuit_names(seed),
            "circuits": circuits,
            "delay_model": delay_model,
            "variation_model": variation_model,
        }

    def run(self, inputs: Dict[str, Any], rec: Recorder) -> Dict[str, Any]:
        delay_model = inputs["delay_model"]
        variation_model = inputs["variation_model"]
        seed = inputs["seed"]
        out = {}
        for name, circuit in zip(inputs["names"], inputs["circuits"]):
            def analyze(circuit: Any = circuit) -> Dict[str, Any]:
                fast = FASSTA(delay_model, variation_model).analyze(circuit)
                full = FULLSSTA(delay_model, variation_model).analyze(circuit)
                mc = MonteCarloTimer(delay_model, variation_model).run(
                    circuit, num_samples=self.mc_samples, seed=seed
                )
                crit = CriticalityAnalyzer(circuit).analyze(full.arrival_moments)
                return {"fassta": fast, "fullssta": full, "mc": mc, "crit": crit}

            out[name] = rec.op(f"analyze {name}", analyze)
        return out

    @staticmethod
    def _moments(result: Dict[str, Any]) -> Dict[str, List[float]]:
        return {
            engine: [result[engine].output_rv.mean, result[engine].output_rv.sigma]
            for engine in ("fassta", "fullssta")
        }

    def record(self, out: Dict[str, Any], seed: int) -> Dict[str, Any]:
        return {name: self._moments(result) for name, result in out.items()}

    def check(self, out: Dict[str, Any], reference: Dict[str, Any],
              seed: int, rec: Recorder) -> None:
        for name in self.circuit_names(seed):
            result = out.get(name)
            rec.check(f"{name} FASSTA/FULLSSTA moments", result is not None
                      and _close(self._moments(result), reference[name]))
            if result is None:
                continue
            samples = result["mc"].samples
            rec.check(f"{name} Monte-Carlo samples",
                      samples.size == self.mc_samples
                      and bool(np.isfinite(samples).all()))
            mass = result["crit"].total_source_mass()
            rec.check(f"{name} criticality mass conserved",
                      abs(mass - 1.0) <= 1e-9, f"(mass {mass!r})")

    def quality(self, out: Dict[str, Any]) -> Dict[str, float]:
        p99_err = []
        sigma_err = []
        for result in out.values():
            if result is None:
                continue
            full = result["fullssta"]
            mc_period = period_for_yield(result["mc"].samples, 0.99)
            p99_err.append(
                abs(period_for_yield(full.output_pdf, 0.99) - mc_period) / mc_period
            )
            sigma_err.append(
                abs(result["fassta"].output_rv.sigma - full.output_rv.sigma)
                / full.output_rv.sigma
            )
        return {
            "p99_err_pct": 100.0 * max(p99_err, default=0.0),
            "fassta_sigma_err_pct": 100.0 * max(sigma_err, default=0.0),
        }


# ---------------------------------------------------------------------------
class SweepMixed:
    """A 6-cell Table-1 + yield sweep on the runner's pool, then a resume
    pass over the same directory."""

    name = "sweep-mixed"
    circuits = ("alu2", "c17")
    jobs = 2

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = work_dir
        self._passes = 0

    def specs(self) -> List[Any]:
        specs = []
        for name in self.circuits:
            specs += sweep_mod.table1_specs([name], [3.0, 9.0])
            specs += sweep_mod.yield_specs([name], [0.99])
        return specs

    def prepare(self, seed: int) -> List[Any]:
        # Only the specs: each cell loads and compiles its circuit inside a
        # worker, so the sweep's front-end cost is part of wall_s.
        return self.specs()

    def run(self, specs: List[Any], rec: Recorder) -> Dict[str, Any]:
        self._passes += 1
        out_dir = self.work_dir / f"pass-{self._passes}"
        shutil.rmtree(out_dir, ignore_errors=True)

        def compute() -> Any:
            start = clock()
            report = sweep_mod.run_cells(specs, jobs=self.jobs, out_dir=out_dir)
            busy = sum(r.runtime_seconds for r in report.results if not r.from_cache)
            METRICS.histogram("bench.runner.cell.busy_s", busy)
            METRICS.histogram("bench.runner.slot_s", self.jobs * (clock() - start))
            METRICS.counter("bench.runner.retries", report.retries)
            METRICS.counter("bench.runner.respawns", report.metrics.get(
                "counters", {}).get("pool.respawns", 0))
            return report

        def resume() -> Any:
            start = clock()
            report = sweep_mod.run_cells(
                specs, jobs=self.jobs, out_dir=out_dir, resume=True
            )
            METRICS.histogram("bench.runner.resume.s", clock() - start)
            METRICS.counter("bench.runner.resume.recomputed", report.computed)
            return report

        computed = rec.op("sweep compute", compute, remote=lambda r: r.metrics)
        resumed = rec.op("sweep resume", resume)
        for report in (computed, resumed):
            if report is not None:
                rec.attempted += report.total
                rec.failed += report.failed
        shutil.rmtree(out_dir, ignore_errors=True)
        return {"computed": computed, "resumed": resumed}

    @staticmethod
    def _rows(report: Any) -> Dict[str, Dict[str, Any]]:
        rows = {}
        for result in report.results:
            row = dict(result.result)
            row.pop("runtime_seconds", None)
            rows[result.spec.artifact_stem()] = row
        return rows

    def record(self, out: Dict[str, Any], seed: int) -> Dict[str, Any]:
        return self._rows(out["computed"])

    def check(self, out: Dict[str, Any], reference: Dict[str, Any],
              seed: int, rec: Recorder) -> None:
        computed, resumed = out["computed"], out["resumed"]
        rec.check("sweep rows match recorded values", computed is not None
                  and _close(self._rows(computed), reference))
        rec.check("resume recomputes no cell", resumed is not None
                  and resumed.computed == 0 and resumed.skipped == len(reference))
        rec.check("resume rows equal compute rows",
                  computed is not None and resumed is not None
                  and self._rows(resumed) == self._rows(computed))

    def quality(self, out: Dict[str, Any]) -> Dict[str, float]:
        computed = out["computed"]
        results = computed.results if computed is not None else []
        table1 = [r.result for r in results if r.spec.kind == "table1"]
        yields = [r.result for r in results if r.spec.kind == "yield"]
        return {
            "sigma_reduction_pct": _mean([-row["sigma_change_pct"] for row in table1]),
            "area_increase_pct": _mean([row["area_increase_pct"] for row in table1]),
            "mean_increase_pct": _mean([row["mean_increase_pct"] for row in table1]),
            "period_reduction_pct": _mean(
                [row["period_reduction_pct"] for row in yields]
            ),
        }


def make_workload(name: str, work_dir: Path) -> Any:
    if name == FlowLadder.name:
        return FlowLadder()
    if name == AnalysisLarge.name:
        return AnalysisLarge()
    if name == SweepMixed.name:
        return SweepMixed(work_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (FlowLadder.name, AnalysisLarge.name, SweepMixed.name)
