"""Process-pool sweep orchestrator for (circuit, lambda) experiment grids.

Every cell of a Table-1 or Fig-4 sweep is an independent job: build the
benchmark, size it for minimum mean delay, re-size it statistically at one
lambda, and measure the before/after moments.  :func:`run_cells` executes a
list of such cells either serially (``jobs=1`` — the exact code path the
single-process experiment runners always used) or across a
``ProcessPoolExecutor``, persisting each completed cell through
:mod:`repro.runner.artifacts` and skipping cells whose artifact already
matches the current spec when ``resume=True``.

Cell specs and the evaluators are plain module-level dataclasses/functions
so they pickle cleanly into worker processes.  Results are deterministic —
the sizing flow has no randomness outside the seeded Monte-Carlo validator
— so serial and parallel sweeps produce identical rows (pinned by
``tests/runner/test_sweep.py``); only the recorded wall-clock runtimes
differ.

Fault tolerance
---------------
Long campaigns hit failures a plain process pool cannot survive; the
orchestrator layers the following on top (all off/no-op by default, so
fault-free sweeps behave bit-identically to the historical implementation):

* **timeouts** — ``cell_timeout`` bounds each attempt's wall clock; a hung
  worker is killed (and only that worker; its siblings keep computing) and
  the cell counts as a ``timeout`` failure;
* **retries** — ``max_retries`` extra attempts per cell with exponential
  backoff, but only for *retryable* categories (transient / timeout /
  crash — see :mod:`repro.runner.errors`); deterministic failures never
  burn retry budget;
* **crash recovery** — a worker that dies (OOM-kill, segfault) is
  attributed to exactly the cell it was evaluating, respawned, and the
  cell retried; pending and in-flight sibling cells are unaffected
  (:class:`repro.runner.pool.FaultTolerantPool` replaces
  ``ProcessPoolExecutor``, whose ``BrokenProcessPool`` failed every
  in-flight future);
* **graceful interrupts** — SIGINT drains in-flight cells, persists their
  artifacts, writes ``checkpoint.json``, and raises
  :class:`~repro.runner.errors.SweepInterrupted` carrying the partial
  report — identically for serial and parallel sweeps;
* **failure ledger** — every failed attempt is appended to
  ``<out_dir>/failures.json`` (:mod:`repro.runner.ledger`), and corrupt or
  schema-mismatched artifacts found during resume are quarantined as
  ``*.corrupt`` instead of silently recomputed over;
* **fault injection** — :mod:`repro.runner.faults` threads deterministic
  crash/hang/transient/corrupt injectors through :func:`evaluate_cell`
  via the ``REPRO_FAULTS`` environment variable, which is how the chaos
  suite (``tests/runner/test_faults.py``) proves all of the above.
"""

from __future__ import annotations

import dataclasses
import heapq
import time
import traceback as traceback_module
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.circuits.registry import build_benchmark
from repro.core.sizer import SizerConfig
from repro.library.delay_model import LookupTableDelayModel
from repro.library.synthetic90nm import make_synthetic_90nm_library
from repro.obs import (
    METRICS,
    MetricsRegistry,
    Tracer,
    activate,
    clock,
    load_trace,
    merge_traces,
    trace_payload,
    write_trace,
)
from repro.runner.artifacts import (
    DIGEST_LEN,
    artifact_path,
    load_artifact_status,
    quarantine_artifact,
    spec_key,
    write_artifact,
)
from repro.runner.errors import (
    SweepInterrupted,
    check_payload_health,
    classify_exception,
    is_retryable,
)
from repro.runner.faults import corrupt_artifact_if_injected, inject_evaluation_faults
from repro.runner.ledger import (
    CHECKPOINT_FILENAME,
    LEDGER_FILENAME,
    FailureLedger,
    FailureRecord,
    QuarantineRecord,
    write_checkpoint,
)
from repro.runner.pool import FaultTolerantPool
from repro.variation.model import VariationModel

#: Cell kinds understood by :func:`evaluate_cell`.
KINDS = ("table1", "fig4", "yield", "criticality")

#: ``SizerConfig`` fields that were removed after artifacts keyed on them
#: had been written, each at the one behaviour the sizer still has.  They
#: stay in the key payload so that every cell key, and with it every
#: artifact filename, is unchanged: sweeps written before the removal
#: still resume instead of recomputing every cell.
RETIRED_SIZER_FIELDS: Dict[str, Any] = {
    "incremental_fallback": True,
    "vectorized_fassta": True,
}


def config_with_lam(config: Optional[SizerConfig], lam: float) -> SizerConfig:
    """The sizer configuration for one sweep cell.

    Preserves every caller-chosen field (``subcircuit_depth``,
    ``max_iterations``, ...) and only swaps the lambda — the historical
    behavior of silently replacing a mismatched config with a default
    ``SizerConfig(lam=lam)`` dropped all of them.
    """
    if config is None:
        return SizerConfig(lam=lam)
    if config.lam == lam:
        return config
    return dataclasses.replace(config, lam=lam)


@dataclass(frozen=True)
class SubstrateSpec:
    """Picklable recipe for the library / delay / variation substrates.

    The CLI's ``--sizes-per-cell / --alpha / --random-sigma`` options map
    onto these fields, so a sweep cell carries the exact substrates it must
    be evaluated with (and they participate in the artifact key).
    """

    sizes_per_cell: int = 7
    proportional_alpha: float = 0.6
    random_sigma: float = 2.0

    def build(self) -> Tuple[Any, Any, Any]:
        """Instantiate (library, delay_model, variation_model)."""
        library = make_synthetic_90nm_library(sizes_per_cell=self.sizes_per_cell)
        delay_model = LookupTableDelayModel(library)
        variation_model = VariationModel(
            proportional_alpha=self.proportional_alpha,
            random_sigma=self.random_sigma,
        )
        return library, delay_model, variation_model


@dataclass(frozen=True)
class CellSpec:
    """One (circuit, lambda) cell of a sweep, fully self-describing.

    ``yield`` cells sweep a target yield instead of a lambda: their
    ``target_yield`` is set, their ``lam`` is fixed at 0.0 (the weight is
    derived from the target inside the sizer) and the artifact filename
    carries the target so different targets never collide.

    ``criticality`` cells analyse the mean-delay-sized design's statistical
    criticality (per-gate probabilities, top-``top_k`` paths, optional
    Monte-Carlo agreement) instead of running the statistical sizer; their
    ``lam`` is likewise fixed at 0.0.
    """

    kind: str
    circuit: str
    lam: float
    sizer_config: Optional[SizerConfig] = None
    monte_carlo_samples: int = 0
    seed: int = 0
    substrates: SubstrateSpec = SubstrateSpec()
    target_yield: Optional[float] = None
    top_k: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown cell kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "yield" and self.target_yield is None:
            raise ValueError("yield cells need a target_yield")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        # Normalize so lam=3 and lam=3.0 describe the same cell: both the
        # artifact filename and the json-encoded key payload must agree, or
        # resume would recompute (and duplicate) semantically identical cells.
        object.__setattr__(self, "lam", float(self.lam))
        if self.target_yield is not None:
            object.__setattr__(self, "target_yield", float(self.target_yield))

    def payload(self) -> Dict[str, Any]:
        """Canonical JSON-able description of every input shaping the result."""
        sizer_config = {
            **RETIRED_SIZER_FIELDS,
            **dataclasses.asdict(config_with_lam(self.sizer_config, self.lam)),
        }
        sizer_config["lam"] = float(sizer_config["lam"])
        return {
            "kind": self.kind,
            "circuit": self.circuit,
            "lam": self.lam,
            "target_yield": self.target_yield,
            "top_k": self.top_k,
            "sizer_config": sizer_config,
            "monte_carlo_samples": self.monte_carlo_samples,
            "seed": self.seed,
            "substrates": dataclasses.asdict(self.substrates),
        }

    def key(self) -> str:
        return spec_key(self.payload())

    def digest(self) -> str:
        """Short spec-key prefix folded into the artifact filename.

        Covers every spec field the explicit filename parts miss —
        ``top_k``, ``monte_carlo_samples``, ``seed``, substrates and the
        sizer config — so two criticality cells for the same circuit
        (both ``lam=0.0``) can never overwrite one file.
        """
        return self.key()[:DIGEST_LEN]

    def artifact_path(self, out_dir: Union[str, Path]) -> Path:
        """Canonical artifact file for this cell under ``out_dir``."""
        return artifact_path(
            out_dir, self.kind, self.circuit, self.lam, self.target_yield,
            digest=self.digest(),
        )

    def artifact_stem(self) -> str:
        """Filename stem identifying this cell (used by the failure ledger)."""
        return self.artifact_path(".").stem

    def describe(self) -> str:
        """Human-readable one-liner for error messages and ledgers."""
        text = f"{self.kind} {self.circuit} lam={self.lam:g}"
        if self.target_yield is not None:
            text += f" y={self.target_yield:g}"
        return text


@dataclass
class CellResult:
    """Outcome of one cell: the result payload plus provenance."""

    spec: CellSpec
    key: str
    result: Dict[str, Any]
    runtime_seconds: float
    from_cache: bool = False
    #: Schema-1 trace payload of this cell's evaluation (span tree + the
    #: worker's per-cell metrics snapshot); ships back to the parent over
    #: the existing result pipe and is persisted beside the artifact.
    trace: Optional[Dict[str, Any]] = field(default=None, compare=False, repr=False)

    def table1_row(self) -> "Table1Row":
        """Reconstruct the Table-1 row of a ``kind == "table1"`` cell."""
        # Imported lazily: repro.analysis re-exports the experiment runners,
        # which drive this module — a top-level import would be circular.
        from repro.analysis.metrics import Table1Row

        if self.spec.kind != "table1":
            raise ValueError(f"cell kind is {self.spec.kind!r}, not 'table1'")
        return Table1Row(**self.result)


@dataclass
class SweepReport:
    """Summary of one :func:`run_cells` invocation.

    ``computed`` counts only cells that *succeeded* this run (historically
    it reported the whole pending count even when cells failed); failed,
    quarantined and never-run cells are reported separately.
    """

    results: List[CellResult]
    computed: int
    skipped: int
    wall_seconds: float
    jobs: int
    out_dir: Optional[Path]
    total: int = 0                 #: cells requested (defaults to len(results))
    failed: int = 0                #: cells whose retry budget was exhausted
    quarantined: int = 0           #: corrupt/schema artifacts moved aside
    retries: int = 0               #: extra attempts scheduled across all cells
    interrupted: bool = False      #: SIGINT drained the sweep early
    failures: List[FailureRecord] = field(default_factory=list)
    #: Campaign-level metrics snapshot: every cell's registry merged, plus
    #: the orchestrator's own counters (retries, backoff waits, respawns).
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def pending(self) -> int:
        """Cells that never reached a final state (only after an interrupt)."""
        total = self.total or len(self.results)
        return max(0, total - len(self.results) - self.failed)

    def summary(self) -> str:
        total = self.total or len(self.results)
        head = (
            f"{total} cell(s): {self.computed} computed, "
            f"{self.skipped} reused from artifacts"
        )
        if self.failed:
            head += f", {self.failed} failed"
        if self.pending:
            head += f", {self.pending} not run"
        parts = [head]
        if self.quarantined:
            parts.append(f"{self.quarantined} corrupt artifact(s) quarantined")
        if self.retries:
            noun = "retry" if self.retries == 1 else "retries"
            parts.append(f"{self.retries} {noun}")
        if self.interrupted:
            parts.append("interrupted -- completed artifacts and checkpoint persisted")
        parts.append(f"wall {self.wall_seconds:.1f} s with jobs={self.jobs}")
        if self.out_dir is not None:
            parts.append(f"artifacts in {self.out_dir}")
        return "; ".join(parts)


# ---------------------------------------------------------------------------
# Spec builders
# ---------------------------------------------------------------------------
def table1_specs(
    circuit_names: Sequence[str],
    lams: Sequence[float],
    sizer_config: Optional[SizerConfig] = None,
    substrates: Optional[SubstrateSpec] = None,
    monte_carlo_samples: int = 0,
    seed: int = 0,
) -> List[CellSpec]:
    """The (circuit, lambda) grid of a Table-1 regeneration."""
    substrates = substrates or SubstrateSpec()
    return [
        CellSpec(
            kind="table1",
            circuit=name,
            lam=lam,
            sizer_config=config_with_lam(sizer_config, lam),
            monte_carlo_samples=monte_carlo_samples,
            seed=seed,
            substrates=substrates,
        )
        for name in circuit_names
        for lam in lams
    ]


def fig4_specs(
    circuit_name: str,
    lams: Sequence[float],
    sizer_config: Optional[SizerConfig] = None,
    substrates: Optional[SubstrateSpec] = None,
) -> List[CellSpec]:
    """One circuit swept across lambda values (the Fig. 4 trade-off curve)."""
    substrates = substrates or SubstrateSpec()
    return [
        CellSpec(
            kind="fig4",
            circuit=circuit_name,
            lam=lam,
            sizer_config=config_with_lam(sizer_config, lam),
            substrates=substrates,
        )
        for lam in lams
    ]


def yield_specs(
    circuit_names: Sequence[str],
    target_yields: Sequence[float],
    sizer_config: Optional[SizerConfig] = None,
    substrates: Optional[SubstrateSpec] = None,
) -> List[CellSpec]:
    """The (circuit, target_yield) grid of a yield-objective sweep.

    Each cell sizes its circuit for the minimum clock period achieving the
    target yield.  ``sizer_config`` supplies the budget knobs
    (``max_iterations``, ``pdf_samples``, ...); its objective, target and
    lambda are overridden per cell.
    """
    substrates = substrates or SubstrateSpec()
    base = sizer_config or SizerConfig()
    return [
        CellSpec(
            kind="yield",
            circuit=name,
            lam=0.0,
            sizer_config=dataclasses.replace(
                base, lam=0.0, objective="yield", target_yield=float(target)
            ),
            substrates=substrates,
            target_yield=target,
        )
        for name in circuit_names
        for target in target_yields
    ]


def criticality_specs(
    circuit_names: Sequence[str],
    top_k: int = 5,
    monte_carlo_samples: int = 0,
    seed: int = 0,
    substrates: Optional[SubstrateSpec] = None,
) -> List[CellSpec]:
    """One criticality-analysis cell per circuit.

    Each cell sizes its circuit for minimum mean delay (the common starting
    point of every sweep kind), computes the analytic gate criticalities and
    the top-``top_k`` statistical paths, and — when ``monte_carlo_samples``
    is positive — cross-checks them against empirical critical-path
    frequencies.
    """
    substrates = substrates or SubstrateSpec()
    return [
        CellSpec(
            kind="criticality",
            circuit=name,
            lam=0.0,
            monte_carlo_samples=monte_carlo_samples,
            seed=seed,
            substrates=substrates,
            top_k=top_k,
        )
        for name in circuit_names
    ]


# ---------------------------------------------------------------------------
# Per-cell evaluators (module-level so they pickle into workers)
# ---------------------------------------------------------------------------
def _evaluate_table1(spec: CellSpec) -> Dict[str, Any]:
    from repro.analysis.metrics import Table1Row
    from repro.flow import run_sizing_flow

    circuit = build_benchmark(spec.circuit)
    library, delay_model, variation_model = spec.substrates.build()
    flow = run_sizing_flow(
        circuit,
        lam=spec.lam,
        library=library,
        delay_model=delay_model,
        variation_model=variation_model,
        sizer_config=config_with_lam(spec.sizer_config, spec.lam),
        monte_carlo_samples=spec.monte_carlo_samples,
        seed=spec.seed,
    )
    return dataclasses.asdict(Table1Row.from_flow(spec.circuit, flow))


#: Per-process memo of the deterministic fig4 baseline, keyed by
#: (circuit, substrates): (sizes, original mean, original sigma).  Serial
#: sweeps derive the mean-delay starting point once per circuit instead of
#: once per lambda; workers warm their own copy on first use.  MeanDelaySizer
#: is deterministic, so the memo never changes any result.
_FIG4_BASELINES: Dict[Tuple[str, SubstrateSpec], Tuple[Dict[str, int], float, float]] = {}


def _evaluate_fig4(spec: CellSpec) -> Dict[str, Any]:
    from repro.core.baseline import MeanDelaySizer
    from repro.core.fullssta import FULLSSTA
    from repro.core.rv import NormalDelay
    from repro.core.sizer import StatisticalGreedySizer

    library, delay_model, variation_model = spec.substrates.build()
    circuit = build_benchmark(spec.circuit)
    fullssta = FULLSSTA(delay_model, variation_model)
    memo_key = (spec.circuit, spec.substrates)
    cached = _FIG4_BASELINES.get(memo_key)
    if cached is None:
        MeanDelaySizer(delay_model).optimize(circuit)
        original = fullssta.analyze(circuit).output_rv
        _FIG4_BASELINES[memo_key] = (
            dict(circuit.sizes()), original.mean, original.sigma
        )
    else:
        sizes, mean, sigma = cached
        circuit.apply_sizes(sizes)
        original = NormalDelay(mean, sigma)
    if spec.lam > 0:
        config = config_with_lam(spec.sizer_config, spec.lam)
        StatisticalGreedySizer(delay_model, variation_model, config).optimize(circuit)
        final = fullssta.analyze(circuit).output_rv
    else:
        final = original
    return {
        "circuit": spec.circuit,
        "lam": spec.lam,
        "original_mean": original.mean,
        "original_sigma": original.sigma,
        "mean": final.mean,
        "sigma": final.sigma,
        "area": delay_model.circuit_area(circuit),
    }


def _evaluate_yield(spec: CellSpec) -> Dict[str, Any]:
    from repro.flow import run_sizing_flow

    circuit = build_benchmark(spec.circuit)
    library, delay_model, variation_model = spec.substrates.build()
    config = dataclasses.replace(
        config_with_lam(spec.sizer_config, spec.lam),
        objective="yield",
        target_yield=spec.target_yield,
    )
    flow = run_sizing_flow(
        circuit,
        lam=config.lam,
        library=library,
        delay_model=delay_model,
        variation_model=variation_model,
        sizer_config=config,
    )
    result: Dict[str, Any] = {
        "circuit": spec.circuit,
        "original_mean": flow.original_rv.mean,
        "original_sigma": flow.original_rv.sigma,
        "mean": flow.final_rv.mean,
        "sigma": flow.final_rv.sigma,
        "area": flow.final_area,
        "original_area": flow.original_area,
    }
    result.update(flow.yield_summary(spec.target_yield))
    return result


def _evaluate_criticality(spec: CellSpec) -> Dict[str, Any]:
    from repro.core.baseline import MeanDelaySizer
    from repro.core.fassta import FASSTA
    from repro.criticality import (
        CriticalityAnalyzer,
        MonteCarloCriticality,
        extract_top_paths,
        total_path_mass,
    )

    circuit = build_benchmark(spec.circuit)
    _, delay_model, variation_model = spec.substrates.build()
    MeanDelaySizer(delay_model).optimize(circuit)
    analysis = FASSTA(delay_model, variation_model).analyze(circuit)
    crit = CriticalityAnalyzer(circuit).analyze(analysis.arrivals)
    top_k = spec.top_k or 5
    paths = extract_top_paths(circuit, crit, analysis.arrivals, k=top_k)
    result: Dict[str, Any] = {
        "circuit": spec.circuit,
        "gates": circuit.num_gates(),
        "source_mass": crit.total_source_mass(),
        "top_path_mass": total_path_mass(paths),
        "top_paths": [
            {
                "output": path.output_net,
                "source": path.source_net,
                "criticality": path.criticality,
                "length": len(path.gates),
                "exact": path.exact,
            }
            for path in paths
        ],
    }
    if spec.monte_carlo_samples > 0:
        mc = MonteCarloCriticality(delay_model, variation_model).run(
            circuit,
            num_samples=spec.monte_carlo_samples,
            seed=spec.seed,
            paths=paths,
        )
        result["mc_max_abs_gate_error"] = mc.max_abs_gate_error(
            crit.gate_criticality
        )
        result["mc_mean_abs_gate_error"] = mc.mean_abs_gate_error(
            crit.gate_criticality
        )
        result["mc_path_frequency"] = list(mc.path_frequency)
    return result


_EVALUATORS: Dict[str, Callable[[CellSpec], Dict[str, Any]]] = {
    "table1": _evaluate_table1,
    "fig4": _evaluate_fig4,
    "yield": _evaluate_yield,
    "criticality": _evaluate_criticality,
}


def evaluate_cell(spec: CellSpec, attempt: int = 0) -> CellResult:
    """Run one sweep cell to completion (this is the worker entry point).

    ``attempt`` is the zero-based retry counter; it feeds the
    fault-injection harness (so injected faults can heal on a chosen
    attempt) and is otherwise inert — evaluation itself is deterministic.
    The result payload is health-checked before it can ever reach an
    artifact: NaN/inf values or negative sigmas raise
    :class:`~repro.runner.errors.NumericalHealthError`.
    """
    inject_evaluation_faults(spec, attempt)
    # Each attempt records its own span tree and metrics from scratch: the
    # process-wide registry is reset so a worker reused across cells ships
    # per-cell (not cumulative) numbers back over the result pipe.
    METRICS.reset()
    tracer = Tracer(enabled=True)
    with activate(tracer):
        with tracer.span(
            "cell",
            kind=spec.kind,
            circuit=spec.circuit,
            lam=spec.lam,
            attempt=attempt,
        ) as cell_span:
            result = _EVALUATORS[spec.kind](spec)
    check_payload_health(result, context=spec.describe())
    trace = trace_payload(
        f"cell {spec.artifact_stem()}", tracer.spans, metrics=METRICS.snapshot()
    )
    return CellResult(
        spec=spec,
        key=spec.key(),
        result=result,
        runtime_seconds=cell_span.duration_s,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------
ProgressFn = Callable[[int, int, CellResult], None]


def _cell_trace_path(artifact: Path) -> Path:
    """The per-cell trace file living beside ``artifact`` (``*.trace.json``)."""
    return artifact.with_suffix(".trace.json")


def _preflight_cells(specs: Sequence[CellSpec]) -> None:
    """Lint each distinct (circuit, library) pair once before any evaluation.

    Cells sharing a circuit and a library geometry are checked once; the
    linter's ERROR diagnostics surface as
    :class:`~repro.verify.preflight.PreflightError` (a
    :class:`~repro.runner.errors.DeterministicError`) in the parent process.
    Uses the module-level ``build_benchmark`` binding so tests (and embedding
    callers) that monkeypatch it exercise the same circuits the workers
    would evaluate.
    """
    from repro.verify.preflight import preflight_circuit

    seen = set()
    for spec in specs:
        key = (spec.circuit, spec.substrates.sizes_per_cell)
        if key in seen:
            continue
        seen.add(key)
        try:
            circuit = build_benchmark(spec.circuit)
        except Exception:
            # An unresolvable circuit name is not a lint finding: leave the
            # cell to fail through the normal per-cell machinery, so sibling
            # cells still run and the failure lands in the ledger.
            continue
        library = make_synthetic_90nm_library(
            sizes_per_cell=spec.substrates.sizes_per_cell
        )
        preflight_circuit(circuit, library=library)


def run_cells(
    specs: Sequence[CellSpec],
    jobs: int = 1,
    out_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
    cell_timeout: Optional[float] = None,
    max_retries: int = 0,
    retry_backoff: float = 0.5,
    backoff_factor: float = 2.0,
    backoff_max: float = 60.0,
    on_error: str = "fail",
    preflight: bool = True,
) -> SweepReport:
    """Execute sweep cells, optionally in parallel, resumably and fault-tolerantly.

    Parameters
    ----------
    specs:
        The cells to run; results come back in the same order.
    jobs:
        ``1`` runs everything in-process (no workers involved); ``> 1``
        fans pending cells across a
        :class:`~repro.runner.pool.FaultTolerantPool` of worker processes.
    out_dir:
        Results directory for per-cell JSON artifacts.  ``None`` disables
        persistence (and therefore resume, the failure ledger and the
        interrupt checkpoint).
    resume:
        Skip cells whose artifact exists under ``out_dir`` and whose stored
        key matches the current spec hash.  Corrupt or schema-mismatched
        artifacts encountered during the scan are quarantined as
        ``*.corrupt`` (and recorded in the ledger) before recomputing.
    progress:
        Optional callback invoked as ``progress(done, total, result)``
        after every successful cell (cached or computed), in completion
        order.
    cell_timeout:
        Wall-clock budget in seconds per attempt.  Enforced only with
        ``jobs > 1`` (a hung in-process cell cannot be preempted); the
        hung worker is killed and the cell counts as a ``timeout`` failure.
    max_retries:
        Extra attempts per cell for retryable failures (transient /
        timeout / worker crash).  Deterministic failures never retry.
    retry_backoff / backoff_factor / backoff_max:
        Attempt ``n`` (zero-based) waits
        ``min(backoff_max, retry_backoff * backoff_factor**n)`` seconds
        before retrying.
    on_error:
        ``"fail"`` (default, historical behavior): every cell still runs —
        a failing cell never discards siblings — but a ``RuntimeError``
        aggregating the final failures is raised at the end.
        ``"continue"``: no raise; failures are reported in the returned
        :class:`SweepReport` for the caller to inspect.
    preflight:
        Lint each distinct (circuit, substrates) pair among the *pending*
        cells against the DRC catalogue before any evaluation starts.
        ERROR diagnostics raise
        :class:`~repro.runner.errors.DeterministicError` in the parent —
        before a single worker is spawned — regardless of ``on_error``,
        because retrying or continuing cannot fix a defective netlist.
        The CLI exposes ``--no-preflight`` to opt out.

    Raises
    ------
    SweepInterrupted
        On SIGINT, after draining in-flight cells, persisting their
        artifacts and writing ``checkpoint.json`` — identically for serial
        and parallel sweeps.  Carries the partial report.
    DeterministicError
        When ``preflight=True`` and a pending cell's circuit fails DRC.
    RuntimeError
        With ``on_error="fail"``, when any cell exhausted its retry budget.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if on_error not in ("fail", "continue"):
        raise ValueError(f"on_error must be 'fail' or 'continue', got {on_error!r}")
    start = clock()
    start_unix = time.time()
    respawn_base = METRICS.get_counter("pool.respawns")
    campaign_metrics = MetricsRegistry()
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    ledger = FailureLedger(out_path / LEDGER_FILENAME if out_path else None)

    total = len(specs)
    results: List[Optional[CellResult]] = [None] * total
    done = 0
    quarantined = 0
    pending: List[int] = []
    for i, spec in enumerate(specs):
        cached = None
        if resume and out_path is not None:
            path = spec.artifact_path(out_path)
            artifact, status = load_artifact_status(path)
            if status in ("corrupt", "schema"):
                target = quarantine_artifact(path)
                quarantined += 1
                ledger.record_quarantine(
                    QuarantineRecord(
                        artifact=path.name,
                        quarantined_as=target.name,
                        reason=status,
                    )
                )
            elif status == "ok" and artifact["key"] == spec.key():
                trace = None
                trace_file = _cell_trace_path(path)
                if trace_file.exists():
                    try:
                        trace = load_trace(trace_file)
                    except (ValueError, OSError):
                        trace = None
                cached = CellResult(
                    spec=spec,
                    key=artifact["key"],
                    result=artifact["result"],
                    runtime_seconds=float(artifact.get("runtime_seconds", 0.0)),
                    from_cache=True,
                    trace=trace,
                )
        if cached is not None:
            results[i] = cached
            done += 1
            if progress is not None:
                progress(done, total, cached)
        else:
            pending.append(i)

    if preflight and pending:
        _preflight_cells([specs[i] for i in pending])

    computed = 0
    retries = 0
    final_failures: List[FailureRecord] = []
    all_failures: List[FailureRecord] = []

    def _finish(index: int, result: CellResult, attempt: int = 0) -> None:
        nonlocal done, computed
        results[index] = result
        if out_path is not None:
            path = result.spec.artifact_path(out_path)
            write_artifact(
                path,
                key=result.key,
                spec=result.spec.payload(),
                result=result.result,
                runtime_seconds=result.runtime_seconds,
            )
            if result.trace is not None:
                write_trace(_cell_trace_path(path), result.trace)
            corrupt_artifact_if_injected(result.spec, attempt, path)
        done += 1
        computed += 1
        if progress is not None:
            progress(done, total, result)

    def _backoff_delay(attempt: int) -> float:
        return min(backoff_max, retry_backoff * backoff_factor**attempt)

    def _record_failure(
        index: int,
        attempt: int,
        category: str,
        error: str,
        message: str,
        tb: str,
        elapsed: float,
        allow_retry: bool = True,
    ) -> bool:
        """Ledger one failed attempt; True iff a retry should be scheduled."""
        nonlocal retries
        spec = specs[index]
        will_retry = allow_retry and is_retryable(category) and attempt < max_retries
        record = FailureRecord(
            cell=spec.artifact_stem(),
            key=spec.key(),
            kind=spec.kind,
            circuit=spec.circuit,
            lam=spec.lam,
            target_yield=spec.target_yield,
            attempt=attempt,
            category=category,
            error=error,
            message=message,
            traceback=tb,
            elapsed_seconds=elapsed,
            retried=will_retry,
        )
        ledger.record_failure(record)
        all_failures.append(record)
        campaign_metrics.counter(f"sweep.failures.{category}")
        if will_retry:
            retries += 1
            campaign_metrics.histogram(
                "sweep.backoff_wait_s", _backoff_delay(attempt)
            )
        else:
            final_failures.append(record)
        return will_retry

    interrupted = False
    # A failing cell must not discard its siblings: every other cell still
    # runs, completed cells persist to artifacts (so a later --resume only
    # pays for the failures), and the errors are reported together at the end.
    if jobs == 1 or not pending:
        interrupted = _run_serial(
            specs, pending, _finish, _record_failure, _backoff_delay
        )
    else:
        interrupted = _run_parallel(
            specs,
            pending,
            min(jobs, len(pending)),
            cell_timeout,
            _finish,
            _record_failure,
            _backoff_delay,
        )

    # Fold every cell's shipped metrics (cached cells included, so the
    # campaign numbers describe the whole grid) plus the orchestrator's own
    # counters into one registry; the snapshot rides on the report and the
    # campaign trace.
    completed = [r for r in results if r is not None]
    for result in completed:
        if result.trace is not None:
            campaign_metrics.merge(result.trace.get("metrics", {}))
    campaign_metrics.counter("sweep.cells_total", total)
    campaign_metrics.counter("sweep.cells_computed", computed)
    campaign_metrics.counter("sweep.cells_cached", done - computed)
    campaign_metrics.counter("sweep.retries", retries)
    campaign_metrics.counter("sweep.failed", len(final_failures))
    campaign_metrics.counter("sweep.quarantined", quarantined)
    # Serial sweeps reset the process registry per cell, so clamp the delta.
    respawns = max(0, METRICS.get_counter("pool.respawns") - respawn_base)
    if respawns:
        campaign_metrics.counter("pool.respawns", respawns)

    report = SweepReport(
        results=completed,
        computed=computed,
        skipped=done - computed,
        wall_seconds=clock() - start,
        jobs=jobs,
        out_dir=out_path,
        total=total,
        failed=len(final_failures),
        quarantined=quarantined,
        retries=retries,
        interrupted=interrupted,
        failures=final_failures,
        metrics=campaign_metrics.snapshot(),
    )

    # One merged campaign trace: every completed cell's span tree under a
    # synthetic root, plus one synthesized span per failed attempt
    # (crashed/hung workers can never ship theirs).  A fully-cached resume
    # leaves the existing file untouched — nothing ran, nothing changed.
    if out_path is not None and (
        computed or all_failures or not (out_path / "trace.json").exists()
    ):
        failure_spans = [
            {
                "id": f"fail.{n}",
                "parent": None,
                "name": "cell.failure",
                "start_unix": start_unix,
                "duration_s": max(0.0, float(record.elapsed_seconds)),
                "attrs": {
                    "cell": record.cell,
                    "category": record.category,
                    "attempt": record.attempt,
                    "retried": record.retried,
                },
            }
            for n, record in enumerate(all_failures)
        ]
        write_trace(
            out_path / "trace.json",
            merge_traces(
                [r.trace for r in completed if r.trace is not None],
                name="sweep",
                metrics=report.metrics,
                extra_spans=failure_spans,
            ),
        )

    if interrupted:
        if out_path is not None:
            write_checkpoint(
                out_path / CHECKPOINT_FILENAME,
                {
                    "total": total,
                    "completed": [r.spec.artifact_stem() for r in report.results],
                    "failed": [record.cell for record in final_failures],
                    "pending": [
                        specs[i].artifact_stem()
                        for i in pending
                        if results[i] is None
                        and not any(
                            record.cell == specs[i].artifact_stem()
                            for record in final_failures
                        )
                    ],
                },
            )
        raise SweepInterrupted(
            f"sweep interrupted: {report.summary()}", report=report
        )

    if final_failures and on_error == "fail":
        details = "; ".join(
            f"{record.kind} {record.circuit} lam={record.lam:g}: {record.message}"
            for record in final_failures
        )
        raise RuntimeError(
            f"{len(final_failures)} of {total} sweep cell(s) failed ({details})"
            + ("; completed cells were persisted to artifacts"
               if out_path is not None else "")
        )

    return report


def _run_serial(
    specs: Sequence[CellSpec],
    pending: Sequence[int],
    finish: Callable[[int, CellResult, int], None],
    record_failure: Callable[..., bool],
    backoff_delay: Callable[[int], float],
) -> bool:
    """In-process execution with retries; returns True if interrupted."""
    try:
        for i in pending:
            attempt = 0
            while True:
                cell_start = clock()
                try:
                    result = evaluate_cell(specs[i], attempt=attempt)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    elapsed = clock() - cell_start
                    if record_failure(
                        i,
                        attempt,
                        classify_exception(exc),
                        type(exc).__name__,
                        str(exc),
                        traceback_module.format_exc(),
                        elapsed,
                    ):
                        time.sleep(backoff_delay(attempt))
                        attempt += 1
                        continue
                    break
                finish(i, result, attempt)
                break
    except KeyboardInterrupt:
        return True
    return False


def _run_parallel(
    specs: Sequence[CellSpec],
    pending: Sequence[int],
    workers: int,
    cell_timeout: Optional[float],
    finish: Callable[[int, CellResult, int], None],
    record_failure: Callable[..., bool],
    backoff_delay: Callable[[int], float],
) -> bool:
    """Worker-pool execution with retries, timeouts and crash recovery.

    Returns True if interrupted (after draining in-flight cells).
    """
    runnable = deque((i, 0) for i in pending)
    waiting: List[Tuple[float, int, int]] = []  # (eligible_at, index, attempt)
    outstanding = len(pending)
    interrupted = False

    def _handle_event(event, allow_retry: bool) -> bool:
        """Process one pool event; True iff the cell reached a final state."""
        index, attempt = event.tag
        if event.kind == "ok":
            finish(index, event.value, attempt)
            return True
        if event.kind == "error":
            remote = event.value
            category, error = remote.category, remote.error
            message, tb = remote.message, remote.traceback
        elif event.kind == "crash":
            category, error = "crash", "WorkerCrashError"
            message = (
                f"worker died (exit code {event.value}) while evaluating "
                f"{specs[index].describe()}"
            )
            tb = ""
        else:  # timeout
            category, error = "timeout", "CellTimeoutError"
            message = (
                f"{specs[index].describe()} exceeded the cell timeout of "
                f"{cell_timeout:g} s; worker killed"
            )
            tb = ""
        if record_failure(
            index, attempt, category, error, message, tb,
            event.elapsed_seconds, allow_retry,
        ):
            heapq.heappush(
                waiting,
                (time.monotonic() + backoff_delay(attempt), index, attempt + 1),
            )
            return False
        return True

    pool = FaultTolerantPool(evaluate_cell, workers)
    try:
        try:
            while outstanding > 0:
                now = time.monotonic()
                while waiting and waiting[0][0] <= now:
                    _, index, attempt = heapq.heappop(waiting)
                    runnable.append((index, attempt))
                idle = pool.idle_workers()
                while runnable and idle:
                    index, attempt = runnable.popleft()
                    idle.pop()
                    pool.submit(
                        (index, attempt),
                        (specs[index], attempt),
                        timeout=cell_timeout,
                    )
                if pool.busy_count() == 0:
                    if runnable:
                        continue
                    if waiting:
                        time.sleep(max(0.0, waiting[0][0] - time.monotonic()))
                        continue
                    break  # defensive; outstanding bookkeeping says otherwise
                timeout = (
                    max(0.0, waiting[0][0] - time.monotonic()) if waiting else None
                )
                for event in pool.wait(timeout):
                    if _handle_event(event, allow_retry=True):
                        outstanding -= 1
        except KeyboardInterrupt:
            interrupted = True
            # Graceful drain: in-flight cells finish (timeouts still
            # enforced) and persist; queued work and retries are dropped.
            # A second SIGINT abandons the drain immediately.
            try:
                while pool.busy_count() > 0:
                    for event in pool.wait(None):
                        _handle_event(event, allow_retry=False)
            except KeyboardInterrupt:
                pass
    finally:
        pool.shutdown(kill=pool.busy_count() > 0)
    return interrupted
