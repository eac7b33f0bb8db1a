"""High-level convenience flow tying all the pieces together.

``run_sizing_flow`` reproduces the paper's experimental procedure for one
circuit:

1. build (or accept) a circuit and a standard-cell library;
2. size it deterministically for minimum mean delay — the "original" design
   point of Table 1 / Fig. 1;
3. measure the original statistical performance with FULLSSTA (and
   optionally Monte Carlo);
4. run the StatisticalGreedy sizer at the requested lambda;
5. report the changes in mean, sigma, sigma/mu and area.

``quick_flow`` is the one-liner used in the README quickstart: it accepts a
benchmark name, builds the default library and variation model, and runs the
whole flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.circuits.registry import build_benchmark
from repro.core.baseline import BaselineResult, MeanDelaySizer
from repro.core.discrete_pdf import DiscretePDF
from repro.core.fullssta import FULLSSTA
from repro.core.rv import NormalDelay
from repro.core.sizer import SizerConfig, SizerResult, StatisticalGreedySizer
from repro.core.wnss import WNSSPath
from repro.library.cell import Library
from repro.library.delay_model import BaseDelayModel, LookupTableDelayModel
from repro.library.synthetic90nm import make_synthetic_90nm_library
from repro.montecarlo.mc import MonteCarloResult, MonteCarloTimer
from repro.netlist.circuit import Circuit
from repro.obs import METRICS, Tracer, activate, get_tracer, span, trace_payload
from repro.runner.errors import ensure_finite_moments
from repro.variation.model import VariationModel


@dataclass
class FlowResult:
    """Everything measured during one end-to-end sizing flow."""

    circuit: Circuit
    lam: float
    baseline: BaselineResult
    original_rv: NormalDelay
    original_area: float
    sizer_result: SizerResult
    final_rv: NormalDelay
    final_area: float
    mc_original: Optional[MonteCarloResult] = None
    mc_final: Optional[MonteCarloResult] = None
    #: Schema-1 trace payload of this flow (see :mod:`repro.obs.traceio`):
    #: a ``flow`` root span with one child per stage (baseline, analyses,
    #: sizer, MC), recorded even when global tracing is off.
    trace: Optional[Dict[str, Any]] = None
    #: Circuit-level output arrival pdfs of the original and final designs
    #: (the distributions yield numbers are computed from).
    original_output_pdf: Optional[DiscretePDF] = None
    final_output_pdf: Optional[DiscretePDF] = None
    #: WNSS trace of the *final* design, including the per-gate
    #: :class:`~repro.core.wnss.TraceDecision` records — how each
    #: dominance-vs-sensitivity choice was made is inspectable through the
    #: CLI (``size --explain-path``) and reports.
    final_wnss: Optional[WNSSPath] = None

    @property
    def total_runtime_seconds(self) -> float:
        """Wall-clock of the whole flow (baseline + analyses + sizer + MC).

        Derived from the trace's root ``flow`` span — the tracer is the
        single timing source.  The paper's Table-1 runtime column only
        counts the sizer itself (``sizer_result.runtime_seconds``), which
        hides the analysis/MC cost from sweep accounting.
        """
        if not self.trace:
            return 0.0
        roots = [
            s for s in self.trace.get("spans", []) if s.get("parent") is None
        ]
        return max(
            (float(s.get("duration_s", 0.0)) for s in roots), default=0.0
        )

    # -- Table 1 style metrics -------------------------------------------
    @property
    def original_cv(self) -> float:
        """sigma/mu of the mean-delay-optimized design (Table 1 "original")."""
        return self.original_rv.sigma / self.original_rv.mean if self.original_rv.mean else 0.0

    @property
    def final_cv(self) -> float:
        return self.final_rv.sigma / self.final_rv.mean if self.final_rv.mean else 0.0

    @property
    def mean_increase_pct(self) -> float:
        if self.original_rv.mean == 0:
            return 0.0
        return 100.0 * (self.final_rv.mean - self.original_rv.mean) / self.original_rv.mean

    @property
    def sigma_reduction_pct(self) -> float:
        if self.original_rv.sigma == 0:
            return 0.0
        return 100.0 * (self.original_rv.sigma - self.final_rv.sigma) / self.original_rv.sigma

    @property
    def area_increase_pct(self) -> float:
        if self.original_area == 0:
            return 0.0
        return 100.0 * (self.final_area - self.original_area) / self.original_area

    def yield_summary(self, target_yield: float) -> Dict[str, float]:
        """Fig. 1 style yield comparison of the original vs final design.

        Periods come from the exact discrete-pdf quantiles when the flow
        recorded output pdfs, falling back to the normal moments otherwise.
        """
        # Imported lazily: repro.analysis's package __init__ pulls in the
        # experiment runners, which import this module — a top-level import
        # would be circular.
        from repro.analysis.timing_yield import period_for_yield, timing_yield

        original = self.original_output_pdf or self.original_rv
        final = self.final_output_pdf or self.final_rv
        original_period = period_for_yield(original, target_yield)
        final_period = period_for_yield(final, target_yield)
        return {
            "target_yield": target_yield,
            "original_period": original_period,
            "final_period": final_period,
            "period_reduction_pct": (
                100.0 * (original_period - final_period) / original_period
                if original_period
                else 0.0
            ),
            "original_yield_at_final_period": timing_yield(original, final_period),
            "final_yield_at_final_period": timing_yield(final, final_period),
        }

    def as_table1_row(self) -> Dict[str, float]:
        """The quantities the paper reports per circuit and lambda."""
        return {
            "gates": float(self.circuit.num_gates()),
            "original_cv": self.original_cv,
            "mean_increase_pct": self.mean_increase_pct,
            "sigma_reduction_pct": -self.sigma_reduction_pct,  # paper reports negative deltas
            "final_cv": self.final_cv,
            "area_increase_pct": self.area_increase_pct,
            "runtime_seconds": self.sizer_result.runtime_seconds,
        }


def run_sizing_flow(
    circuit: Circuit,
    lam: float = 3.0,
    library: Optional[Library] = None,
    delay_model: Optional[BaseDelayModel] = None,
    variation_model: Optional[VariationModel] = None,
    sizer_config: Optional[SizerConfig] = None,
    run_baseline: bool = True,
    monte_carlo_samples: int = 0,
    seed: Optional[int] = 0,
    preflight: bool = True,
) -> FlowResult:
    """Run the full paper flow on ``circuit`` (sized in place).

    Parameters
    ----------
    circuit:
        The technology-mapped circuit to optimize.
    lam:
        The Eq. 7 weight trading sigma against mean (paper uses 3 and 9).
    library / delay_model / variation_model:
        Substrates; defaults are the synthetic 90 nm library, its LUT delay
        model and the default variation model.
    sizer_config:
        Full sizer configuration; when given, its ``lam`` takes precedence.
    run_baseline:
        Size for minimum mean delay first (the paper's starting point).
    monte_carlo_samples:
        When positive, validate the original and final designs with this
        many Monte-Carlo samples.
    preflight:
        Lint the circuit against the DRC catalogue before any analysis
        (see :mod:`repro.verify.preflight`); ERROR diagnostics raise
        :class:`~repro.runner.errors.DeterministicError` up front instead
        of surfacing as mid-flow engine failures.
    """
    # The flow always records its own span tree — FlowResult.trace feeds
    # the runtime properties and the trace artifacts.  When a tracer is
    # already active (e.g. inside a sweep cell) its spans land there too,
    # so the cell trace sees the flow stages without double bookkeeping.
    current = get_tracer()
    local = current if current.enabled else Tracer(enabled=True)
    mark = local.mark()
    with activate(local):
        with local.span(
            "flow",
            circuit=circuit.name,
            lam=(sizer_config.lam if sizer_config is not None else lam),
        ):
            result = _run_flow_stages(
                circuit,
                lam=lam,
                library=library,
                delay_model=delay_model,
                variation_model=variation_model,
                sizer_config=sizer_config,
                run_baseline=run_baseline,
                monte_carlo_samples=monte_carlo_samples,
                seed=seed,
                preflight=preflight,
            )
    result.trace = trace_payload(
        f"flow {circuit.name}",
        local.records_since(mark),
        metrics=METRICS.snapshot(),
    )
    return result


def _run_flow_stages(
    circuit: Circuit,
    lam: float,
    library: Optional[Library],
    delay_model: Optional[BaseDelayModel],
    variation_model: Optional[VariationModel],
    sizer_config: Optional[SizerConfig],
    run_baseline: bool,
    monte_carlo_samples: int,
    seed: Optional[int],
    preflight: bool,
) -> FlowResult:
    with span("flow.setup"):
        if library is None and delay_model is None:
            library = make_synthetic_90nm_library()
        if delay_model is None:
            delay_model = LookupTableDelayModel(library)
        variation_model = variation_model or VariationModel()
        config = sizer_config or SizerConfig(lam=lam)

    if preflight:
        with span("flow.preflight"):
            # Imported lazily: repro.verify is a leaf consumer of the netlist
            # and library layers, and flow is imported by nearly everything.
            from repro.verify.preflight import preflight_circuit

            preflight_circuit(circuit, library=library or delay_model.library)

    baseline_sizer = MeanDelaySizer(delay_model)
    if run_baseline:
        baseline = baseline_sizer.optimize(circuit)
    else:
        from repro.sta.dsta import DeterministicSTA

        nominal = DeterministicSTA(delay_model).max_delay(circuit)
        baseline = BaselineResult(
            circuit=circuit,
            initial_delay=nominal,
            final_delay=nominal,
            initial_area=delay_model.circuit_area(circuit),
            final_area=delay_model.circuit_area(circuit),
            passes=0,
            runtime_seconds=0.0,
        )

    fullssta = FULLSSTA(delay_model, variation_model, num_samples=config.pdf_samples)
    with span("flow.analyze_original"):
        original_full = fullssta.analyze(circuit)
        original_rv = original_full.output_rv
        original_area = delay_model.circuit_area(circuit)
        # Fail loudly on numerically-poisoned analyses: a NaN here would
        # otherwise flow silently into every downstream metric and artifact.
        ensure_finite_moments(
            original_rv.mean, original_rv.sigma,
            context=f"{circuit.name}: original FULLSSTA", area=original_area,
        )

    mc_original = None
    if monte_carlo_samples > 0:
        mc_original = MonteCarloTimer(delay_model, variation_model).run(
            circuit, num_samples=monte_carlo_samples, seed=seed
        )

    sizer = StatisticalGreedySizer(delay_model, variation_model, config)
    sizer_result = sizer.optimize(circuit)

    with span("flow.analyze_final"):
        final_full = fullssta.analyze(circuit)
        final_rv = final_full.output_rv
        final_area = delay_model.circuit_area(circuit)
        ensure_finite_moments(
            final_rv.mean, final_rv.sigma,
            context=f"{circuit.name}: final FULLSSTA", area=final_area,
        )

    # Trace the final design's WNSS path with the sizer's own tracer so the
    # recorded TraceDecisions use the exact lambda/coupling the run used.
    with span("flow.wnss_trace"):
        final_wnss = sizer.tracer.trace(circuit, final_full.arrival_moments)

    mc_final = None
    if monte_carlo_samples > 0:
        mc_final = MonteCarloTimer(delay_model, variation_model).run(
            circuit, num_samples=monte_carlo_samples, seed=seed
        )

    return FlowResult(
        circuit=circuit,
        lam=config.lam,
        baseline=baseline,
        original_rv=original_rv,
        original_area=original_area,
        sizer_result=sizer_result,
        final_rv=final_rv,
        final_area=final_area,
        mc_original=mc_original,
        mc_final=mc_final,
        original_output_pdf=original_full.output_pdf,
        final_output_pdf=final_full.output_pdf,
        final_wnss=final_wnss,
    )


def quick_flow(
    benchmark: str = "c17",
    lam: float = 3.0,
    seed: Optional[int] = 0,
    monte_carlo_samples: int = 0,
    sizer_config: Optional[SizerConfig] = None,
) -> FlowResult:
    """Build a named benchmark and run :func:`run_sizing_flow` with defaults."""
    circuit = build_benchmark(benchmark)
    return run_sizing_flow(
        circuit,
        lam=lam,
        sizer_config=sizer_config,
        monte_carlo_samples=monte_carlo_samples,
        seed=seed,
    )
