"""Yield-mode benchmark: levelized discrete-PDF engine + yield-targeted sizing.

Two sections:

* **engine** — the gate-by-gate reference walk of ``tests/reference.py``
  vs levelized FULLSSTA wall-clock on registry circuits.  Both perform the
  same canonicalize/compact arithmetic, so the benchmark asserts their
  output moments agree to 1e-9 and reports the speedup;
* **sizer** — ``SizerConfig(objective="yield")`` against the paper's
  weighted-cost sizer from the same mean-delay baseline.  The comparison
  metric is the acceptance criterion of the yield mode: the yield-sized
  circuit's parametric timing yield at its own target period must be at
  least the cost-sized circuit's.

Run directly::

    PYTHONPATH=src python benchmarks/bench_yield.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_yield.py           # larger circuits

The report is written to ``benchmarks/results/yield.txt``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Tuple

# Allow running as a plain script from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.analysis.timing_yield import period_for_yield, timing_yield  # noqa: E402
from repro.circuits.registry import build_benchmark  # noqa: E402
from repro.core.baseline import MeanDelaySizer  # noqa: E402
from repro.core.fullssta import FULLSSTA  # noqa: E402
from repro.core.sizer import SizerConfig, StatisticalGreedySizer  # noqa: E402
from repro.library.delay_model import LookupTableDelayModel  # noqa: E402
from repro.library.synthetic90nm import make_synthetic_90nm_library  # noqa: E402
from repro.obs import clock  # noqa: E402
from repro.variation.model import VariationModel  # noqa: E402
from tests.reference import ReferenceFULLSSTA  # noqa: E402

#: Engine-comparison circuits (full / CI smoke).
FULL_ENGINE_CIRCUITS = ["c880", "c2670", "c6288"]
QUICK_ENGINE_CIRCUITS = ["c432"]

#: Sizer-comparison circuit: the yield objective's discrete-pdf quantile
#: pays off on c432's wide, many-output priority-controller structure.
SIZER_CIRCUIT = "c432"

MOMENT_TOLERANCE = 1e-9
TARGET_YIELD = 0.99


def _substrates():
    library = make_synthetic_90nm_library()
    return LookupTableDelayModel(library), VariationModel()


def _bench_engines(circuits: List[str], delay_model, variation_model) -> Tuple[List[str], bool]:
    lines = [
        "Reference walk vs levelized FULLSSTA (discrete-pdf propagation)",
        f"(moment tolerance {MOMENT_TOLERANCE:g})",
        "",
        f"{'circuit':8s} {'gates':>6s} {'ref (ms)':>12s} {'level (ms)':>12s} "
        f"{'speedup':>8s} {'moment err':>11s}",
    ]
    ok = True
    rounds = 3
    for name in circuits:
        circuit = build_benchmark(name)
        scalar = ReferenceFULLSSTA(delay_model, variation_model)
        levelized = FULLSSTA(delay_model, variation_model)
        scalar.analyze(circuit)
        levelized.analyze(circuit)  # warm the levelized plan
        start = clock()
        for _ in range(rounds):
            ref = scalar.analyze(circuit)
        t_scalar = (clock() - start) / rounds
        start = clock()
        for _ in range(rounds):
            vec = levelized.analyze(circuit)
        t_vector = (clock() - start) / rounds
        err = max(abs(ref.mean - vec.mean), abs(ref.sigma - vec.sigma))
        matched = err <= MOMENT_TOLERANCE
        ok = ok and matched
        lines.append(
            f"{name:8s} {circuit.num_gates():6d} {t_scalar * 1e3:12.1f} "
            f"{t_vector * 1e3:12.1f} {t_scalar / max(t_vector, 1e-12):7.2f}x "
            f"{err:11.2e}" + ("" if matched else "  << MOMENT MISMATCH")
        )
    return lines, ok


def _bench_sizer(
    delay_model, variation_model, max_iterations: int
) -> Tuple[List[str], bool]:
    referee = FULLSSTA(delay_model, variation_model, num_samples=31)

    def sized(config: SizerConfig):
        circuit = build_benchmark(SIZER_CIRCUIT)
        MeanDelaySizer(delay_model).optimize(circuit)
        start = clock()
        StatisticalGreedySizer(delay_model, variation_model, config).optimize(circuit)
        runtime = clock() - start
        return referee.analyze(circuit).output_pdf, runtime

    yield_pdf, t_yield = sized(
        SizerConfig(objective="yield", target_yield=TARGET_YIELD,
                    max_iterations=max_iterations)
    )
    cost_pdf, t_cost = sized(SizerConfig(lam=3.0, max_iterations=max_iterations))

    target_period = period_for_yield(yield_pdf, TARGET_YIELD)
    yield_at_target = timing_yield(yield_pdf, target_period)
    cost_at_target = timing_yield(cost_pdf, target_period)
    ok = yield_at_target >= cost_at_target - 1e-12
    lines = [
        f"Yield-objective vs weighted-cost sizer on {SIZER_CIRCUIT} "
        f"(target yield {TARGET_YIELD:g}, {max_iterations} pass cap)",
        "",
        f"  yield-sized : period@{100 * TARGET_YIELD:g}% "
        f"{target_period:8.1f} ps   runtime {t_yield:6.1f} s",
        f"  cost-sized  : period@{100 * TARGET_YIELD:g}% "
        f"{period_for_yield(cost_pdf, TARGET_YIELD):8.1f} ps   "
        f"runtime {t_cost:6.1f} s   (lambda = 3)",
        f"  yield at the yield-sized target period ({target_period:.1f} ps): "
        f"yield-sized {100 * yield_at_target:.2f} %  vs  "
        f"cost-sized {100 * cost_at_target:.2f} %"
        + ("" if ok else "  << YIELD REGRESSION"),
    ]
    return lines, ok


def run(engine_circuits: List[str], max_iterations: int) -> Tuple[str, bool]:
    """Run the benchmark; returns (report text, all-checks-passed)."""
    delay_model, variation_model = _substrates()
    engine_lines, engines_ok = _bench_engines(
        engine_circuits, delay_model, variation_model
    )
    sizer_lines, sizer_ok = _bench_sizer(delay_model, variation_model, max_iterations)
    return "\n".join(engine_lines + [""] + sizer_lines), engines_ok and sizer_ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small circuits, capped sizer budget",
    )
    parser.add_argument(
        "--circuits",
        default=None,
        help="comma-separated engine-comparison circuits (overrides the mode default)",
    )
    parser.add_argument(
        "--max-iterations",
        type=int,
        default=None,
        help="outer-loop pass cap for both sizers (default: 12 quick / 60 full)",
    )
    args = parser.parse_args(argv)

    circuits = (
        [name.strip() for name in args.circuits.split(",") if name.strip()]
        if args.circuits
        else (QUICK_ENGINE_CIRCUITS if args.quick else FULL_ENGINE_CIRCUITS)
    )
    max_iterations = (
        args.max_iterations
        if args.max_iterations is not None
        else (12 if args.quick else 60)
    )

    report, ok = run(circuits, max_iterations)
    print(report)

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "yield.txt").write_text(report + "\n")

    if not ok:
        print("FAILED: levelized engine diverged or the yield objective lost "
              "to the weighted-cost sizer", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
