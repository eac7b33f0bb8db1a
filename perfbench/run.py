"""Benchmark command: one workload, timed end to end or layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload flow-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload flow-ladder --seed 1 --seconds 30 --trace 1

``--trace 0`` measures with no instrumentation installed and reports the
end-to-end metrics (``setup_s``, ``wall_s``, ``peak_rss_mb``).  ``--trace 1``
runs a warm-up pass, then ``TRACE_PAIRS`` pairs of one pass with the layer
timers of ``layers.py`` installed and one untraced pass, and reports the
per-layer metrics (medians over the traced passes), including the tracing
overhead (median over the pairs).  Both modes check every output against
``reference.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command exits
with code 1 when any operation or check failed, and with code 2 when the
repository's sources cannot be imported.
"""

from __future__ import annotations

import time

# Process start, before any import is paid for.  This is the same clock as
# repro.obs.clock, which cannot be imported yet: the imports are part of
# the set-up being timed.
PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
#: Minimum set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Traced/untraced pass pairs of a traced run.  The order alternates from
#: pair to pair, so a steady drift of the machine's speed favours neither.
TRACE_PAIRS = 3
#: Imports happen once per process, so set-up repeats them in fresh
#: interpreters; this program prints its own import time.
IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "import repro.cli, layers, workloads\n"
    "print(time.perf_counter() - start)\n"
)

#: (name, unit, better) of the end-to-end metrics.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
#: Table-1 and accuracy figures: printed on every run of the workloads
#: that produce them, and pinned through the correctness checks.
QUALITY: Tuple[Tuple[str, str, str], ...] = (
    ("sigma_reduction_pct", "%", "higher"),
    ("area_increase_pct", "%", "lower"),
    ("mean_increase_pct", "%", "lower"),
    ("period_reduction_pct", "%", "higher"),
    ("p99_err_pct", "%", "lower"),
    ("fassta_sigma_err_pct", "%", "lower"),
)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def thread_environment() -> Dict[str, Any]:
    """The inherited threading set-up, recorded and never changed."""
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "num_threads_env": {
            key: value for key, value in sorted(os.environ.items())
            if key.endswith("_NUM_THREADS")
        },
        "repro_env": {
            key: value for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")
        },
    }


def import_seconds(own: float) -> float:
    """Median import time: this process's and ``SETUP_REPEATS - 1`` fresh
    interpreters'."""
    samples = [own]
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(BENCH_DIR)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Larger of this process's and its largest waited-for child's peak RSS."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def print_metric(name: str, value: float, unit: str, better: str) -> None:
    print(f"metric {name} = {value!r} {unit} ({better} is better)")


def print_ops(ops: List[Any], label: str) -> None:
    """One line per operation: its time and its METRICS counter deltas."""
    for op in ops:
        counters = {
            name: value for name, value in sorted(op.delta["counters"].items())
            if not name.startswith("bench.")
        }
        status = "ok" if op.ok else "FAILED"
        print(f"op [{label}] {op.name}: {op.seconds:.3f} s {status} "
              f"{json.dumps(counters, sort_keys=True)}")


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        from layers import (
            METRIC_NAME,
            PER_LAYER,
            LayerTimer,
            empty_delta,
            layer_metrics,
            merge_delta,
        )
        from repro.obs import clock
        from workloads import WORKLOADS, Recorder, make_workload
    except ImportError as exc:
        print(f"perfbench: cannot import the benchmark's modules: {exc}",
              file=sys.stderr)
        return 2
    import_s = clock() - PROCESS_START

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    print("env " + json.dumps(thread_environment(), sort_keys=True))
    reference = json.loads(REFERENCE.read_text())[args.workload]
    work_dir = ROOT / ".perfbench-work" / str(os.getpid())
    workload = make_workload(args.workload, work_dir)
    rec = Recorder()
    setup_samples: List[float] = []

    def prepare() -> Any:
        start = clock()
        inputs = rec.op("prepare", lambda: workload.prepare(args.seed))
        setup_samples.append(clock() - start)
        if inputs is None:
            raise RuntimeError("set-up failed")
        return inputs

    def one_pass() -> Tuple[float, Any]:
        inputs = prepare()
        start = clock()
        outputs = workload.run(inputs, rec)
        wall = clock() - start
        workload.check(outputs, reference, args.seed, rec)
        return wall, outputs

    metrics: Dict[str, Dict[str, Any]] = {}
    try:
        if args.trace == 0:
            while len(setup_samples) < SETUP_REPEATS - 1:
                prepare()
            walls: List[float] = []
            measure_start = clock()
            while True:
                outputs = None  # free the last pass's outputs before the next
                wall, outputs = one_pass()
                walls.append(wall)
                elapsed = clock() - measure_start
                if elapsed + statistics.median(walls) > args.seconds:
                    break
            print_ops(rec.ops, "untraced")
            print(f"passes {len(walls)}: wall_s " + " ".join(f"{w:.3f}" for w in walls))
            # Read before the import probes run: they are children too, but
            # not part of the workload.
            rss_mb = peak_rss_mb()
            values = {
                "setup_s": import_seconds(import_s) + statistics.median(setup_samples),
                "wall_s": statistics.median(walls),
                "peak_rss_mb": rss_mb,
            }
            reported = END_TO_END
            quality = workload.quality(outputs)
        else:
            # Warm-up pass: first-use costs land here, so every compared
            # pass runs warm.
            one_pass()
            print_ops(rec.ops, "warm-up")
            timer = LayerTimer()
            traced_values: List[Dict[str, float]] = []
            ratios: List[float] = []
            quality = {}
            for pair in range(TRACE_PAIRS):
                walls_by_mode: Dict[bool, float] = {}
                for traced in (pair % 2 == 0, pair % 2 == 1):
                    first_op = len(rec.ops)
                    if not traced:
                        walls_by_mode[traced] = one_pass()[0]
                        print_ops(rec.ops[first_op:], "untraced")
                        continue
                    timer.install()
                    try:
                        walls_by_mode[traced], outputs = one_pass()
                    finally:
                        timer.restore()
                    leftovers = timer.leftovers()
                    rec.check("layer timers removed", not leftovers, ", ".join(leftovers))
                    print_ops(rec.ops[first_op:], "traced")
                    delta = empty_delta()
                    for op in rec.ops[first_op:]:
                        merge_delta(delta, op.delta)
                    traced_values.append(layer_metrics(delta))
                    quality = quality or workload.quality(outputs)
                    outputs = None
                ratios.append(walls_by_mode[True] / walls_by_mode[False])
            print(f"pairs {len(ratios)}: traced/untraced "
                  + " ".join(f"{r:.4f}" for r in ratios))
            values = {
                name: statistics.median(v[name] for v in traced_values)
                for name in traced_values[0]
            }
            values["obs.tracing_overhead_pct"] = (
                100.0 * (statistics.median(ratios) - 1.0)
            )
            reported = PER_LAYER
        for name, unit, better in reported:
            print_metric(name, values[name], unit, better)
            metrics[name] = metric(values[name], unit)
        for name, unit, better in QUALITY:
            if name in quality:
                print_metric(name, quality[name], unit, better)
            if args.trace == 1:
                metrics[name] = metric(quality.get(name, 0.0), unit)
        bad_names = [name for name in metrics if not METRIC_NAME.fullmatch(name)]
        rec.check("metric names", not bad_names, ", ".join(bad_names))
        print(f"fail_rate = {rec.failed / rec.attempted!r} "
              f"({rec.failed} of {rec.attempted} operations and checks)")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    correct = rec.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
