"""Re-record ``reference.json``: the outputs the benchmark checks against.

Run from the repository root, on an idle machine, only when a change is
meant to alter the recorded results (and say so in its description)::

    python3 perfbench/record.py                          # every workload
    python3 perfbench/record.py --workload flow-ladder   # one workload

Records the Table-1 rows and final size vectors of ``flow-ladder``, the
FASSTA/FULLSSTA output moments of ``analysis-large`` (the two ISCAS
circuits and every generated-circuit variant) and the cell rows of
``sweep-mixed``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from workloads import AnalysisLarge, Recorder, make_workload, WORKLOADS  # noqa: E402


WORK_DIR = ROOT / ".perfbench-work" / "record"


def record(name: str) -> dict:
    workload = make_workload(name, WORK_DIR)
    seeds = range(AnalysisLarge.gen_variants) if name == AnalysisLarge.name else [0]
    recorded: dict = {}
    for seed in seeds:
        rec = Recorder()
        outputs = workload.run(rec.op("prepare", lambda: workload.prepare(seed)), rec)
        if rec.failed:
            raise SystemExit(f"{name}: {rec.failed} operation(s) failed; nothing recorded")
        recorded.update(workload.record(outputs, seed))
        print(f"{name} seed {seed}: recorded {len(recorded)} entries", flush=True)
    return recorded


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="re-record only this workload (repeatable)")
    args = parser.parse_args()
    path = BENCH_DIR / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    try:
        for name in args.workload or WORKLOADS:
            reference[name] = record(name)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        try:
            WORK_DIR.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
