"""Compare two sets of benchmark runs, one row per (workload, metric).

Each set is a directory of files, one per run of ``run.py``, holding that
run's standard output (the last line is its result JSON), or a baseline
file written by ``--record``.  The workload is the file name up to the
first dot, e.g. ``fig-cell.3.json``::

    for i in 1 2 3 4 5; do
      for w in fig-cell steady-stream geo-sharded grid-features; do
        (cd parent && python3 benchmarks/e2e/run.py --workload $w) > runs/parent/$w.$i.json
        (cd change && python3 benchmarks/e2e/run.py --workload $w) > runs/change/$w.$i.json
      done
    done
    python3 benchmarks/e2e/compare.py runs/parent runs/change

Runs are paired in file-name order.  Each row shows both sides' median and
quartiles, their spread (interquartile range over the median), the share of
pairs the change won (ties count for neither) and a verdict against the
metric's bound in ``BENCHMARK.json``:

* ``unresolved`` -- the parent's spread is wider than the bound, and not
  every change run beats every parent run;
* ``worse`` -- the change's median is worse than the parent's by more than
  the bound;
* ``better`` -- the change won at least 90% of the pairs and its median is
  better by more than the parent's interquartile range;
* ``unchanged`` -- anything else.

Exits 1 when any row is ``worse`` or any run failed a check.

``--record OUT DIR --commit SHA`` instead writes the runs of ``DIR`` as a
baseline file (every value, plus median and quartiles per workload and
metric), which later comparisons can take as the parent side::

    python3 benchmarks/e2e/compare.py benchmarks/e2e/baseline.json runs/change
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(source: Path) -> Tuple[Dict[str, List[dict]], int]:
    """``({workload: [result, ...]}, failed runs)`` from a run directory or baseline."""
    if source.is_file():
        recorded = json.loads(source.read_text())
        runs = {
            workload: [
                {"metrics": {name: {"value": s["values"][i]} for name, s in metrics.items()}}
                for i in range(len(next(iter(metrics.values()))["values"]))
            ]
            for workload, metrics in recorded["workloads"].items()
        }
        return runs, 0
    runs: Dict[str, List[dict]] = {}
    failed = 0
    for path in sorted(source.glob("*.json")):
        lines = path.read_text().strip().splitlines()
        if not lines:
            raise SystemExit(f"{path}: empty run output")
        result = json.loads(lines[-1])
        failed += not result["correct"] or result["failed"] > 0
        runs.setdefault(path.name.split(".", 1)[0], []).append(result)
    return runs, failed


def record(out: Path, source: Path, commit: str) -> int:
    """Write the runs of ``source`` as a baseline file."""
    runs, failed = load_runs(source)
    if failed:
        raise SystemExit(f"{source}: {failed} run(s) failed a check; not recording")
    workloads = {}
    for workload, results in sorted(runs.items()):
        workloads[workload] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = quartiles(values)
            workloads[workload][name] = {"median": median, "q1": q1, "q3": q3, "values": values}
    baseline = {"commit": commit, "nproc": os.cpu_count(), "workloads": workloads}
    out.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; the value itself, three times, for a single run."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    base: List[float], change: List[float], bound: float, higher: bool
) -> Tuple[str, float]:
    """``(verdict, share of pairs won)`` for one metric."""
    sign = 1.0 if higher else -1.0
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) > 0 for b, c in pairs) / len(pairs)
    b1, b_med, b3 = quartiles(base)
    _, c_med, _ = quartiles(change)
    gain = sign * (c_med - b_med)
    every_run_better = min(sign * c for c in change) > max(sign * b for b in base)
    if b_med and (b3 - b1) / abs(b_med) > bound and not every_run_better:
        return "unresolved", wins
    if -gain > bound * abs(b_med):
        return "worse", wins
    if wins >= 0.9 and gain > (b3 - b1):
        return "better", wins
    return "unchanged", wins


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's runs (directory or baseline)")
    parser.add_argument("change", type=Path, nargs="?", help="the change's runs")
    parser.add_argument("--record", type=Path, metavar="OUT", help="write PARENT as a baseline")
    parser.add_argument("--commit", default="unknown", help="commit the recorded runs measured")
    args = parser.parse_args(argv)
    if args.record:
        return record(args.record, args.parent, args.commit)
    if args.change is None:
        parser.error("give the change's runs, or --record")

    bench = json.loads(BENCHMARK.read_text())
    base_runs, base_failed = load_runs(args.parent)
    change_runs, change_failed = load_runs(args.change)
    print(
        "| workload | metric | parent median [q1, q3] | spread | change median [q1, q3] "
        "| spread | won | verdict |"
    )
    print("|---|---|---|---|---|---|---|---|")
    worse = 0
    for workload in sorted(set(base_runs) & set(change_runs)):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in base_runs[workload]]
            change = [r["metrics"][name]["value"] for r in change_runs[workload]]
            result, wins = verdict(base, change, metric["bound"], metric["better"] == "higher")
            worse += result == "worse"
            b1, bm, b3 = quartiles(base)
            c1, cm, c3 = quartiles(change)
            print(
                f"| {workload} | {name} ({metric['unit']}) "
                f"| {bm:.6g} [{b1:.6g}, {b3:.6g}] | {spread(base):.3f} "
                f"| {cm:.6g} [{c1:.6g}, {c3:.6g}] | {spread(change):.3f} "
                f"| {wins:.0%} | {result} |"
            )
    print(
        f"\nruns: parent {sum(map(len, base_runs.values()))} ({base_failed} failed), "
        f"change {sum(map(len, change_runs.values()))} ({change_failed} failed)"
    )
    return 1 if worse or base_failed or change_failed else 0


if __name__ == "__main__":
    sys.exit(main())
