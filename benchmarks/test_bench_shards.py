"""Benchmark — sharded geo-scale serving throughput (PR 6 tentpole gate).

Serves the ``global-8`` topology (8 regions x 8 devices) through the shard
supervisor twice — ``shards=1`` (every region inline in one process) and
``shards=4`` (regions packed round-robin into four worker processes) — and
checks both halves of the tentpole contract:

* **Correctness, always:** the two runs' summaries are byte-identical
  (``shards`` is a pure wall-clock knob).
* **Speed, at scale:** with >= 4 CPUs and a large enough trace the 4-shard
  run is at least :data:`SPEEDUP_FLOOR` times faster than the inline run.

``REPRO_SHARD_BENCH_QUERIES`` sizes the trace: the default keeps the smoke
suite affordable, CI's dedicated step runs 400k, and the nightly workflow
runs the full 1M-query cell.  The speedup gate only arms above
:data:`GATE_MIN_QUERIES` — below that, the fixed per-run cost of starting
and closing shard processes and of the epoch barriers dominates and the
measurement is noise, so it is reported but not asserted.
"""

import os
import time

from repro.core.config import FleetSpec
from repro.core.sharding import ShardSupervisor
from repro.baselines.registry import build_system
from repro.runner.dimensions import DIMENSIONS
from repro.runner.executor import canonical_summaries_json
from repro.workloads import make_workload

#: Queries injected across the topology (trace duration scales with this).
#: The default keeps plain `pytest` affordable; CI's dedicated bench step
#: runs 400k and the nightly workflow 1M.
N_QUERIES = int(os.environ.get("REPRO_SHARD_BENCH_QUERIES", "20000"))
#: Aggregate arrival rate across all 8 regions (moderate overload).
QPS = 240.0
#: Below this trace size, fixed per-run costs dominate: report, don't gate.
GATE_MIN_QUERIES = 200_000
#: Minimum accepted 4-shard speedup at gated scale (acceptance criterion).
SPEEDUP_FLOOR = 2.5


def _run(shards: int):
    """One full sharded run; returns (summary, wall seconds, supervisor)."""
    template = build_system(fleet=FleetSpec.homogeneous(8), dataset_size=300, seed=0)
    workload = make_workload("static", duration=N_QUERIES / QPS, qps=QPS, seed=0)
    supervisor = ShardSupervisor(
        template=template, topology=DIMENSIONS["geo"].lookup("global-8"), shards=shards
    )
    start = time.perf_counter()
    result = supervisor.run(workload)
    elapsed = time.perf_counter() - start
    return result.summary(), elapsed, supervisor


def test_bench_sharded_geo_throughput(benchmark):
    serial_summary, serial_s, _ = _run(shards=1)
    sharded: dict = {}

    def sharded_run():
        sharded["summary"], sharded["elapsed"], sharded["supervisor"] = _run(shards=4)
        return sharded["summary"]

    benchmark(sharded_run)

    # Correctness half of the contract: byte-identical at any scale.
    assert canonical_summaries_json({"s": sharded["summary"]}) == canonical_summaries_json(
        {"s": serial_summary}
    )
    assert serial_summary["total_queries"] >= N_QUERIES * 0.95
    # The router actually exercised the topology (multi-region + spills).
    assert len(sharded["supervisor"].region_results) == 8

    speedup = serial_s / sharded["elapsed"] if sharded["elapsed"] else float("inf")
    benchmark.extra_info["queries"] = int(serial_summary["total_queries"])
    benchmark.extra_info["serial_s"] = round(serial_s, 3)
    benchmark.extra_info["sharded_s"] = round(sharded["elapsed"], 3)
    gate_armed = (os.cpu_count() or 1) >= 4 and N_QUERIES >= GATE_MIN_QUERIES
    if gate_armed:
        benchmark.extra_info["gated_speedup_x4"] = round(speedup, 3)
        benchmark.extra_info["gated_queries_per_sec"] = round(
            serial_summary["total_queries"] / sharded["elapsed"], 1
        )
        assert speedup >= SPEEDUP_FLOOR, (
            f"4-shard speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor "
            f"({serial_s:.1f}s serial vs {sharded['elapsed']:.1f}s sharded)"
        )
    else:
        benchmark.extra_info["speedup_ungated"] = round(speedup, 3)
