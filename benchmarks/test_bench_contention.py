"""Benchmark — multi-resource worker model (PR 7 tentpole gate).

Two halves, mirroring the shard benchmark's correctness/speed split:

* **Overhead:** the three-resource stage machine (residency + transfer
  channel + egress) and the legacy compute-only worker both complete the
  same flash-crowd cell.  The stage machine's event-loop throughput (events
  fired per wall-clock second) relative to the legacy worker is reported as
  a ``gated_*`` metric, which ``benchmarks/compare.py`` gates across runs; a
  single-shot wall-clock ratio is too noisy to assert here.  The resourced
  run fires *more* events (transfer completions, egress deliveries), so
  events/sec is the fair unit.

* **Planning claims:** :func:`repro.experiments.studies.run_study`
  re-runs the contention experiment at bench scale and asserts both paper
  claims: reload-aware plans Pareto-dominate reload-oblivious plans on the
  SLO plane under flash-crowd replanning when checkpoints cannot co-reside,
  and co-placement pinning neutralizes reload costs when they can.
"""

import time

from repro.core.config import FleetSpec, ResourceConfig
from repro.baselines.registry import build_system
from repro.core.system import ClientSource
from repro.experiments.studies import STUDIES, run_study
from repro.workloads import make_workload

#: Cell the overhead measurement times (matches the contention experiment shape).
N_WORKERS = 8
QPS = 9.6
DURATION = 60.0


def _events_per_second(resources):
    """Events fired per wall second for one flash-crowd run."""
    system = build_system(
        "sdturbo",
        fleet=FleetSpec.homogeneous(N_WORKERS),
        dataset_size=300,
        seed=0,
        replan_epoch=3.0,
        replan_policy="adaptive",
        resources=resources,
    )
    workload = make_workload("flash-crowd", qps=QPS, duration=DURATION, seed=0)
    runtime = system.prepare()
    ClientSource(runtime.sim, workload, system.dataset, runtime.load_balancer, system.config.slo)
    horizon = system.horizon(workload)
    start = time.perf_counter()
    runtime.sim.run(until=horizon)
    elapsed = time.perf_counter() - start
    summary = runtime.result(horizon).summary()
    return runtime.sim.events_fired / elapsed, summary


def test_bench_contention(benchmark):
    legacy_eps, legacy_summary = _events_per_second(None)
    resourced = {}

    def resourced_run():
        resourced["eps"], resourced["summary"] = _events_per_second(ResourceConfig.default())
        return resourced["summary"]

    benchmark(resourced_run)

    assert legacy_summary["completed"] > 0 and resourced["summary"]["completed"] > 0

    slowdown = legacy_eps / resourced["eps"] if resourced["eps"] else float("inf")
    benchmark.extra_info["legacy_events_per_sec"] = round(legacy_eps, 1)
    benchmark.extra_info["resourced_events_per_sec"] = round(resourced["eps"], 1)
    # compare.py gates `gated_*` higher-is-better: report the throughput
    # ratio (resourced/legacy), not the slowdown.
    benchmark.extra_info["gated_stage_machine_throughput_ratio"] = round(1.0 / slowdown, 3)

    # Planning claims at bench scale (cached by the runner on repeats).
    result = run_study(STUDIES["contention"])
    contended = result.summary("contended", "aware")
    oblivious = result.summary("contended", "oblivious")
    benchmark.extra_info["aware_slo_violation"] = round(contended["slo_violation_ratio"], 4)
    benchmark.extra_info["oblivious_slo_violation"] = round(oblivious["slo_violation_ratio"], 4)
    assert result.holds("reload-aware"), (
        "reload-aware plan fails to dominate: "
        f"aware (viol={contended['slo_violation_ratio']:.4f}, "
        f"p99={contended['p99_latency']:.3f}) vs "
        f"oblivious (viol={oblivious['slo_violation_ratio']:.4f}, "
        f"p99={oblivious['p99_latency']:.3f})"
    )
    assert result.holds("co-placement"), (
        "co-placement pinning no longer neutralizes reloads in the co-fit scenario"
    )
