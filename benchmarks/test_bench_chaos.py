"""Benchmark — fault injection & self-healing recovery (PR 8 tentpole gate).

Two halves, mirroring the contention benchmark's correctness/speed split:

* **Overhead:** arming the recovery machinery on a *quiet* fault plan
  (heartbeat detector, retry hooks, plan store — but zero injected faults)
  must leave the ``faults=None`` summary unchanged.  Its event-loop
  throughput (events fired per wall-clock second) relative to the
  ``faults=None`` path is reported as a ``gated_*`` metric, which
  ``benchmarks/compare.py`` gates across runs; a single-shot wall-clock
  ratio is too noisy to assert here.  The quiet run fires extra heartbeat
  events, so events/sec is the fair unit.

* **Recovery claims:** :func:`repro.experiments.studies.run_study` re-runs the
  chaos study at bench scale and asserts both acceptance criteria: under the
  crash+straggler storm the recovery arm Pareto-dominates the unmitigated
  arm on (SLO violation ratio, p99 latency), and the unmitigated arm still
  degrades gracefully (completes work, accounts losses as drops) rather than
  falling over.
"""

import time

from repro.core.config import FleetSpec
from repro.baselines.registry import build_system
from repro.core.system import ClientSource
from repro.experiments.studies import STUDIES, run_study
from repro.runner.dimensions import DIMENSIONS
from repro.workloads import make_workload

#: Cell the overhead measurement times (matches the chaos experiment shape).
N_WORKERS = 8
QPS = 9.6
DURATION = 60.0


def _events_per_second(faults):
    """Events fired per wall second for one flash-crowd run."""
    system = build_system(
        "sdturbo",
        fleet=FleetSpec.homogeneous(N_WORKERS),
        dataset_size=300,
        seed=0,
        replan_epoch=3.0,
        replan_policy="adaptive",
        faults=faults,
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


def test_bench_chaos(benchmark):
    legacy_eps, legacy_summary = _events_per_second(None)
    armed = {}

    def armed_run():
        armed["eps"], armed["summary"] = _events_per_second(DIMENSIONS["faults"].lookup("quiet"))
        return armed["summary"]

    benchmark(armed_run)

    # A quiet plan must not change behaviour, only add heartbeat events.
    assert armed["summary"] == legacy_summary, (
        "recovery-armed quiet run diverged from the faults=None summary"
    )

    slowdown = legacy_eps / armed["eps"] if armed["eps"] else float("inf")
    benchmark.extra_info["legacy_events_per_sec"] = round(legacy_eps, 1)
    benchmark.extra_info["armed_events_per_sec"] = round(armed["eps"], 1)
    # compare.py gates `gated_*` higher-is-better: report the throughput
    # ratio (armed/legacy), not the slowdown.
    benchmark.extra_info["gated_recovery_throughput_ratio"] = round(1.0 / slowdown, 3)

    # Recovery claims at bench scale (cached by the runner on repeats).
    result = run_study(STUDIES["chaos"])
    recovery = result.summary("recovery")
    norecovery = result.summary("norecovery")
    benchmark.extra_info["recovery_slo_violation"] = round(recovery["slo_violation_ratio"], 4)
    benchmark.extra_info["norecovery_slo_violation"] = round(norecovery["slo_violation_ratio"], 4)
    benchmark.extra_info["recovery_p99"] = round(recovery["p99_latency"], 3)
    benchmark.extra_info["norecovery_p99"] = round(norecovery["p99_latency"], 3)
    assert result.holds("recovery"), (
        "self-healing recovery fails to dominate under the storm: "
        f"recovery (viol={recovery['slo_violation_ratio']:.4f}, "
        f"p99={recovery['p99_latency']:.3f}) vs "
        f"norecovery (viol={norecovery['slo_violation_ratio']:.4f}, "
        f"p99={norecovery['p99_latency']:.3f})"
    )
    assert result.holds("graceful"), (
        "unmitigated storm arm failed to degrade gracefully "
        "(expected completed > 0 and dropped > 0)"
    )
