"""Benchmark — elastic fleets: autoscaling + spot markets (PR 9 tentpole gate).

Two halves, mirroring the chaos benchmark's correctness/speed split:

* **Overhead:** arming the autoscaler with the ``static`` policy (the full
  decision machinery runs every replan epoch but never changes the fleet)
  must leave the ``autoscale=None`` summary byte-identical: a policy that
  never scales is observationally the legacy system.  Its event-loop
  throughput (events fired per wall-clock second) relative to the
  ``autoscale=None`` path is reported as a ``gated_*`` metric, which
  ``benchmarks/compare.py`` gates across runs; a single-shot wall-clock
  ratio is too noisy to assert here.

* **Dominance claims:** :func:`repro.experiments.studies.run_study`
  re-runs the elastic-fleet study at bench scale and asserts the acceptance
  criterion: under the diurnal workload on the diurnal spot market, the
  cost-aware policy strictly dominates the fixed equal-peak-cost fleet on
  (time-integrated cost, SLO violation ratio) — strictly cheaper, no worse
  on violations.
"""

import time

from repro.core.config import FleetSpec
from repro.baselines.registry import build_system
from repro.core.system import ClientSource
from repro.experiments.studies import STUDIES, run_study
from repro.workloads import make_workload

#: Cell the overhead measurement times (matches the autoscale experiment shape).
N_WORKERS = 8
QPS = 9.6
DURATION = 60.0


def _events_per_second(autoscale):
    """Events fired per wall second for one flash-crowd run."""
    from repro.runner.dimensions import DIMENSIONS

    system = build_system(
        "sdturbo",
        fleet=FleetSpec.homogeneous(N_WORKERS),
        dataset_size=300,
        seed=0,
        replan_epoch=3.0,
        replan_policy="adaptive",
        autoscale=DIMENSIONS["autoscale"].lookup(autoscale) if autoscale else None,
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


def test_bench_autoscale(benchmark):
    legacy_eps, legacy_summary = _events_per_second(None)
    armed = {}

    def armed_run():
        armed["eps"], armed["summary"] = _events_per_second("static")
        return armed["summary"]

    benchmark(armed_run)

    # A static policy must not change behaviour, only evaluate and decline.
    assert armed["summary"] == legacy_summary, (
        "autoscale='static' run diverged from the autoscale=None summary"
    )

    slowdown = legacy_eps / armed["eps"] if armed["eps"] else float("inf")
    benchmark.extra_info["legacy_events_per_sec"] = round(legacy_eps, 1)
    benchmark.extra_info["armed_events_per_sec"] = round(armed["eps"], 1)
    # compare.py gates `gated_*` higher-is-better: report the throughput
    # ratio (armed/legacy), not the slowdown.
    benchmark.extra_info["gated_autoscale_throughput_ratio"] = round(1.0 / slowdown, 3)

    # Dominance claims at bench scale (cached by the runner on repeats).
    result = run_study(STUDIES["autoscale"])
    fixed = result.summary("diurnal", "fixed")
    aware = result.summary("diurnal", "cost-aware")
    benchmark.extra_info["fixed_cost_a100h"] = round(fixed["fleet_cost"], 5)
    benchmark.extra_info["cost_aware_cost_a100h"] = round(aware["fleet_cost"], 5)
    benchmark.extra_info["fixed_slo_violation"] = round(fixed["slo_violation_ratio"], 4)
    benchmark.extra_info["cost_aware_slo_violation"] = round(aware["slo_violation_ratio"], 4)
    # Higher is better for the gate: fractional saving vs. the fixed fleet.
    benchmark.extra_info["gated_cost_aware_saving"] = round(
        result.saving("diurnal", "cost-aware"), 3
    )
    assert result.holds("cost-aware", "diurnal"), (
        "cost-aware autoscaling fails to dominate the fixed fleet: "
        f"cost-aware (cost={aware['fleet_cost']:.5f}, "
        f"viol={aware['slo_violation_ratio']:.4f}) vs "
        f"fixed (cost={fixed['fleet_cost']:.5f}, viol={fixed['slo_violation_ratio']:.4f})"
    )
