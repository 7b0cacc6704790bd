"""Benchmark — adaptive control plane: warm-started re-solves + drift study.

Two gates:

* Warm-started re-planning is cheap: re-solving a drifting allocation
  problem with the previous epoch's plan as a warm start runs at least 3x
  fewer HiGHS solves than cold solves (the deterministic cost model).
  Both sweeps skip batch pairs whose pair bound cannot reach the best
  plan's key; the warm path also seeds the MILP incumbent, takes an
  incumbent that meets its pair bound without a solve, and prunes pairs
  whose closed-form relaxation bound cannot beat the incumbent's objective
  (:meth:`repro.core.allocator.DiffServeAllocator.plan`).  Wall time is
  reported to ``benchmarks/compare.py``, not asserted.
* Adaptation wins: on the flash-crowd workload the online re-planned system
  strictly reduces SLO violations vs. the same system frozen at its initial
  (mean-rate) plan.
"""

import numpy as np

from repro.core.allocator import ControlContext
from repro.core.config import FleetSpec
from repro.core.policies import make_diffserve_policy
from repro.discriminators.deferral import DeferralProfile
from repro.experiments.drift_adaptation import run_drift_adaptation
from repro.experiments.harness import shared_components

#: A demand ramp steep enough that the optimal plan keeps shifting (the
#: regime where re-planning actually happens) while staying feasible.
DEMAND_RAMP = np.linspace(12.0, 30.0, 40)


def _fresh_allocator(bench_scale):
    cascade, dataset, discriminator = shared_components("sdturbo", bench_scale)
    profile = DeferralProfile.profile(discriminator, dataset, cascade.light, seed=0)
    policy = make_diffserve_policy(
        cascade.light,
        cascade.heavy,
        profile,
        discriminator_latency=discriminator.latency_s,
    )
    return policy.allocator, cascade


def _resolve_sequence(allocator, demands, slo, *, warm):
    """(HiGHS solves, plans) for one re-solve sequence."""
    lp_before = allocator.solver.total_lp_solves + allocator.exhaustive_solver.total_lp_solves
    plans = []
    plan = None
    for demand in demands:
        ctx = ControlContext(demand=float(demand), slo=slo, fleet=FleetSpec.homogeneous(16))
        plan = allocator.plan(ctx, warm_start=plan if warm else None)
        plans.append(plan)
    lp_solves = (
        allocator.solver.total_lp_solves
        + allocator.exhaustive_solver.total_lp_solves
        - lp_before
    )
    return lp_solves, plans


def test_bench_warm_start_resolve_speedup(benchmark, bench_scale):
    cold_alloc, cascade = _fresh_allocator(bench_scale)
    warm_alloc, _ = _fresh_allocator(bench_scale)
    slo = cascade.slo

    cold_lps, cold_plans = _resolve_sequence(cold_alloc, DEMAND_RAMP, slo, warm=False)
    warm_lps, warm_plans = benchmark.pedantic(
        _resolve_sequence,
        args=(warm_alloc, DEMAND_RAMP, slo),
        kwargs={"warm": True},
        iterations=1,
        rounds=1,
    )

    # The sweep must exercise real solves, not the overload fallback.
    assert all(plan.feasible for plan in cold_plans)
    # Warm starts seeded the incumbent and the relaxation bound pruned pairs.
    assert warm_alloc.warm_start_hits > 0
    assert warm_alloc.pairs_pruned_by_bound > 0
    # The headline gate: warm-started re-solves are >= 3x cheaper than cold
    # in HiGHS solves (deterministic).
    assert warm_lps * 3 <= cold_lps, f"warm {warm_lps} LPs vs cold {cold_lps}"
    # Warm re-solves never sacrifice plan quality: the chosen threshold
    # matches the cold optimum on every instance.
    assert [p.threshold for p in warm_plans] == [p.threshold for p in cold_plans]


def test_bench_drift_adaptation_beats_static_plan(benchmark, bench_scale):
    result = benchmark.pedantic(
        run_drift_adaptation,
        kwargs={"scale": bench_scale, "epoch": 5.0},
        iterations=1,
        rounds=1,
    )

    # Adaptation strictly reduces SLO violations on the flash crowd, for
    # both the periodic and the drift-triggered re-planner.
    static = result.arm("flash-crowd", "static").violation
    assert result.arm("flash-crowd", "adaptive").violation < static
    assert result.arm("flash-crowd", "periodic").violation < static
    # The diurnal cycle shows the same direction.
    assert result.violation_delta("diurnal") > 0
    # Adaptive re-plans less often than periodic (that is its point) while
    # matching its violation level at this scale.
    adaptive_replans = result.arm("flash-crowd", "adaptive").replans
    periodic_replans = result.arm("flash-crowd", "periodic").replans
    assert adaptive_replans < periodic_replans
    # Nearly every re-solve had its warm incumbent accepted by the solver
    # (the rate measures real acceptance, not attempts — a sharp demand spike
    # can legitimately make a repaired incumbent infeasible for an epoch).
    assert result.arm("flash-crowd", "periodic").warm_hit_rate >= 0.9
