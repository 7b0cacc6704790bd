"""Benchmark — heterogeneous fleets: MILP overhead + equal-cost fleet study.

Two gates:

* Mixed fleets stay cheap to plan for: both arms build the same
  class-indexed MILP (the homogeneous fleet is its single-class case), and
  cold-solving it over a demand ramp on a mixed 16-worker fleet costs at
  most 2x the homogeneous 16-worker solve in HiGHS solves (the
  deterministic cost model: one per batch pair solved).  In practice the
  class-eligibility pruning makes the mixed sweep *cheaper*, so the 2x bound
  guards against more device classes multiplying the pairs solved.  Wall time is reported to
  ``benchmarks/compare.py``, not asserted.
* Heterogeneity pays at equal cost: in the ``repro fleet`` study at least
  one mixed fleet matches or Pareto-dominates the homogeneous all-A100
  reference on FID and SLO-violation ratio under at least one workload —
  cheap slow devices absorb the light pool while the fast tier serves the
  heavy model.
"""

import numpy as np

from repro.core.allocator import ControlContext, DiffServeAllocator
from repro.core.config import FleetSpec, fleet_from_counts
from repro.discriminators.deferral import DeferralProfile
from repro.experiments.harness import shared_components
from repro.experiments.studies import FLEET_COST_TOLERANCE, STUDIES, run_study

#: A ramp wide enough that the optimal plan keeps shifting while staying
#: feasible on both fleets.
DEMAND_RAMP = np.linspace(8.0, 30.0, 30)

#: Mixed fleet with the same worker count as the homogeneous reference.
MIXED_16 = {"a100": 8, "h100": 4, "l4": 4}


def _fresh_allocator(bench_scale):
    cascade, dataset, discriminator = shared_components("sdturbo", bench_scale)
    profile = DeferralProfile.profile(discriminator, dataset, cascade.light, seed=0)
    return (
        DiffServeAllocator(
            cascade.light,
            cascade.heavy,
            profile,
            discriminator_latency=discriminator.latency_s,
        ),
        cascade,
    )


def _cold_sweep(allocator, fleet, slo):
    """HiGHS solves for a cold re-solve ramp on one fleet."""
    lp_before = allocator.solver.total_lp_solves + allocator.exhaustive_solver.total_lp_solves
    for demand in DEMAND_RAMP:
        ctx = ControlContext(
            demand=float(demand), slo=slo, fleet=fleet, observed_deferral=0.4
        )
        plan = allocator.plan(ctx)
        assert plan.feasible
    return (
        allocator.solver.total_lp_solves
        + allocator.exhaustive_solver.total_lp_solves
        - lp_before
    )


def test_bench_heterogeneous_milp_within_2x_of_homogeneous(benchmark, bench_scale):
    homo_alloc, cascade = _fresh_allocator(bench_scale)
    het_alloc, _ = _fresh_allocator(bench_scale)
    slo = cascade.slo

    homo_lps = _cold_sweep(homo_alloc, FleetSpec.homogeneous(16), slo)
    het_lps = benchmark.pedantic(
        _cold_sweep,
        args=(het_alloc, fleet_from_counts(MIXED_16), slo),
        iterations=1,
        rounds=1,
    )

    assert homo_lps > 0
    # The deterministic gate: per-class variables must not explode the search.
    assert het_lps <= 2 * homo_lps, f"LP solves: het {het_lps} vs homo {homo_lps}"


def test_bench_fleet_study_mixed_fleet_matches_or_dominates(benchmark, bench_scale):
    result = benchmark.pedantic(
        run_study, args=(STUDIES["fleet"],), kwargs={"scale": bench_scale}, iterations=1, rounds=1
    )
    # Equal-cost sanity: every arm's fleet cost is within tolerance of the
    # reference (enforced by check_equal_cost; re-checked on the results).
    for (kind, _), summary in result.summaries.items():
        ref_cost = result.summary(kind, result.reference(kind))["fleet_cost"]
        assert abs(summary["fleet_cost"] - ref_cost) / ref_cost <= FLEET_COST_TOLERANCE
    # The headline: some mixed fleet matches or Pareto-dominates the
    # homogeneous reference on at least one workload.
    dominated = {kind: result.winners(kind) for kind in result.groups()}
    assert any(winners for winners in dominated.values()), dominated
    # And a mixed fleet sits on every workload's (violation, FID) front
    # alongside (or instead of) the reference on the bursty workload.
    assert any(
        name != result.reference(kind)
        for kind in result.groups()
        for name in result.front(kind)
    )
