"""Benchmark E11 — Section 4.5: MILP solver overhead.

Paper shape asserted: one allocation solve is cheap enough to run every
control period (Gurobi: ~10 ms), stays off the data path, and matches the
exhaustive optimum.  The cost is asserted as a deterministic count of HiGHS
solves per plan; the wall-clock solve times are reported as extra info
only, so a busy host cannot fail the check.
"""

from repro.experiments.milp_overhead import MAX_LPS_PER_PLAN, run_milp_overhead


def test_bench_milp_overhead(benchmark, bench_scale):
    result = benchmark.pedantic(
        run_milp_overhead,
        kwargs={"scale": bench_scale, "demands": (4.0, 10.0, 16.0, 24.0, 32.0)},
        iterations=1,
        rounds=1,
    )
    benchmark.extra_info["mean_time_ms"] = result.mean_time_ms
    benchmark.extra_info["max_time_ms"] = result.max_time_ms
    benchmark.extra_info["lp_solves"] = result.lp_solves

    # Solves are cheap enough to run every control period: every plan costs
    # at least one HiGHS solve and at most one per light batch size.
    assert len(result.lp_solves) == len(result.demands)
    assert all(1 <= n <= MAX_LPS_PER_PLAN for n in result.lp_solves)
    # HiGHS finds the exhaustive optimum on every instance.
    assert result.always_agrees
    # The optimal threshold falls as demand rises (model scaling).
    assert result.thresholds[0] >= result.thresholds[-1]
    assert result.thresholds[0] == 1.0
