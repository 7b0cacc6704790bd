"""One MILP shape for every fleet: the single-class case, its warm-ramp goldens,
and the relaxation bound that prunes warm re-solves.

A single-class fleet builds the same class-indexed problem as a mixed one
(``x1[a100]``, ``x2[a100]``, one capacity row, the ``min-light`` row).  The
warm-ramp numbers below were recorded from the allocator that still kept a
separate two-variable problem for single-class fleets; the class-indexed
problem must reproduce them exactly.  The LP, pruned-pair and warm-hit
counters also pin the sweep's pair bound and warm certificate, which move
those counters but never the plans.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.allocator import ControlContext, DiffServeAllocator
from repro.core.config import FleetSpec, ResourceConfig, fleet_from_counts

_SETTINGS = dict(max_examples=30, deadline=None, suppress_health_check=list(HealthCheck))


def _allocator(cascade, profile, discriminator, **kwargs):
    return DiffServeAllocator(
        cascade.light,
        cascade.heavy,
        profile,
        discriminator_latency=discriminator.latency_s,
        **kwargs,
    )


def test_single_class_problem_is_the_class_indexed_case(allocator):
    ctx = ControlContext(demand=8.0, slo=5.0, fleet=FleetSpec.homogeneous(6))
    problem = allocator.build_problem(ctx, 1, 2, 8.4)
    assert set(problem.variables) == {"x1[a100]", "x2[a100]", "f"}
    assert [c.name for c in problem.constraints] == [
        "light-throughput",
        "heavy-throughput",
        "capacity[a100]",
        "min-light",
    ]
    # The min-light row is presolved into the bound of the only light class.
    assert problem.variables["x1[a100]"].lower == allocator.min_light_workers
    assert problem.variables["x2[a100]"].upper == 6


# ------------------------------------------------------------ warm goldens
#: name -> (workers, exhaustive cutoff, reload-aware, demand ramp, LP solves,
#: pairs pruned by the bound, warm-start hits, plans as (num_light,
#: num_heavy, light_batch, heavy_batch, threshold)).
WARM_RAMPS = {
    "branch-and-bound": (
        8,
        0,
        False,
        [0.5, 2.0, 6.0, 10.0, 14.0, 18.0, 14.0, 9.0, 4.0, 1.0, 0.3],
        2,
        18,
        16,
        [
            (1, 7, 16, 1, 1.0),
            (1, 7, 16, 1, 1.0),
            (1, 7, 1, 2, 0.668384),
            (1, 7, 16, 1, 0.233784),
            (2, 6, 1, 2, 0.140007),
            (2, 6, 16, 1, 0.068673),
            (2, 6, 1, 2, 0.140007),
            (1, 7, 16, 1, 0.285897),
            (1, 7, 16, 1, 1.0),
            (1, 7, 16, 1, 1.0),
            (1, 7, 16, 1, 1.0),
        ],
    ),
    "exhaustive": (
        4,
        64,
        False,
        [0.3, 1.0, 2.5, 4.0, 6.0, 8.0, 6.0, 3.0, 1.5, 0.4],
        0,
        23,
        10,
        [
            (1, 3, 16, 1, 1.0),
            (1, 3, 16, 1, 1.0),
            (1, 3, 1, 2, 0.668384),
            (1, 3, 1, 2, 0.327247),
            (1, 3, 1, 2, 0.176173),
            (1, 3, 1, 2, 0.106758),
            (1, 3, 1, 2, 0.176173),
            (1, 3, 1, 2, 0.521021),
            (1, 3, 1, 2, 1.0),
            (1, 3, 1, 2, 1.0),
        ],
    ),
    # Reload variables are continuous, so every enumerated split costs the
    # exhaustive solver one LP; every solve here is certified or pruned by
    # the pair bound instead, so none runs.
    "exhaustive-reload-aware": (
        4,
        64,
        True,
        [0.3, 1.0, 2.5, 4.0, 6.0, 8.0, 6.0, 3.0, 1.5, 0.4],
        0,
        23,
        10,
        [
            (1, 3, 16, 1, 1.0),
            (1, 3, 16, 1, 1.0),
            (1, 3, 1, 2, 0.668384),
            (1, 3, 1, 2, 0.327247),
            (1, 3, 1, 2, 0.176173),
            (1, 3, 1, 2, 0.106758),
            (1, 3, 1, 2, 0.176173),
            (1, 3, 1, 2, 0.521021),
            (1, 3, 1, 2, 1.0),
            (1, 3, 1, 2, 1.0),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(WARM_RAMPS))
def test_single_class_warm_ramp_golden(name, cascade1, deferral_profile, trained_discriminator):
    workers, cutoff, reload_aware, demands, lps, pruned, hits, expected = WARM_RAMPS[name]
    allocator = _allocator(
        cascade1, deferral_profile, trained_discriminator, exhaustive_cutoff=cutoff
    )
    resources = ResourceConfig.from_weights({"sd-turbo": 30.0, "sd-v1.5": 60.0})
    plan, plans = None, []
    for demand in demands:
        ctx = ControlContext(
            demand=demand,
            slo=cascade1.slo,
            fleet=FleetSpec.homogeneous(workers),
            resources=resources if reload_aware else None,
            current_plan=plan if reload_aware else None,
        )
        plan = allocator.plan(ctx, warm_start=plan)
        plans.append(
            (plan.num_light, plan.num_heavy, plan.light_batch, plan.heavy_batch,
             round(plan.threshold, 6))
        )
    assert plans == expected
    assert allocator.solver.total_lp_solves + allocator.exhaustive_solver.total_lp_solves == lps
    assert allocator.pairs_pruned_by_bound == pruned
    assert allocator.warm_start_hits == hits


# ------------------------------------------------------- relaxation bound
def test_bound_reduces_to_the_single_class_closed_form(allocator):
    fleet = FleetSpec.homogeneous(6)
    device = fleet.classes[0]
    t1 = allocator._light_throughput(1, device)
    t2 = allocator._heavy_throughput(2, device)
    for demand in (0.05, 0.5 * t1, 2.0 * t1, 5.5 * t1):
        light = max(allocator.min_light_workers, demand / t1)
        closed_form = min(1.0, max(0.0, 6 - light) * t2 / demand)
        bound = allocator._fraction_upper_bound(1, 2, demand, fleet, [device], [device])
        assert bound == pytest.approx(closed_form, rel=1e-12)
    assert allocator._fraction_upper_bound(1, 2, 7.0 * t1, fleet, [device], [device]) == -np.inf


@given(
    counts=st.dictionaries(
        st.sampled_from(["a100", "h100", "a10g", "l4", "t4"]),
        st.integers(min_value=1, max_value=3),
        min_size=1,
        max_size=3,
    ),
    demand=st.one_of(
        st.floats(min_value=0.01, max_value=0.6), st.floats(min_value=0.6, max_value=12.0)
    ),
    min_light=st.integers(min_value=1, max_value=3),
)
@settings(**_SETTINGS)
def test_bound_never_below_cold_solve_objective(
    counts, demand, min_light, cascade1, deferral_profile, trained_discriminator
):
    """The pruning bound is a true relaxation on random fleets, including
    demands a single light worker covers (where the min-light row binds)."""
    allocator = _allocator(
        cascade1,
        deferral_profile,
        trained_discriminator,
        min_light_workers=min_light,
        exhaustive_cutoff=64,
    )
    fleet = fleet_from_counts(counts)
    ctx = ControlContext(demand=demand, slo=cascade1.slo, fleet=fleet)
    for b1, b2, light, heavy in allocator._candidate_allocations(ctx, demand):
        bound = allocator._fraction_upper_bound(b1, b2, demand, fleet, light, heavy)
        solution = allocator._solve_pair(ctx, b1, b2, demand, None, light, heavy)
        if solution.is_optimal:
            assert bound >= solution.objective - 1e-9


# ---------------------------------------------------------- solver timeout
def test_forced_timeout_returns_best_effort_plan(allocator):
    ctx = ControlContext(demand=8.0, slo=5.0, fleet=FleetSpec.homogeneous(8))
    allocator.force_solve_timeout = True
    timed_out = allocator.plan(ctx)
    assert allocator.last_solve_timed_out
    assert not timed_out.feasible and timed_out.num_heavy == 0
    allocator.force_solve_timeout = False
    solved = allocator.plan(ctx)
    assert not allocator.last_solve_timed_out
    assert solved.feasible
