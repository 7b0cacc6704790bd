"""The allocator's plan sweep against an unpruned oracle.

:meth:`DiffServeAllocator.plan` skips every batch pair whose pair bound
cannot reach the best plan's key, and returns a warm incumbent that already
meets the pair bound without solving.  The oracle below is a test-side copy
of the sweep without either step, which hands every pair it visits to a
solver:

* a cold sweep solves every candidate pair;
* a warm sweep visits the previous pair first and prunes only on the
  closed-form relaxation bound against the best objective so far.

Its candidate list is a copy of the per-pair eligibility check too, with
every latency recomputed for every pair.  On random fleets (one class of
1-24 workers, or mixes with light-only classes), random demands (overload
and demands a whole number of light workers covers exactly, to within the
solvers' tolerance, included) and random control state, the allocator and
the oracle must return equal plans, every field of ``AllocationPlan``
included, and the allocator may never solve more LPs.  Each example runs a
short sequence of plans, so warm starts, reload-aware current plans and
online profile updates carry over from one plan to the next.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.allocator import ControlContext, DiffServeAllocator
from repro.core.config import FleetSpec, ResourceConfig, fleet_from_counts
from repro.core.pricing import PRICE_TRACES
from repro.discriminators.deferral import DeferralProfile
from repro.models.zoo import get_cascade

_SETTINGS = dict(max_examples=120, deadline=None, suppress_health_check=list(HealthCheck))

_CLASSES = ("a100", "h100", "a10g", "l4", "t4")


# ------------------------------------------------------------------ oracle
def _oracle_candidates(allocator, ctx, demand):
    """The candidate pairs, each pair's eligibility derived from scratch."""
    allocations = []
    for b1 in sorted(allocator.batch_candidates, reverse=True):
        best_b2 = None
        for b2 in allocator.batch_candidates:
            light, heavy = allocator._hostable_classes(ctx.fleet, ctx.resources)
            light = [d for d in light if allocator._light_execution(b1, d) <= ctx.slo]
            heavy = [d for d in heavy if allocator._heavy_execution(b2, d) <= ctx.slo]
            guess = ctx.observed_deferral if ctx.observed_deferral is not None else 0.3
            heavy_rate = max(demand * guess, 1e-3)
            while light and heavy:
                e1 = max(allocator._light_execution(b1, d) for d in light)
                e2 = max(allocator._heavy_execution(b2, d) for d in heavy)
                q1 = allocator.queueing_model.waiting_time(
                    ctx.light_queue_length, max(demand, 1e-3), e1
                )
                q2 = allocator.queueing_model.waiting_time(ctx.heavy_queue_length, heavy_rate, e2)
                if e1 + q1 + e2 + q2 <= ctx.slo:
                    break
                if len(heavy) > 1 and (e2 >= e1 or len(light) == 1):
                    heavy = [d for d in heavy if allocator._heavy_execution(b2, d) < e2]
                elif len(light) > 1:
                    light = [d for d in light if allocator._light_execution(b1, d) < e1]
                else:
                    light, heavy = [], []
            if light and heavy and (best_b2 is None or b2 > best_b2[0]):
                best_b2 = (b2, light, heavy)
        if best_b2 is not None:
            allocations.append((b1, *best_b2))
    return allocations


def _oracle_solve(allocator, ctx, b1, b2, demand, warm_assignment, light, heavy):
    """One pair's solve, always by a solver."""
    problem = allocator.build_problem(
        ctx, b1, b2, demand, light_classes=light, heavy_classes=heavy
    )
    if allocator.exhaustive_cutoff:
        size = allocator.exhaustive_solver.search_space(problem)
        if size is not None and 0 < size <= allocator.exhaustive_cutoff:
            return allocator.exhaustive_solver.solve(problem, warm_start=warm_assignment)
    return allocator.solver.solve(problem, warm_start=warm_assignment)


def _oracle_plan(allocator, ctx, warm_start=None):
    """The sweep with no pair bound: solve every pair (cold), or prune only
    on the relaxation bound against the best objective (warm)."""
    demand = max(ctx.demand, 1e-3) * allocator.over_provision
    max_threshold = max(t for t, _ in allocator.threshold_grid)
    allocations = _oracle_candidates(allocator, ctx, demand)
    assert allocations == allocator._candidate_allocations(ctx, demand)
    if warm_start is not None:
        prev_pair = (warm_start.light_batch, warm_start.heavy_batch)
        head = [a for a in allocations if (a[0], a[1]) == prev_pair]
        allocations = head + [a for a in allocations if (a[0], a[1]) != prev_pair]
    best, best_classes = None, ([], [])
    for b1, b2, light, heavy in allocations:
        if best is not None and best.threshold >= max_threshold:
            break
        warm_assignment = None
        if warm_start is not None:
            if best is not None and best.objective is not None:
                bound = allocator._fraction_upper_bound(b1, b2, demand, ctx.fleet, light, heavy)
                if bound <= best.objective + 1e-9:
                    continue
            warm_assignment = allocator._warm_assignment(
                warm_start, b1, b2, demand, ctx, light, heavy
            )
        solution = _oracle_solve(allocator, ctx, b1, b2, demand, warm_assignment, light, heavy)
        if not solution.is_optimal:
            continue
        plan = allocator._plan_from_solution(solution, b1, b2, light, heavy)
        if best is None or allocator._plan_key(plan) > allocator._plan_key(best):
            best, best_classes = plan, (light, heavy)
    if best is None:
        return allocator._best_effort_plan(ctx)
    best = allocator._assign_spare_workers(best, ctx.fleet, *best_classes)
    best.residency = allocator._plan_residency(ctx)
    return best


def _lps(allocator):
    return allocator.solver.total_lp_solves + allocator.exhaustive_solver.total_lp_solves


# -------------------------------------------------------------- scenarios
def _resources(kind, cascade):
    """None, or a footprint model: ``light-only`` leaves the smallest classes
    able to host the light variant alone, ``reload`` co-places nowhere."""
    if kind is None:
        return None
    weights = {"light-only": (12.0, 20.0), "reload": (30.0, 60.0)}[kind[0]]
    return ResourceConfig.from_weights(
        {cascade.light.name: weights[0], cascade.heavy.name: weights[1]}, reload_aware=kind[1]
    )


@st.composite
def scenarios(draw):
    cascade = get_cascade(draw(st.sampled_from(["sdturbo", "sdxs", "sdxlltn"])))
    if draw(st.booleans()):
        fleet = FleetSpec.homogeneous(draw(st.integers(min_value=1, max_value=24)))
    else:
        names = draw(st.lists(st.sampled_from(_CLASSES), min_size=2, max_size=3, unique=True))
        fleet = fleet_from_counts(
            {name: draw(st.integers(min_value=1, max_value=6)) for name in names}
        )
    kinds = [None, ("light-only", True), ("reload", True), ("light-only", False)]
    resources = _resources(draw(st.sampled_from(kinds)), cascade)
    price = {}
    if draw(st.booleans()):
        price = {
            "prices": PRICE_TRACES[draw(st.sampled_from(["spot-calm", "spot-storm"]))],
            "price_time": draw(st.floats(min_value=0.0, max_value=300.0)),
            "revocation_risk": {
                name: draw(st.sampled_from([0.0, 0.2])) for name, _ in fleet.devices
            },
        }
    confidences = np.random.default_rng(draw(st.integers(0, 2**16))).beta(
        draw(st.sampled_from([0.5, 2.0])), 2.0, size=draw(st.sampled_from([7, 60]))
    )
    allocator_kwargs = {
        "exhaustive_cutoff": draw(st.sampled_from([0, 64])),
        "min_light_workers": draw(st.sampled_from([1, 1, 2])),
    }
    steps = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "demand": st.one_of(
                        st.floats(min_value=0.0, max_value=40.0),
                        st.floats(min_value=40.0, max_value=400.0),
                        # (class index, batch, workers, relative offset): a
                        # demand those light workers cover to within 1e-6.
                        st.tuples(
                            st.integers(0, 2),
                            st.sampled_from([1, 2, 4, 8, 16]),
                            st.integers(1, 12),
                            st.sampled_from([0.0, 1e-8, 1e-7, 5e-7, -1e-7]),
                        ),
                    ),
                    "slo": st.sampled_from([cascade.slo, 0.5 * cascade.slo, 2.0 * cascade.slo]),
                    "observed_deferral": st.one_of(st.none(), st.floats(0.0, 1.0)),
                    "queues": st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 30.0)),
                    "online": st.one_of(
                        st.none(), st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
                    ),
                }
            ),
            min_size=1,
            max_size=5,
        )
    )
    return cascade, fleet, resources, price, confidences, allocator_kwargs, steps


def _demand(spec, allocator, fleet):
    if not isinstance(spec, tuple):
        return spec
    index, batch, workers, offset = spec
    device = fleet.classes[index % len(fleet.classes)]
    covered = workers * allocator._light_throughput(batch, device) * (1.0 + offset)
    return covered / allocator.over_provision


def _plan_both(swept, oracle, context, previous, warm):
    """Plan ``context`` (``ControlContext`` fields) with both allocators after
    ``previous``, their last plan; assert that the plans are equal and that
    the swept allocator solved no more LPs.  Returns the plan."""
    ctx = ControlContext(current_plan=previous, **context)
    warm_start = previous if warm else None
    lps = (_lps(swept), _lps(oracle))
    plan = swept.plan(ctx, warm_start=warm_start)
    expected = _oracle_plan(oracle, ctx, warm_start=warm_start)
    assert plan == expected
    assert (plan.objective, plan.residency) == (expected.objective, expected.residency)
    assert _lps(swept) - lps[0] <= _lps(oracle) - lps[1]
    return plan


@given(scenario=scenarios(), warm=st.booleans())
@settings(**_SETTINGS)
def test_plan_sweep_matches_the_unpruned_oracle(scenario, warm):
    cascade, fleet, resources, price, confidences, allocator_kwargs, steps = scenario
    # One profile, so an online update reaches both allocators' grids.
    profile = DeferralProfile(np.sort(confidences))
    swept, oracle = (
        DiffServeAllocator(cascade.light, cascade.heavy, profile, **allocator_kwargs)
        for _ in range(2)
    )
    try:
        swept._hostable_classes(fleet, resources)
    except ValueError:
        assume(False)
    plan = None
    for step in steps:
        if step["online"] is not None and plan is not None:
            threshold_share, observed = step["online"]
            profile.update_online(plan.threshold * threshold_share, observed)
            swept.refresh_threshold_grid()
            oracle.refresh_threshold_grid()
        context = dict(
            demand=_demand(step["demand"], swept, fleet),
            slo=step["slo"],
            fleet=fleet,
            light_queue_length=step["queues"][0],
            heavy_queue_length=step["queues"][1],
            observed_deferral=step["observed_deferral"],
            resources=resources,
            **price,
        )
        plan = _plan_both(swept, oracle, context, plan, warm)


# ------------------------------------------------------ fixed sequences
def _allocators(cascade, profile, discriminator, **kwargs):
    return [
        DiffServeAllocator(
            cascade.light,
            cascade.heavy,
            profile,
            discriminator_latency=discriminator.latency_s,
            **kwargs,
        )
        for _ in range(2)
    ]


#: Demand ramps up and down: (fleet, demands, reload-aware weights of the
#: light and heavy variant).  The weights fit both variants on some class
#: but never together, so pool changes there pay a reload.  Warm sweeps over
#: the ramps move between small and large light batches, where the pair
#: bound's batch tie-break decides which pair keeps a tied threshold.
RAMPS = {
    "a100x4": ({"a100": 4}, [0.3, 1.0, 2.5, 4.0, 6.0, 8.0, 6.0, 3.0, 1.5, 0.4], (30.0, 60.0)),
    "a100x8": (
        {"a100": 8},
        [0.5, 2.0, 6.0, 10.0, 14.0, 18.0, 14.0, 9.0, 4.0, 1.0, 0.3],
        (30.0, 60.0),
    ),
    "a100x16": ({"a100": 16}, [float(d) for d in np.linspace(12.0, 30.0, 13)], (30.0, 60.0)),
    "a100x4-l4x6": (
        {"a100": 4, "l4": 6},
        [1.0, 4.0, 9.0, 16.0, 25.0, 16.0, 9.0, 4.0, 1.0],
        (12.0, 20.0),
    ),
}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("reload", [False, True], ids=["plain", "reload-aware"])
@pytest.mark.parametrize("cutoff", [0, 64])
@pytest.mark.parametrize("ramp", sorted(RAMPS))
def test_demand_ramps_match_the_unpruned_oracle(
    ramp, cutoff, reload, warm, cascade1, deferral_profile, trained_discriminator
):
    counts, demands, (light_gb, heavy_gb) = RAMPS[ramp]
    swept, oracle = _allocators(
        cascade1, deferral_profile, trained_discriminator, exhaustive_cutoff=cutoff
    )
    resources = None
    if reload:
        resources = ResourceConfig.from_weights(
            {cascade1.light.name: light_gb, cascade1.heavy.name: heavy_gb}
        )
    plan = None
    for demand in demands:
        context = dict(
            demand=demand, slo=cascade1.slo, fleet=fleet_from_counts(counts), resources=resources
        )
        plan = _plan_both(swept, oracle, context, plan, warm)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("workers", [3, 8, 16])
def test_light_pool_boundaries_match_the_unpruned_oracle(
    workers, warm, cascade1, deferral_profile, trained_discriminator
):
    """Demands ``k`` light workers cover but for 1e-7 of ``D``: the solvers
    accept ``k`` workers (the row holds within their tolerance), so the pair
    bound must round the light pool at ``D - ACCEPT_TOL``, not at ``D``."""
    swept, oracle = _allocators(cascade1, deferral_profile, trained_discriminator)
    fleet = FleetSpec.homogeneous(workers)
    (device,) = fleet.classes
    plan = None
    for batch in swept.batch_candidates:
        for light in range(1, workers + 1):
            covered = light * swept._light_throughput(batch, device) * (1.0 + 1e-7)
            context = dict(demand=covered / swept.over_provision, slo=cascade1.slo, fleet=fleet)
            plan = _plan_both(swept, oracle, context, plan, warm)
