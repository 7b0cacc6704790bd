"""Reload-aware MILP planning, residency plans, and the control-plane wiring.

Covers the planner half of the multi-resource worker model: reload variables
in the fraction MILP, the state-dependent reload cost model, co-placement
residency pinning (plus carry-forward repair across fleet drift), warm-start
incumbents extended with reload variables, and the Controller/Replanner
surfaces that move residency from plans onto workers.
"""

import pytest

from repro.core.allocator import AllocationPlan, ControlContext
from repro.core.config import FleetSpec, ResourceConfig, fleet_from_counts
from repro.experiments.studies import STUDIES, StudyResult


def _ctx(
    allocator,
    *,
    fleet=FleetSpec.homogeneous(4),
    resources=None,
    current_plan=None,
    demand=2.0,
):
    return ControlContext(
        demand=demand,
        slo=5.0,
        fleet=fleet,
        current_plan=current_plan,
        resources=resources,
    )


def _plan(light, heavy, **kwargs):
    return AllocationPlan(
        light_assignment=light, heavy_assignment=heavy, light_batch=1, heavy_batch=1, **kwargs
    )


def _contended():
    """Footprints that cannot co-reside in 80 GB (no co-placement)."""
    return ResourceConfig.from_weights({"sd-turbo": 30.0, "sd-v1.5": 60.0})


# ------------------------------------------------------------- reload model
def test_reload_model_none_without_resources_or_previous_plan(allocator):
    assert allocator._reload_model(_ctx(allocator)) is None
    # Resources attached but no previous plan: nothing to reload from.
    assert allocator._reload_model(_ctx(allocator, resources=_contended())) is None
    # Reload-oblivious config: the planner must ignore the resource model.
    prev = _plan({"a100": 3}, {"a100": 1}, threshold=0.5, heavy_fraction=0.2)
    ctx = _ctx(
        allocator,
        resources=ResourceConfig.from_weights(
            {"sd-turbo": 30.0, "sd-v1.5": 60.0}, reload_aware=False
        ),
        current_plan=prev,
    )
    assert allocator._reload_model(ctx) is None


def test_reload_model_none_when_every_class_coplaced(allocator):
    # Catalog footprints (5 + 8 GB) co-fit on a100: reloads are free
    # everywhere, so the model collapses to None and the MILP is unchanged.
    prev = _plan({"a100": 3}, {"a100": 1}, threshold=0.5, heavy_fraction=0.2)
    ctx = _ctx(allocator, resources=ResourceConfig.default(), current_plan=prev)
    assert allocator._reload_model(ctx) is None


def test_reload_model_costs_follow_transfer_bandwidth(allocator):
    prev = _plan({"a100": 3}, {"a100": 1}, threshold=0.5, heavy_fraction=0.2)
    ctx = _ctx(allocator, resources=_contended(), current_plan=prev)
    reload = allocator._reload_model(ctx)
    assert reload is not None
    light_cost, heavy_cost = reload["costs"]["a100"]
    assert light_cost == pytest.approx(30.0 / 16.0)
    assert heavy_cost == pytest.approx(60.0 / 16.0)
    assert reload["prev_light"] == {"a100": 3}
    assert reload["prev_heavy"] == {"a100": 1}


def test_build_problem_adds_reload_variables_only_when_contended(allocator):
    prev = _plan({"a100": 3}, {"a100": 1}, threshold=0.5, heavy_fraction=0.2)
    contended = allocator.build_problem(
        _ctx(allocator, resources=_contended(), current_plan=prev), 1, 1, 2.0
    )
    assert "r1[a100]" in contended.variables and "r2[a100]" in contended.variables

    cofit = allocator.build_problem(
        _ctx(allocator, resources=ResourceConfig.default(), current_plan=prev), 1, 1, 2.0
    )
    assert "r1[a100]" not in cofit.variables and "r2[a100]" not in cofit.variables

    legacy = allocator.build_problem(_ctx(allocator), 1, 1, 2.0)
    assert "r1[a100]" not in legacy.variables


def test_reload_penalty_steers_plans_toward_fewer_flips(allocator):
    # Previous plan: all four workers light.  A reload-aware re-solve at
    # demand the light pool can still carry must prefer keeping the split
    # (flipping to heavy would pay 3.75 s of transfer in the objective).
    prev = _plan({"a100": 4}, {}, threshold=0.0, heavy_fraction=0.0)
    ctx = _ctx(allocator, resources=_contended(), current_plan=prev, demand=1.0)
    plan = allocator.plan(ctx)
    oblivious = allocator.plan(_ctx(allocator, demand=1.0))
    assert plan.feasible
    # The aware plan never flips more workers to heavy than the oblivious
    # solve of the same context (the penalty only discourages churn).
    assert plan.num_heavy <= oblivious.num_heavy


def test_fill_reload_vars_completes_warm_incumbent(allocator):
    prev = _plan({"a100": 3}, {"a100": 1}, threshold=0.5, heavy_fraction=0.2)
    ctx = _ctx(allocator, resources=_contended(), current_plan=prev)
    assignment = allocator._fill_reload_vars(
        {"x1[a100]": 2.0, "x2[a100]": 2.0, "f": 0.2}, ctx
    )
    # x2 grew 1 -> 2: one heavy reload; x1 shrank: no light reload.
    assert assignment["r2[a100]"] == pytest.approx(1.0)
    assert "r1[a100]" not in assignment or assignment["r1[a100]"] == pytest.approx(0.0)
    # Without a reload model the assignment passes through untouched.
    plain = allocator._fill_reload_vars({"x1[a100]": 2.0}, _ctx(allocator))
    assert plain == {"x1[a100]": 2.0}


# --------------------------------------------------------------- residency
def test_plan_residency_pins_coplaced_classes(allocator):
    ctx = _ctx(allocator, resources=ResourceConfig.default())
    residency = allocator._plan_residency(ctx)
    assert residency == {"a100": ("sd-turbo", "sd-v1.5")}
    assert allocator._plan_residency(_ctx(allocator)) is None
    oblivious = ResourceConfig.default(reload_aware=False)
    assert allocator._plan_residency(_ctx(allocator, resources=oblivious)) is None


def test_plan_residency_carries_previous_pins_across_fleet_drift(allocator):
    # Previous plan pinned the light weights on l4; after drift the l4 class
    # must keep pins that still fit while a vanished class drops out.
    resources = ResourceConfig.from_weights({"sd-turbo": 10.0, "sd-v1.5": 20.0})
    prev = _plan({"a100": 3}, {"a100": 1}, threshold=0.5, heavy_fraction=0.2)
    prev.residency = {"l4": ("sd-turbo",), "t4": ("sd-turbo",)}
    fleet = fleet_from_counts({"a100": 2, "l4": 3})
    ctx = _ctx(allocator, fleet=fleet, resources=resources, current_plan=prev)
    residency = allocator._plan_residency(ctx)
    assert residency["a100"] == ("sd-turbo", "sd-v1.5")  # co-placed: pinned
    assert residency["l4"] == ("sd-turbo",)  # carried forward
    assert "t4" not in residency  # drifted out of the fleet


def test_plan_residency_drops_pins_that_no_longer_fit(allocator):
    resources = ResourceConfig.from_weights({"sd-turbo": 30.0, "sd-v1.5": 60.0})
    prev = _plan({"a100": 3}, {"a100": 1}, threshold=0.5, heavy_fraction=0.2)
    prev.residency = {"a100": ("sd-v1.5", "sd-turbo")}
    ctx = _ctx(allocator, resources=resources, current_plan=prev)
    residency = allocator._plan_residency(ctx)
    # 60 + 30 GB no longer co-fit: only the first still-fitting pin survives.
    assert residency["a100"] == ("sd-v1.5",)


def test_solved_plans_carry_residency(allocator):
    plan = allocator.plan(_ctx(allocator, resources=ResourceConfig.default()))
    assert plan.residency == {"a100": ("sd-turbo", "sd-v1.5")}
    legacy = allocator.plan(_ctx(allocator))
    assert legacy.residency is None


# ------------------------------------------------------------ control plane
def test_controller_applies_residency_to_workers(cascade1):
    from repro.baselines.registry import build_system

    system = build_system(
        "sdturbo",
        fleet=FleetSpec.homogeneous(4),
        dataset_size=60,
        seed=0,
        resources=ResourceConfig.default(),
    )
    runtime = system.prepare()
    runtime.sim.run(until=1.0)  # plan zero applied + prefetches settled
    for worker in runtime.controller.workers:
        assert worker.resources is not None
        assert worker.resources.residency.pinned == {"sd-turbo", "sd-v1.5"}
        assert worker.resources.ready("sd-turbo")
        assert worker.resources.ready("sd-v1.5")


def test_replanner_snapshots_record_residency_token():
    from repro.core.controller import Controller

    plan = _plan({"a100": 3}, {"a100": 1}, threshold=0.5, heavy_fraction=0.2)
    plan.residency = {"a100": ("sd-turbo", "sd-v1.5"), "l4": ()}
    token = Controller._residency_token(plan)
    assert token == "a100:sd-turbo+sd-v1.5"
    assert Controller._residency_token(None) == ""
    bare = _plan({"a100": 3}, {"a100": 1}, threshold=0.5, heavy_fraction=0.2)
    assert Controller._residency_token(bare) == ""


# ------------------------------------------------------- contention verdicts
def _arm(violation, p99):
    return {"slo_violation_ratio": violation, "p99_latency": p99}


def test_contention_domination_and_neutrality_logic():
    result = StudyResult(
        study=STUDIES["contention"],
        qps=10.0,
        summaries={
            ("cofit", "aware"): _arm(0.05, 4.0),
            ("cofit", "oblivious"): _arm(0.05, 4.0),
            ("contended", "aware"): _arm(0.02, 3.9),
            ("contended", "oblivious"): _arm(0.06, 4.8),
        },
    )
    assert result.holds("reload-aware")
    assert result.holds("co-placement")
    # Losing either objective breaks domination.
    result.summary("contended", "aware")["p99_latency"] = 5.0
    assert not result.holds("reload-aware")
