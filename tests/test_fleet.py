"""Tests for typed device fleets: config, profiles, MILP, control plane.

The homogeneous regression pins here were recorded from the pre-fleet
allocator (one ``LatencyProfile`` per variant, a two-variable MILP): the
class-indexed MILP on the default single-class fleet must keep reproducing
those decisions exactly.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import (
    AllocationPlan,
    ControlContext,
    DiffServeAllocator,
    fleet_order_split,
)
from repro.core.config import (
    DEVICE_CLASSES,
    DeviceClass,
    FleetSpec,
    SystemConfig,
    fleet_from_counts,
    get_device_class,
)
from repro.models.zoo import get_cascade, variant_profile


def mixed_fleet(**counts) -> FleetSpec:
    return fleet_from_counts(counts)


# ------------------------------------------------------------- device classes
def test_device_class_catalog_and_lookup():
    assert set(DEVICE_CLASSES) >= {"a100", "h100", "l4", "t4"}
    a100 = get_device_class("a100")
    assert a100.speed_factor == 1.0 and a100.cost_per_hour == 1.0
    assert get_device_class("h100").speed_factor < 1.0 < get_device_class("l4").speed_factor
    with pytest.raises(KeyError, match="unknown device class 'b200'"):
        get_device_class("b200")


def test_device_class_validation_one_line_messages():
    with pytest.raises(ValueError, match="'bad': speed_factor must be positive"):
        DeviceClass("bad", speed_factor=0.0)
    with pytest.raises(ValueError, match="'bad': memory_gb must be positive"):
        DeviceClass("bad", memory_gb=-1.0)
    with pytest.raises(ValueError, match="'bad': cost_per_hour must be positive"):
        DeviceClass("bad", cost_per_hour=0.0)


def test_memory_tier_gates_variant_hosting(cascade1):
    sdxl = get_cascade("sdxlltn").heavy
    t4 = get_device_class("t4")
    assert not t4.can_host(sdxl)
    assert get_device_class("a100").can_host(sdxl)
    assert t4.can_host(cascade1.light)


# ----------------------------------------------------------------- fleet spec
def test_fleet_validation_is_centralised_with_one_line_errors():
    with pytest.raises(ValueError, match="at least one device class"):
        FleetSpec(devices=())
    with pytest.raises(ValueError, match="fleet class 'a100': count must be >= 1, got 0"):
        FleetSpec.homogeneous(0)
    with pytest.raises(ValueError, match="fleet class 'l4': count must be an integer"):
        fleet_from_counts({"l4": 2.5})
    with pytest.raises(ValueError, match="listed more than once"):
        FleetSpec(devices=((get_device_class("a100"), 1), (get_device_class("a100"), 2)))
    with pytest.raises(KeyError, match="unknown device class 'b200'"):
        fleet_from_counts({"b200": 4})


def test_fleet_canonical_order_totals_and_cost():
    fleet = mixed_fleet(l4=8, a100=4, h100=2)
    assert [d.name for d in fleet.classes] == ["a100", "h100", "l4"]  # name-sorted
    assert fleet.total_workers == 14
    assert fleet.total_cost == pytest.approx(4 * 1.0 + 2 * 1.8 + 8 * 0.3)
    assert fleet.token() == "a100:4,h100:2,l4:8"
    assert fleet.count_for("l4") == 8 and fleet.count_for("t4") == 0
    assert not fleet.is_homogeneous
    assert FleetSpec.homogeneous(16).is_homogeneous


def test_control_context_accepts_fleet_or_alias():
    ctx = ControlContext(demand=1.0, slo=5.0, fleet=mixed_fleet(a100=2, l4=3))
    assert ctx.fleet.total_workers == 5
    with pytest.raises(TypeError, match="fleet"):
        ControlContext(demand=1.0, slo=5.0)


# ------------------------------------------------- per-device latency profiles
def test_variant_profile_scales_per_device_class(cascade1):
    light = cascade1.light
    l4 = get_device_class("l4")
    base = variant_profile(light, None)
    scaled = variant_profile(light, l4)
    assert base is light.latency
    assert scaled.per_image == pytest.approx(light.latency.per_image * l4.speed_factor)
    assert scaled.fixed_overhead == pytest.approx(
        light.latency.fixed_overhead * l4.speed_factor
    )
    # Batching behaviour and jitter are model properties: unchanged.
    assert scaled.batching_gain == light.latency.batching_gain
    assert scaled.jitter == light.latency.jitter
    # Memoized: same object per (variant, class); baseline class shares the
    # variant's own profile object.
    assert variant_profile(light, l4) is scaled
    assert variant_profile(light, get_device_class("a100")) is light.latency
    with pytest.raises(ValueError):
        light.latency.scaled(0.0)


def test_worker_on_slow_device_executes_and_reloads_slower(cascade1):
    from repro.core.worker import Worker
    from repro.models.generation import ImageGenerator
    from repro.simulator.simulation import Simulator

    sim = Simulator(seed=0)
    generator = ImageGenerator(seed=0)
    l4 = get_device_class("l4")
    slow = Worker(sim, worker_id=0, variant=cascade1.light, generator=generator,
                  reload_latency=0.5, device=l4)
    fast = Worker(sim, worker_id=1, variant=cascade1.light, generator=generator,
                  reload_latency=0.5, device=get_device_class("a100"))
    assert slow.device_name == "l4" and fast.device_name == "a100"
    assert slow.latency_profile.latency(4) == pytest.approx(
        fast.latency_profile.latency(4) * l4.speed_factor, rel=1e-9
    )
    assert slow.reload_latency == pytest.approx(0.5 * l4.reload_factor)
    assert fast.reload_latency == pytest.approx(0.5)
    # Variant switches keep the device profile.
    slow.set_variant(cascade1.heavy)
    assert slow.latency_profile is variant_profile(cascade1.heavy, l4)


# ------------------------------------------------ homogeneous regression pins
#: (demand, num_light, num_heavy, light_batch, heavy_batch, threshold,
#:  heavy_fraction, feasible) recorded from the pre-fleet allocator on the
#: session fixtures (16 workers, SLO 5, observed deferral 0.4).
PRE_FLEET_PLANS = [
    (3.0, 1, 15, 16, 1, 1.0, 0.865, True),
    (6.0, 1, 15, 16, 1, 1.0, 0.865, True),
    (10.0, 2, 14, 1, 2, 0.96528, 0.85, True),
    (16.0, 2, 14, 1, 2, 0.410502, 0.5, True),
    (22.0, 3, 13, 1, 2, 0.233784, 0.3525, True),
    (28.0, 4, 12, 1, 2, 0.140007, 0.2525, True),
]


def test_default_fleet_reproduces_pre_fleet_allocator_decisions(allocator):
    for demand, nl, nh, lb, hb, threshold, fraction, feasible in PRE_FLEET_PLANS:
        plan = allocator.plan(
            ControlContext(
                demand=demand, slo=5.0, fleet=FleetSpec.homogeneous(16), observed_deferral=0.4
            )
        )
        assert plan.feasible == feasible
        assert (plan.num_light, plan.num_heavy) == (nl, nh)
        assert (plan.light_batch, plan.heavy_batch) == (lb, hb)
        assert plan.threshold == pytest.approx(threshold, abs=1e-6)
        assert plan.heavy_fraction == pytest.approx(fraction, abs=1e-6)
        # The typed assignment mirrors the totals on the single class.
        assert plan.light_assignment == {"a100": nl}
        assert plan.heavy_assignment == {"a100": nh}


# ------------------------------------------------------------ mixed-fleet MILP
def test_mixed_fleet_problem_indexes_variables_by_class(allocator):
    ctx = ControlContext(
        demand=16.0, slo=5.0, fleet=mixed_fleet(a100=8, h100=4), observed_deferral=0.4
    )
    problem = allocator.build_problem(ctx, 1, 2, 16.8)
    names = set(problem.variables)
    assert {"x1[a100]", "x1[h100]", "x2[a100]", "x2[h100]", "f"} <= names
    assert "x1" not in names
    constraint_names = [c.name for c in problem.constraints]
    assert "capacity[a100]" in constraint_names
    assert "capacity[h100]" in constraint_names
    assert "min-light" in constraint_names
    # Per-class capacity bounds the split by the class's count.
    for device, count in ctx.fleet.devices:
        assert problem.variables[f"x1[{device.name}]"].upper == count
        assert problem.variables[f"x2[{device.name}]"].upper == count


def test_memory_tier_excludes_class_from_heavy_pool_variables(deferral_profile):
    cascade3 = get_cascade("sdxlltn")  # heavy = SDXL, 24 GB
    allocator = DiffServeAllocator(cascade3.light, cascade3.heavy, deferral_profile)
    ctx = ControlContext(
        demand=4.0, slo=15.0, fleet=mixed_fleet(a100=4, t4=4), observed_deferral=0.3
    )
    problem = allocator.build_problem(ctx, 1, 1, 4.2)
    assert "x2[t4]" not in problem.variables  # SDXL does not fit a T4
    assert "x1[t4]" in problem.variables  # SDXL-Lightning (16 GB) does
    assert "x2[a100]" in problem.variables


def test_mixed_fleet_plan_respects_per_class_capacity(allocator):
    fleet = mixed_fleet(a100=8, h100=4, l4=8)
    plan = allocator.plan(
        ControlContext(demand=20.0, slo=5.0, fleet=fleet, observed_deferral=0.4)
    )
    assert plan.feasible
    for name in set(plan.light_assignment) | set(plan.heavy_assignment):
        used = plan.light_assignment.get(name, 0) + plan.heavy_assignment.get(name, 0)
        assert used <= fleet.count_for(name)
    assert plan.total_workers <= fleet.total_workers


def test_mixed_fleet_beats_equal_cost_homogeneous_capacity(allocator):
    """At high demand, the typed MILP finds more deferral capacity in a mixed
    fleet than the same-cost homogeneous one (cheap devices soak up the light
    pool, freeing the fast tier for the heavy model)."""
    homo = allocator.plan(
        ControlContext(demand=30.0, slo=5.0, fleet=mixed_fleet(a100=16), observed_deferral=0.4)
    )
    mixed = allocator.plan(
        ControlContext(
            demand=30.0, slo=5.0, fleet=mixed_fleet(h100=7, l4=11), observed_deferral=0.4
        )
    )
    assert homo.feasible and mixed.feasible
    assert mixed.threshold >= homo.threshold - 1e-9


# -------------------------------------------------------- spare-worker policy
def test_spare_workers_deterministic_tiebreak_under_mixed_fleet(allocator):
    """Pins the spare-assignment order: fastest class first (ascending
    speed_factor, then name), spares join the preferred pool only where the
    class is eligible for it, and classes eligible for neither stay idle."""
    fleet = mixed_fleet(a100=4, h100=2, l4=4)
    classes = {d.name: d for d in fleet.classes}
    plan = AllocationPlan(
        light_batch=4,
        heavy_batch=2,
        threshold=0.5,
        heavy_fraction=0.4,
        light_assignment={"l4": 2},
        heavy_assignment={"a100": 2},
    )
    out = allocator._assign_spare_workers(
        plan,
        fleet,
        light_classes=[classes["l4"]],
        heavy_classes=[classes["a100"], classes["h100"]],
    )
    # Deferring plan: spares prefer heavy.  h100 (fastest) and a100 are
    # heavy-eligible; l4 is light-only; nothing is left idle here.
    assert out.heavy_assignment == {"a100": 4, "h100": 2}
    assert out.light_assignment == {"l4": 4}
    assert out.num_light == 4 and out.num_heavy == 6
    assert out.total_workers == fleet.total_workers


def test_spare_workers_ineligible_class_stays_idle(allocator):
    fleet = mixed_fleet(a100=2, t4=2)
    classes = {d.name: d for d in fleet.classes}
    plan = AllocationPlan(
        light_batch=1,
        heavy_batch=1,
        threshold=0.5,
        heavy_fraction=0.4,
        light_assignment={"a100": 1},
        heavy_assignment={"a100": 1},
    )
    out = allocator._assign_spare_workers(
        plan, fleet, light_classes=[classes["a100"]], heavy_classes=[classes["a100"]]
    )
    # The t4s are eligible for neither pool: they stay idle rather than
    # being force-assigned.
    assert out.light_assignment == {"a100": 1}
    assert out.heavy_assignment == {"a100": 1}
    assert out.total_workers == 2


# ------------------------------------------------- warm starts across reshapes
def test_warm_start_repair_survives_fleet_shape_change(allocator):
    """A warm plan referencing a device class whose count shrank (or that
    disappeared entirely) must be repaired onto the new shape, not crash."""
    big = mixed_fleet(a100=8, h100=4, l4=8)
    plan = allocator.plan(
        ControlContext(demand=20.0, slo=5.0, fleet=big, observed_deferral=0.4)
    )
    assert plan.feasible
    # Same classes, shrunk counts.
    shrunk = mixed_fleet(a100=4, h100=2, l4=4)
    repaired = allocator.plan(
        ControlContext(demand=12.0, slo=5.0, fleet=shrunk, observed_deferral=0.4),
        warm_start=plan,
    )
    assert repaired.feasible
    for name in set(repaired.light_assignment) | set(repaired.heavy_assignment):
        used = repaired.light_assignment.get(name, 0) + repaired.heavy_assignment.get(name, 0)
        assert used <= shrunk.count_for(name)
    # A class from the warm plan vanishes entirely.
    no_h100 = mixed_fleet(a100=8, l4=8)
    repaired = allocator.plan(
        ControlContext(demand=12.0, slo=5.0, fleet=no_h100, observed_deferral=0.4),
        warm_start=plan,
    )
    assert repaired.feasible
    assert "h100" not in repaired.light_assignment
    assert "h100" not in repaired.heavy_assignment


def test_warm_assignment_clamps_to_current_fleet(allocator):
    fleet = mixed_fleet(a100=2, l4=4)
    ctx = ControlContext(demand=8.0, slo=5.0, fleet=fleet, observed_deferral=0.4)
    stale = AllocationPlan(
        light_batch=1,
        heavy_batch=2,
        threshold=0.5,
        heavy_fraction=0.4,
        light_assignment={"l4": 6},           # l4 count shrank to 4
        heavy_assignment={"a100": 4, "h100": 2},  # h100 no longer exists
    )
    classes = {d.name: d for d in fleet.classes}
    assignment = allocator._warm_assignment(
        stale, 1, 2, 8.4, ctx,
        light_classes=[classes["a100"], classes["l4"]],
        heavy_classes=[classes["a100"], classes["l4"]],
    )
    assert set(assignment) == {"x1[a100]", "x1[l4]", "x2[a100]", "x2[l4]", "f"}
    assert assignment["x1[l4]"] <= 4
    assert assignment["x2[a100]"] <= 2
    assert 0.0 <= assignment["f"] <= 1.0


# ------------------------------------------------------------- control plane
def _controller(fleet, cascade, dataset, policy):
    """A Controller over one worker per fleet slot, built in fleet order."""
    from repro.core.config import RoutingMode
    from repro.core.controller import Controller
    from repro.core.load_balancer import LoadBalancer
    from repro.core.results import ResultCollector
    from repro.core.worker import Worker
    from repro.models.generation import ImageGenerator
    from repro.simulator.simulation import Simulator

    config = SystemConfig(cascade=cascade, fleet=fleet, routing=RoutingMode.CASCADE)
    sim = Simulator(seed=0)
    generator = ImageGenerator(seed=0)
    workers = []
    for device, count in fleet.devices:
        for _ in range(count):
            workers.append(
                Worker(sim, worker_id=len(workers), variant=cascade.light,
                       generator=generator, device=device)
            )
    lb = LoadBalancer(sim, routing=RoutingMode.CASCADE)
    return Controller(
        sim, config, workers, lb, ResultCollector(dataset), policy, {}, None,
    )


def test_controller_maps_typed_assignments_onto_device_groups(coco_dataset, cascade1):
    from repro.baselines.clipper import ClipperPolicy

    controller = _controller(
        mixed_fleet(a100=2, l4=3), cascade1, coco_dataset, ClipperPolicy(cascade1.light)
    )
    lb = controller.load_balancer
    plan = AllocationPlan(
        light_batch=1, heavy_batch=1, threshold=0.5,
        light_assignment={"a100": 1, "l4": 1}, heavy_assignment={"a100": 1, "l4": 1},
    )
    controller._apply_plan(plan)
    assert [w.device_name for w in lb.light_pool] == ["a100", "l4"]
    assert [w.device_name for w in lb.heavy_pool] == ["a100", "l4"]
    # The fifth worker (second spare l4) received no assignment: idle.
    assert len(lb.light_pool) + len(lb.heavy_pool) == 4

    # set_fleet shrinks the active fleet; over-shrinking is rejected with the
    # offending class named.
    controller.set_fleet(mixed_fleet(a100=1, l4=2))
    assert controller.active_fleet.total_workers == 3
    with pytest.raises(ValueError, match="fleet class 'l4': count 9 exceeds"):
        controller.set_fleet(mixed_fleet(l4=9))


@settings(max_examples=200, deadline=None)
@given(
    counts=st.dictionaries(
        st.sampled_from(sorted(DEVICE_CLASSES)), st.integers(1, 6), min_size=1, max_size=4
    ),
    data=st.data(),
)
def test_fleet_order_split_equals_slicing_class_grouped_workers(counts, data):
    """The baselines' split is the flat slice of a class-grouped worker list:
    light ``[:L]``, heavy ``[L:L+H]``, so heavy workers start where the light
    pool stopped rather than at the first class."""
    fleet = fleet_from_counts(counts)
    total = fleet.total_workers
    num_light = data.draw(st.integers(0, total), label="num_light")
    num_heavy = data.draw(st.integers(0, total - num_light), label="num_heavy")
    grouped = [device.name for device, count in fleet.devices for _ in range(count)]
    light, heavy = fleet_order_split(fleet, num_light, num_heavy)
    assert list(light.items()) == list(Counter(grouped[:num_light]).items())
    assert list(heavy.items()) == list(
        Counter(grouped[num_light : num_light + num_heavy]).items()
    )


def test_fleet_order_split_rejects_splits_larger_than_the_fleet():
    fleet = mixed_fleet(a100=2, l4=4)
    assert fleet_order_split(fleet, 3, 2) == ({"a100": 2, "l4": 1}, {"l4": 2})
    with pytest.raises(ValueError, match="exceed the fleet's 6"):
        fleet_order_split(fleet, 4, 3)


def test_baseline_plans_select_the_flat_slice_on_a_healthy_fleet(coco_dataset, cascade1):
    """Clipper and Proteus plans pick the same workers, in the same order, as
    slicing the class-grouped worker list by their totals."""
    from repro.baselines.clipper import ClipperPolicy
    from repro.baselines.proteus import ProteusPolicy

    fleet = mixed_fleet(a100=2, l4=4)
    controller = _controller(fleet, cascade1, coco_dataset, ClipperPolicy(cascade1.light))
    workers = controller.workers
    plans = [ClipperPolicy(cascade1.light).plan(ControlContext(demand=4.0, slo=5.0, fleet=fleet))]
    proteus = ProteusPolicy(cascade1)
    plans += [
        proteus.plan(ControlContext(demand=demand, slo=5.0, fleet=fleet))
        for demand in (4.0, 24.0, 32.0, 64.0)
    ]
    splits = {(plan.num_light, plan.num_heavy) for plan in plans}
    # Heavy pools starting in the first class, at a class boundary, and
    # mid-way through the second class are all covered.
    assert {(6, 0), (1, 5), (2, 4), (3, 3)} <= splits
    for plan in plans:
        light_pool, heavy_pool = controller._select_pools(plan)
        num_light, num_heavy = plan.num_light, plan.num_heavy
        assert light_pool == workers[:num_light]
        assert heavy_pool == workers[num_light : num_light + num_heavy]


def test_mixed_fleet_simulation_end_to_end(coco_dataset, trained_discriminator, cascade1):
    from repro.baselines.registry import build_system

    system = build_system(
        "sdturbo",
        fleet=mixed_fleet(a100=2, l4=4),
        dataset=coco_dataset,
        discriminator=trained_discriminator,
        seed=0,
    )
    from repro.workloads import make_workload

    result = system.run(make_workload("static", duration=20.0, qps=4.0))
    summary = result.summary()
    assert summary["completed"] > 0
    assert 0.0 <= summary["slo_violation_ratio"] <= 1.0


# --------------------------------------------------------------- fleet study
def test_heterogeneity_study_is_deterministic_and_serial_equals_pool(tmp_path, monkeypatch):
    import json
    from dataclasses import replace

    from repro.experiments.harness import ExperimentScale
    from repro.experiments.studies import STUDIES, Arm, run_study

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    scale = ExperimentScale(dataset_size=60, trace_duration=12.0, num_workers=2, seed=0)
    study = replace(
        STUDIES["fleet"],
        arms=(
            Arm(("mmpp", "a100x2"), {"workload": "mmpp", "fleet": (("a100", 2),)}),
            Arm(("mmpp", "mix"), {"workload": "mmpp", "fleet": (("a100", 1), ("l4", 3))}),
        ),
    )

    def snapshot(jobs, use_cache):
        result = run_study(study, scale=scale, jobs=jobs, use_cache=use_cache)
        return json.dumps(
            {"/".join(row): summary for row, summary in result.summaries.items()},
            sort_keys=True,
        )

    serial = snapshot(jobs=1, use_cache=True)
    # Byte-identical on repeat (cache hit) and with the cache bypassed.
    assert snapshot(jobs=1, use_cache=True) == serial
    assert snapshot(jobs=1, use_cache=False) == serial
    # Byte-identical across the process pool.
    assert snapshot(jobs=2, use_cache=False) == serial


def test_heterogeneity_rejects_unequal_cost_fleets():
    from dataclasses import replace

    from repro.experiments.studies import (
        FLEET_COST_TOLERANCE,
        STUDIES,
        Arm,
        check_equal_cost,
        run_study,
    )

    def arms(*fleets):
        return tuple(
            Arm(("mmpp", name), {"workload": "mmpp", "fleet": tuple(counts.items())})
            for name, counts in fleets
        )

    unequal = arms(("ref", {"a100": 16}), ("cheap", {"l4": 4}))
    # Rejected before any cell runs.
    with pytest.raises(ValueError, match="equal-cost comparison"):
        run_study(replace(STUDIES["fleet"], arms=unequal))
    with pytest.raises(ValueError, match="fleet 'cheap'.*equal-cost comparison"):
        check_equal_cost(unequal, FLEET_COST_TOLERANCE)
    equal = arms(("ref", {"a100": 16}), ("mix", {"h100": 7, "l4": 11}))
    check_equal_cost(equal, FLEET_COST_TOLERANCE)
