"""Tests for the online re-planning control plane.

Covers the :class:`~repro.core.replanner.ReplanController` loop (static /
periodic / adaptive policies), the allocator's warm-started solve path
(incumbent seeding, relaxation-bound pruning, exhaustive fallback), and the
wiring through :func:`~repro.baselines.registry.build_system`.
"""

import copy
import json

import numpy as np
import pytest

from repro.core.allocator import ControlContext, DiffServeAllocator
from repro.core.config import FleetSpec
from repro.core.replanner import REPLAN_POLICIES, ReplanConfig
from repro.baselines.registry import build_system
from repro.simulator.rng import RandomStreams
from repro.workloads import make_workload


# ---------------------------------------------------------------- config
def test_replan_config_validation():
    assert ReplanConfig().policy in REPLAN_POLICIES
    with pytest.raises(ValueError):
        ReplanConfig(epoch=0.0)
    with pytest.raises(ValueError):
        ReplanConfig(policy="sometimes")
    with pytest.raises(ValueError):
        ReplanConfig(drift_threshold=-0.1)
    with pytest.raises(ValueError):
        ReplanConfig(violation_trigger=1.5)


def test_build_diffserve_system_replan_wiring(
    coco_dataset, trained_discriminator, deferral_profile
):
    system = build_system(
        "sdturbo",
        fleet=FleetSpec.homogeneous(4),
        dataset=coco_dataset,
        discriminator=trained_discriminator,
        deferral_profile=deferral_profile,
        replan_epoch=2.5,
        replan_policy="adaptive",
    )
    assert system.replan == ReplanConfig(epoch=2.5, policy="adaptive")
    # Re-planning systems enable the small-instance exhaustive fallback.
    assert system.policy.allocator.exhaustive_cutoff > 0

    # Either flag alone enables the control plane with sensible defaults.
    system = build_system(
        "sdturbo",
        fleet=FleetSpec.homogeneous(4),
        dataset=coco_dataset,
        discriminator=trained_discriminator,
        deferral_profile=deferral_profile,
        replan_policy="periodic",
    )
    assert system.replan == ReplanConfig(epoch=5.0, policy="periodic")

    plain = build_system(
        "sdturbo",
        fleet=FleetSpec.homogeneous(4),
        dataset=coco_dataset,
        discriminator=trained_discriminator,
        deferral_profile=deferral_profile,
    )
    # Without re-planning options the loop re-solves cold every 5 s, and the
    # exhaustive fallback stays off.
    assert plain.replan == ReplanConfig(epoch=5.0, policy="periodic", warm_start=False)
    assert plain.policy.allocator.exhaustive_cutoff == 0


# ------------------------------------------------------------ warm starts
def _ctx(demand, slo, workers=16):
    return ControlContext(demand=float(demand), slo=slo, fleet=FleetSpec.homogeneous(workers))


def test_warm_started_resolves_match_cold_thresholds(
    cascade1, deferral_profile, trained_discriminator
):
    def fresh():
        return DiffServeAllocator(
            cascade1.light,
            cascade1.heavy,
            deferral_profile,
            discriminator_latency=trained_discriminator.latency_s,
        )

    cold_alloc, warm_alloc = fresh(), fresh()
    demands = np.linspace(10.0, 28.0, 12)
    plan = None
    for demand in demands:
        cold = cold_alloc.plan(_ctx(demand, cascade1.slo))
        plan = warm_alloc.plan(_ctx(demand, cascade1.slo), warm_start=plan)
        assert plan.threshold == cold.threshold
        assert plan.feasible and cold.feasible
    assert warm_alloc.warm_start_hits > 0
    assert warm_alloc.pairs_pruned_by_bound > 0
    # The first call has no previous plan, so it counts as the one cold solve.
    assert warm_alloc.warm_solves == len(demands) - 1
    assert warm_alloc.cold_solves == 1
    assert cold_alloc.cold_solves == len(demands)
    # The pruning is the point: warm re-solves pay for fewer HiGHS solves.
    assert warm_alloc.solver.total_lp_solves < cold_alloc.solver.total_lp_solves


def test_warm_start_repairs_infeasible_previous_split(
    cascade1, deferral_profile, trained_discriminator
):
    allocator = DiffServeAllocator(
        cascade1.light,
        cascade1.heavy,
        deferral_profile,
        discriminator_latency=trained_discriminator.latency_s,
    )
    low = allocator.plan(_ctx(4.0, cascade1.slo))
    # Demand quadruples: the old split under-provisions the light pool, so
    # the warm assignment must be repaired, and the solve stays optimal.
    high = allocator.plan(_ctx(16.0, cascade1.slo), warm_start=low)
    cold = DiffServeAllocator(
        cascade1.light,
        cascade1.heavy,
        deferral_profile,
        discriminator_latency=trained_discriminator.latency_s,
    ).plan(_ctx(16.0, cascade1.slo))
    assert high.feasible
    assert high.threshold == cold.threshold


def test_exhaustive_fallback_solves_small_clusters_without_lps(
    cascade1, deferral_profile, trained_discriminator
):
    with_fallback = DiffServeAllocator(
        cascade1.light,
        cascade1.heavy,
        deferral_profile,
        discriminator_latency=trained_discriminator.latency_s,
        exhaustive_cutoff=64,
    )
    without = DiffServeAllocator(
        cascade1.light,
        cascade1.heavy,
        deferral_profile,
        discriminator_latency=trained_discriminator.latency_s,
    )
    for demand in (2.0, 5.0, 8.0):
        small = with_fallback.plan(_ctx(demand, cascade1.slo, workers=4))
        reference = without.plan(_ctx(demand, cascade1.slo, workers=4))
        assert small.threshold == reference.threshold
        assert small.feasible == reference.feasible
    # Every pair solve fit under the cutoff: HiGHS never ran and the
    # closed-form exhaustive path solved zero LPs.
    assert with_fallback.solver.total_lp_solves == 0
    assert with_fallback.exhaustive_solver.total_lp_solves == 0
    assert without.solver.total_lp_solves > 0


# ------------------------------------------------------------- epoch loop
def _run_system(
    coco_dataset,
    trained_discriminator,
    deferral_profile,
    *,
    policy,
    epoch=2.0,
    kind="flash-crowd",
    duration=24.0,
    qps=4.0,
    seed=0,
):
    # The deferral profile is updated online during a run, so every run gets
    # its own copy of the fixture's state (isolation between runs is exactly
    # what the determinism test below checks).
    del deferral_profile  # profiled fresh (deterministically) per system
    system = build_system(
        "sdturbo",
        fleet=FleetSpec.homogeneous(4),
        dataset=coco_dataset,
        discriminator=trained_discriminator,
        seed=seed,
        replan_epoch=epoch,
        replan_policy=policy,
    )
    workload = make_workload(kind, duration=duration, qps=qps, qps_range=(2.0, 8.0), seed=seed)
    system.initial_demand = workload.mean_rate()
    trace = workload.sample(RandomStreams(seed))
    return system.run(trace)


def test_static_policy_never_replans(coco_dataset, trained_discriminator, deferral_profile):
    result = _run_system(coco_dataset, trained_discriminator, deferral_profile, policy="static")
    assert result.replan_history == []
    # Only the initial plan was ever applied.
    assert len(result.control_history) == 1


def test_periodic_policy_replans_every_epoch(
    coco_dataset, trained_discriminator, deferral_profile
):
    result = _run_system(coco_dataset, trained_discriminator, deferral_profile, policy="periodic")
    history = result.replan_history
    assert len(history) >= 10
    assert all(snap.replanned for snap in history)
    # Every re-solve after plan zero was warm-started.
    assert all(snap.warm_started for snap in history)
    # Applied plans: one initial + one per epoch.
    assert len(result.control_history) == len(history) + 1
    # Epochs tick on the configured cadence in simulation time.
    times = [snap.time for snap in history]
    assert times[0] == pytest.approx(2.0)
    assert np.allclose(np.diff(times), 2.0)


def test_adaptive_policy_skips_steady_state_epochs(
    coco_dataset, trained_discriminator, deferral_profile
):
    periodic = _run_system(
        coco_dataset, trained_discriminator, deferral_profile, policy="periodic"
    )
    adaptive = _run_system(
        coco_dataset, trained_discriminator, deferral_profile, policy="adaptive"
    )
    replans = sum(1 for snap in adaptive.replan_history if snap.replanned)
    skipped = sum(1 for snap in adaptive.replan_history if not snap.replanned)
    assert replans >= 1  # the flash crowd forces at least one re-solve
    assert skipped >= 1  # steady stretches are skipped
    assert replans < sum(1 for snap in periodic.replan_history if snap.replanned)
    # Skipped epochs still sample the arrival window and the demand estimate.
    for snap in adaptive.replan_history:
        assert np.isfinite(snap.arrival_rate)
        assert np.isfinite(snap.demand_estimate)


def test_replanned_run_is_deterministic(coco_dataset, trained_discriminator, deferral_profile):
    first = _run_system(coco_dataset, trained_discriminator, deferral_profile, policy="adaptive")
    second = _run_system(coco_dataset, trained_discriminator, deferral_profile, policy="adaptive")
    a = json.dumps(first.summary(), sort_keys=True)
    b = json.dumps(second.summary(), sort_keys=True)
    assert a == b
    # Control-plane decisions replay identically too: every field of every
    # epoch snapshot.
    assert first.replan_history == second.replan_history


def test_observation_window_covers_replan_epochs_longer_than_control_period(
    coco_dataset, trained_discriminator, deferral_profile
):
    # An epoch longer than the default 5 s must not truncate the balancer's
    # arrival history (that would bias the demand estimate low).
    # The running controller updates its profile online, so it gets a copy:
    # the session fixture must reach later tests unchanged.
    system = build_system(
        "sdturbo",
        fleet=FleetSpec.homogeneous(4),
        dataset=coco_dataset,
        discriminator=trained_discriminator,
        deferral_profile=copy.deepcopy(deferral_profile),
        replan_epoch=12.0,
    )
    workload = make_workload("static", duration=15.0, qps=4.0, qps_range=(2.0, 8.0), seed=0)
    result = system.run(workload.sample(RandomStreams(0)))
    snapshot = result.replan_history[0]
    # The first epoch sees the full 12 s of arrivals: at 4 qps the observed
    # rate must be in the right ballpark, not cut to 5 s/epoch of it.
    assert snapshot.arrival_rate > 2.0
