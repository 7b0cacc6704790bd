"""Fault injection and self-healing recovery: parsing, determinism, accounting.

The contract under test (PR 8 tentpole):

* a :class:`~repro.faults.plan.FaultPlan` is a pure, canonical description —
  tokens are deterministic and equivalent spellings share one token;
* ``faults=None`` stays bit-for-bit legacy (pinned against the PR 7 golden);
* fault scenarios are deterministic: same seed + same plan means
  byte-identical summaries, serial and sharded alike;
* recovery conserves queries — every arrival gets exactly one terminal
  record, retries notwithstanding — and backoff delays grow monotonically
  per query;
* an unmitigated mid-epoch crash degrades gracefully (drops, completes)
  instead of raising.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.allocator import AllocationPlan
from repro.core.config import FleetSpec, fleet_from_counts
from repro.core.sharding import run_sharded
from repro.baselines.registry import build_system
from repro.core.system import ClientSource
from repro.faults.plan import (
    FAULT_PLANS,
    CrashStorm,
    FaultPlan,
    RecoveryConfig,
    RegionPartition,
    SpotRevocation,
    StragglerSlowdown,
    WorkerCrash,
)
from repro.faults.plan_store import PlanStore
from repro.runner.dimensions import DIMENSIONS
from repro.runner.executor import canonical_summaries_json
from repro.simulator.rng import RandomStreams
from repro.workloads import make_workload

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

FAULTS = DIMENSIONS["faults"]

# Hypothesis settings: keep runtimes modest (each example is a full
# simulation), silence fixture-scope warnings.
_SETTINGS = dict(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def small_system(faults=None, **overrides):
    defaults = dict(
        fleet=FleetSpec.homogeneous(4),
        dataset_size=100,
        seed=3,
        replan_epoch=3.0,
        replan_policy="adaptive",
    )
    defaults.update(overrides)
    return build_system(faults=faults, **defaults)


def small_workload(seed=3):
    return make_workload("static", duration=40.0, qps=6.0, seed=seed)


def run_prepared(system, workload, *, duration=None):
    """Run via the runtime so internals (load balancer, injector) stay visible."""
    runtime = system.prepare()
    source = ClientSource(
        runtime.sim, workload, system.dataset, runtime.load_balancer, system.config.slo
    )
    horizon = duration if duration is not None else system.horizon(workload)
    runtime.sim.run(until=horizon)
    return runtime, source, runtime.result(horizon)


# ------------------------------------------------------------------- parsing
def test_catalog_names_parse():
    for name in FAULT_PLANS:
        plan = FAULTS.parse(name)
        assert isinstance(plan, FaultPlan)
        assert plan is FAULTS.lookup(name)


def test_blank_parses_to_none():
    assert FAULTS.parse(None) is None
    assert FAULTS.parse("") is None
    assert FAULTS.parse("   ") is None


def test_unknown_catalog_name_is_one_line_error():
    with pytest.raises(ValueError, match="unknown fault plan 'nope'"):
        FAULTS.parse("nope")


def test_malformed_json_is_one_line_error():
    with pytest.raises(ValueError, match="malformed JSON for --faults"):
        FAULTS.parse('{"faults": [')


def test_unknown_fault_kind_names_the_kind():
    with pytest.raises(ValueError, match="meteor"):
        FAULTS.parse('{"faults": [{"kind": "meteor", "at": 1.0}]}')


def test_unknown_fault_key_names_the_key():
    with pytest.raises(ValueError, match="worker_idx"):
        FAULTS.parse('{"faults": [{"kind": "crash", "worker_idx": 0, "at": 1.0}]}')


def test_out_of_range_param_names_the_key():
    with pytest.raises(ValueError, match="at"):
        FAULTS.parse('{"faults": [{"kind": "crash", "worker": 0, "at": -5}]}')
    with pytest.raises(ValueError, match="factor"):
        FAULTS.parse(
            '{"faults": [{"kind": "straggler", "worker": 0, "at": 1, '
            '"duration": 5, "factor": 0.5}]}'
        )


def test_unknown_top_level_key_rejected():
    with pytest.raises(ValueError, match="banana"):
        FAULTS.parse('{"faults": [], "banana": 1}')


def test_recovery_spellings():
    on = FAULTS.parse('{"faults": [], "recovery": true}')
    assert on.recovery == RecoveryConfig()
    off = FAULTS.parse('{"faults": [], "recovery": false}')
    assert off.recovery is None
    tuned = FAULTS.parse('{"faults": [], "recovery": {"retry_budget": 5}}')
    assert tuned.recovery.retry_budget == 5
    with pytest.raises(ValueError, match="retry_allowance"):
        FAULTS.parse('{"faults": [], "recovery": {"retry_allowance": 5}}')
    # A repeated key must not silently keep the last spelling.
    with pytest.raises(ValueError, match="duplicate key 'recovery'"):
        FAULTS.parse('{"faults": [], "recovery": false, "recovery": true}')


def test_fault_param_validation():
    with pytest.raises(ValueError):
        WorkerCrash(worker=-1, at=1.0)
    with pytest.raises(ValueError):
        StragglerSlowdown(worker=0, at=1.0, duration=0.0)
    with pytest.raises(ValueError):
        SpotRevocation(worker=0, at=1.0, notice=-1.0)
    with pytest.raises(ValueError):
        CrashStorm(count=0, at=1.0, duration=5.0)
    with pytest.raises(ValueError):
        RecoveryConfig(retry_budget=-1)


# -------------------------------------------------------------------- tokens
def test_tokens_are_canonical():
    # Fault order does not matter: FaultPlan sorts canonically.
    a = FaultPlan(faults=(WorkerCrash(1, 8.0), StragglerSlowdown(0, 2.0, 10.0)))
    b = FaultPlan(faults=(StragglerSlowdown(0, 2.0, 10.0), WorkerCrash(1, 8.0)))
    assert a.token() == b.token()
    assert a == b


def test_json_spelling_shares_catalog_token():
    json_plan = FAULTS.parse('{"faults": [{"kind": "crash", "worker": 1, "at": 8.0}]}')
    assert json_plan.token() == FAULTS.lookup("crash").token()


def test_spec_token_includes_resolved_faults():
    from repro.experiments.harness import ExperimentScale
    from repro.runner.spec import ExperimentSpec

    scale = ExperimentScale()
    bare = ExperimentSpec(cascade="sdturbo", scale=scale)
    assert "faults(" not in bare.token()
    spec = ExperimentSpec(cascade="sdturbo", scale=scale, faults="crash")
    assert f"faults({FAULTS.lookup('crash').token()})" in spec.token()
    json_spec = ExperimentSpec(
        cascade="sdturbo",
        scale=scale,
        faults='{"faults": [{"kind": "crash", "worker": 1, "at": 8.0}]}',
    )
    assert json_spec.content_hash == spec.content_hash
    with pytest.raises(ValueError, match="unknown fault plan"):
        ExperimentSpec(cascade="sdturbo", scale=scale, faults="nope")


# -------------------------------------------------- golden: faults=None legacy
#: PR 7 golden for the adaptive re-planned flash-crowd cell (see
#: tests/test_resources_regression.py); ``faults=None`` must reproduce it
#: bit-for-bit — arming the faults *dimension* without a plan changes nothing.
GOLDEN_REPLAN = {
    "total_queries": 354.0,
    "completed": 352.0,
    "fid": 18.4136463436761,
    "slo_violation_ratio": 0.005649717514124294,
    "deferral_rate": 0.13920454545454544,
    "dropped": 2.0,
    "mean_quality": 0.7277457801755226,
    "mean_latency": 0.8601924912424341,
    "p50_latency": 0.20735231122277575,
    "p99_latency": 3.8771323032797107,
    "fleet_cost": 0.06666666666666667,
}


def test_faults_none_matches_pr7_golden():
    system = build_system(
        "sdturbo",
        fleet=FleetSpec.homogeneous(4),
        dataset_size=120,
        seed=0,
        replan_epoch=3.0,
        replan_policy="adaptive",
        faults=None,
    )
    workload = make_workload("flash-crowd", duration=40.0, qps=6.0, seed=0)
    assert system.run(workload).summary() == GOLDEN_REPLAN


def test_quiet_plan_matches_faults_none_summary():
    """Arming recovery with zero faults must not perturb a healthy run."""
    baseline = small_system().run(small_workload()).summary()
    quiet = small_system(faults=FAULTS.lookup("quiet")).run(small_workload()).summary()
    assert canonical_summaries_json({"s": quiet}) == canonical_summaries_json({"s": baseline})


# -------------------------------------------------------------- determinism
@pytest.mark.xdist_group("sharding-determinism")
@pytest.mark.parametrize("plan_name", ["storm", "chaos"])
def test_fault_runs_deterministic_serial_vs_sharded(plan_name):
    """Same seed + same FaultPlan: byte-identical summaries, serial vs sharded.

    ``chaos`` exercises the stochastic crash storm, whose times/targets are
    drawn from the sim's named ``faults`` stream — a pure function of the
    seed, so sharding cannot perturb it.
    """
    serial = small_system(faults=FAULTS.lookup(plan_name)).run(small_workload())
    sharded = run_sharded(small_system(faults=FAULTS.lookup(plan_name)), small_workload())
    assert canonical_summaries_json({"s": sharded.summary()}) == canonical_summaries_json(
        {"s": serial.summary()}
    )


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    plan_name=st.sampled_from(["crash", "storm", "chaos"]),
)
@settings(**_SETTINGS)
def test_fault_runs_deterministic_across_repeats(seed, plan_name):
    """Hypothesis: any (seed, plan) pair reproduces byte-identically."""

    def once():
        system = small_system(faults=FAULTS.lookup(plan_name), seed=seed, dataset_size=60)
        return system.run(make_workload("static", duration=20.0, qps=5.0, seed=seed)).summary()

    assert canonical_summaries_json({"s": once()}) == canonical_summaries_json({"s": once()})


# -------------------------------------------------------- retry accounting
def test_retries_conserve_query_count():
    """Every arrival gets exactly one terminal record, retries notwithstanding."""
    workload = small_workload()
    trace = workload.sample(RandomStreams(3))
    # Generous horizon so retried queries resolve before the run ends.
    horizon = trace.duration + 30.0
    runtime, source, result = run_prepared(
        small_system(faults=FAULTS.lookup("storm")), trace, duration=horizon
    )
    summary = result.summary()
    assert runtime.load_balancer.requeues > 0, "storm should exercise the retry path"
    assert summary["total_queries"] == source.total_queries
    assert summary["completed"] + summary["dropped"] == summary["total_queries"]
    # Retried queries carry their retry count in their row, and the recorded
    # retries never exceed the load balancer's requeue notifications.
    recorded_retries = int(result.cols.retries.sum())
    assert recorded_retries > 0
    assert recorded_retries <= runtime.load_balancer.requeues


def test_backoff_delays_monotone_per_query():
    runtime, _, _ = run_prepared(
        small_system(faults=FAULTS.lookup("storm")), small_workload()
    )
    log = runtime.load_balancer.retry_log
    assert log, "storm should schedule retries"
    per_query = {}
    for query_id, delay in log:
        per_query.setdefault(query_id, []).append(delay)
    for query_id, delays in per_query.items():
        assert delays == sorted(delays), f"query {query_id} backoff not monotone: {delays}"
    # Exponential: consecutive retries of one query double the delay.
    for delays in per_query.values():
        for first, second in zip(delays, delays[1:]):
            assert second == pytest.approx(2.0 * first)


@given(budget=st.integers(min_value=0, max_value=3))
@settings(**_SETTINGS)
def test_retry_budget_bounds_requeues(budget):
    """Requeues per query never exceed the configured retry budget."""
    plan = FaultPlan(
        faults=(WorkerCrash(1, 6.0), WorkerCrash(2, 9.0)),
        recovery=RecoveryConfig(retry_budget=budget),
    )
    runtime, _, result = run_prepared(
        small_system(faults=plan, dataset_size=60),
        make_workload("static", duration=20.0, qps=5.0, seed=3),
    )
    assert result.cols.retries.max(initial=0) <= budget


# -------------------------------------------------- graceful degradation
def test_unmitigated_crash_degrades_gracefully():
    """A mid-epoch crash with recovery off costs queries, never the run."""
    result = small_system(faults=FAULTS.lookup("crash-norecovery")).run(small_workload())
    summary = result.summary()
    assert summary["completed"] > 0
    assert summary["dropped"] > 0  # the orphaned in-flight work is accounted
    assert summary["completed"] + summary["dropped"] == summary["total_queries"]


def test_unrecovered_crash_leaves_proteus_slot_empty_in_its_class():
    """Without recovery a dead worker still counts in the active fleet.  Its
    slot in the plan stays empty in its own class for every system: Proteus's
    fleet-order split of 2 light + 4 heavy on ``a100=1,l4=5`` puts one light
    worker on the dead a100, so the light pool runs one l4 short while the
    heavy pool keeps all four l4 workers."""
    system = build_system(
        "sdturbo",
        "proteus",
        fleet=fleet_from_counts({"a100": 1, "l4": 5}),
        dataset_size=100,
        seed=0,
        faults=FaultPlan(faults=(WorkerCrash(0, 1.0),), recovery=None),
    )
    runtime, _, _ = run_prepared(
        system, make_workload("static", duration=60.0, qps=20.0, seed=0)
    )
    history = runtime.controller.history
    assert (history[0].time, history[0].num_light, history[0].num_heavy) == (0.0, 1, 5)
    # The first re-plan after the crash at t=1 (the 5 s control tick).
    replan = history[1]
    assert (replan.time, replan.num_light, replan.num_heavy) == (5.0, 1, 4)


def test_recovery_beats_norecovery_under_storm():
    """The chaos experiment's headline, at unit-test scale."""
    fleet = FleetSpec.homogeneous(6)
    on = small_system(faults=FAULTS.lookup("storm"), fleet=fleet).run(small_workload())
    off = small_system(faults=FAULTS.lookup("storm-norecovery"), fleet=fleet).run(
        small_workload()
    )
    assert on.summary()["slo_violation_ratio"] <= off.summary()["slo_violation_ratio"] + 1e-9
    assert on.summary()["p99_latency"] <= off.summary()["p99_latency"] + 1e-9


def test_revocation_notice_drains_before_kill():
    system = small_system(faults=FAULTS.lookup("revocation"))
    workload = small_workload()
    runtime, _, result = run_prepared(system, workload)
    injector = next(a for a in runtime.sim.actors if a.name == "fault-injector")
    assert any("decommissioned" in line for _, line in injector.log)
    assert result.summary()["completed"] > 0


def test_solver_timeout_degrades_to_last_known_good():
    runtime, _, result = run_prepared(
        small_system(faults=FAULTS.lookup("solver-timeout")), small_workload()
    )
    # The plan store recalled at least one last-known-good plan...
    assert runtime.controller.plan_store is not None
    assert runtime.controller.plan_store.recalls > 0
    # ... the control loop marked those epochs degraded ...
    assert any(snapshot.degraded for snapshot in runtime.controller.epoch_history)
    # ... and the system kept serving.
    assert result.summary()["completed"] > 0


# ------------------------------------------------------------- plan store
def _typed_plan(**overrides):
    defaults = dict(
        light_batch=4,
        heavy_batch=2,
        threshold=0.5,
        heavy_fraction=0.25,
        feasible=True,
        light_assignment={"a100": 3},
        heavy_assignment={"a100": 1},
    )
    defaults.update(overrides)
    return AllocationPlan(**defaults)


def test_plan_store_records_only_feasible():
    store = PlanStore()
    fleet = fleet_from_counts({"a100": 4})
    store.record(_typed_plan(), fleet)
    store.record(_typed_plan(feasible=False, light_assignment={}, heavy_assignment={}), fleet)
    assert len(store) == 1


def test_plan_store_capacity_bounded():
    store = PlanStore(capacity=3)
    fleet = fleet_from_counts({"a100": 4})
    for _ in range(10):
        store.record(_typed_plan(), fleet)
    assert len(store) == 3


def test_plan_store_recall_clamps_to_shrunken_fleet():
    store = PlanStore()
    store.record(_typed_plan(), fleet_from_counts({"a100": 4}))
    recalled = store.recall(fleet_from_counts({"a100": 2}))
    assert recalled is not None
    assert recalled.num_light + recalled.num_heavy <= 2
    assert not recalled.feasible  # degraded, never re-recorded
    assert store.recalls == 1


def test_plan_store_recall_none_when_empty():
    store = PlanStore()
    assert store.recall(fleet_from_counts({"a100": 2})) is None
    assert store.last_known_good is None


def test_plan_store_recall_does_not_mutate_recorded_plan():
    store = PlanStore()
    store.record(_typed_plan(), fleet_from_counts({"a100": 4}))
    store.recall(fleet_from_counts({"a100": 1}))
    kept = store.last_known_good
    assert kept.feasible and kept.num_light == 3


# -------------------------------------------------------------- partitions
def test_partition_fault_validated():
    with pytest.raises(ValueError):
        RegionPartition(region="", at=1.0, duration=5.0)
    plan = FAULTS.parse(
        '{"faults": [{"kind": "partition", "region": "eu", "at": 1.0, "duration": 5.0}]}'
    )
    assert isinstance(plan.faults[0], RegionPartition)


def test_geo_router_skips_partitioned_regions():
    from repro.core.geo import GeoRouter, GeoTopology, RegionSpec

    topology = GeoTopology(
        regions=(
            RegionSpec(name="eu", fleet=fleet_from_counts({"a100": 2}), rtt_s=0.02),
            RegionSpec(name="us", fleet=fleet_from_counts({"a100": 2}), rtt_s=0.01),
        )
    )
    router = GeoRouter(topology)
    with pytest.raises(KeyError):
        router.set_partitioned(["mars"])
    us = next(r for r in topology.regions if r.name == "us")
    # Heavy backlog in "us" would normally spill into the idle "eu" region...
    router.loads["us"].routed = 1000
    router.set_partitioned(["eu"])
    assert router.partitioned == frozenset({"eu"})
    # ... but the link into a partitioned region is down, so the query stays.
    assert router.route(us).region == "us"
    router.set_partitioned([])
    assert router.route(us).region == "eu"
    # A partitioned *origin* cannot spill out either.
    router.set_partitioned(["us"])
    assert router.route(us).region == "us"


# ------------------------------------------------------------- worker model
def test_worker_fail_is_idempotent_and_orphans_once():
    system = small_system()
    runtime = system.prepare()
    runtime.sim.start()
    worker = runtime.controller.workers[0]
    orphans = worker.fail()
    assert worker.failed
    assert worker.fail() == []  # second call is a no-op
    assert not worker.queue and not worker._inflight
    assert isinstance(orphans, list)


def test_failed_worker_routes_enqueues_to_on_fail():
    system = small_system()
    runtime = system.prepare()
    runtime.sim.start()
    worker = runtime.controller.workers[0]
    worker.fail()
    caught = []
    worker.on_fail = caught.append
    from repro.core.query import Query
    from repro.core.worker import WorkItem

    query = Query(query_id=0, arrival_time=0.0, prompt="p", difficulty=0.5, slo=5.0)
    worker.enqueue(WorkItem(query=query, stage="light", enqueue_time=0.0))
    assert len(caught) == 1
    assert not worker.queue  # never queued on the dead worker


# ------------------------------------------- chunked feeding / profiler gates
def test_chunk_size_and_profiler_are_summary_neutral_faulted():
    """Arrival chunking and the profiler never perturb a faulted run.

    The recovery loop (requeues, backoff retries, repairs) re-enters the
    arrival path repeatedly, so this pins the chunked feeder's neutrality on
    the gnarliest configuration: a crash storm with self-healing enabled.
    """
    workload = make_workload("static", duration=20.0, qps=5.0, seed=3)

    def run(**fields):
        system = dataclasses.replace(small_system(faults=FAULTS.lookup("storm")), **fields)
        return canonical_summaries_json({"s": system.run(workload).summary()})

    reference = run()
    assert run(arrival_chunk=1) == reference
    assert run(arrival_chunk=7) == reference
    assert run(profile=True) == reference
