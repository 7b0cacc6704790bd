"""Tests for the Worker and LoadBalancer actors."""

import pytest

from repro.core.config import RoutingMode
from repro.core.load_balancer import LoadBalancer
from repro.core.query import Query, QueryStage
from repro.core.worker import WorkItem, Worker
from repro.discriminators.heuristics import OracleDiscriminator
from repro.models.generation import ImageGenerator
from repro.models.zoo import get_variant
from repro.simulator.simulation import Simulator


def make_query(query_id=0, arrival=0.0, difficulty=0.3, slo=5.0):
    return Query(
        query_id=query_id, arrival_time=arrival, prompt="p", difficulty=difficulty, slo=slo
    )


def make_worker(sim, variant_name="sd-turbo", **kwargs):
    return Worker(
        sim,
        worker_id=kwargs.pop("worker_id", 0),
        variant=get_variant(variant_name),
        generator=ImageGenerator(seed=0),
        reload_latency=kwargs.pop("reload_latency", 0.0),
        **kwargs,
    )


# ---------------------------------------------------------------------- worker
def test_worker_executes_single_query_and_reports_completion():
    sim = Simulator(seed=0)
    completions = []
    worker = make_worker(
        sim, on_complete=lambda item, img, conf: completions.append((item, img, conf))
    )
    worker.enqueue(WorkItem(query=make_query(), stage="light", enqueue_time=0.0))
    sim.run(until=10.0)
    assert len(completions) == 1
    item, image, conf = completions[0]
    assert image.variant_name == "sd-turbo"
    assert conf is None  # no discriminator attached
    assert worker.stats.completions == 0 or worker.queue_length == 0  # stats may be collected


def test_worker_batches_up_to_batch_size():
    sim = Simulator(seed=0)
    batches = []
    worker = make_worker(sim, batch_size=4)
    original = worker._complete_batch

    def spy(batch, latency):
        batches.append(len(batch))
        original(batch, latency)

    worker._complete_batch = spy
    for i in range(6):
        worker.enqueue(WorkItem(query=make_query(i), stage="light", enqueue_time=0.0))
    sim.run(until=30.0)
    # First batch starts immediately with 1 query, the rest batch up to 4.
    assert sum(batches) == 6
    assert max(batches) <= 4


def test_worker_discriminator_confidence_attached():
    sim = Simulator(seed=0)
    results = []
    worker = make_worker(
        sim,
        discriminator=OracleDiscriminator(),
        on_complete=lambda item, img, conf: results.append(conf),
    )
    worker.enqueue(WorkItem(query=make_query(), stage="light", enqueue_time=0.0))
    sim.run(until=10.0)
    assert len(results) == 1
    assert 0.0 <= results[0] <= 1.0


def test_worker_drops_queries_past_deadline():
    sim = Simulator(seed=0)
    drops, completions = [], []
    worker = make_worker(
        sim,
        variant_name="sd-v1.5",  # 1.78s per image
        drop_late=True,
        on_complete=lambda item, img, conf: completions.append(item),
        on_drop=lambda item: drops.append(item),
    )
    # SLO of 0.5s cannot be met by a 1.78s model.
    worker.enqueue(WorkItem(query=make_query(slo=0.5), stage="heavy", enqueue_time=0.0))
    sim.run(until=10.0)
    assert len(drops) == 1 and len(completions) == 0


def test_worker_without_drop_policy_completes_late():
    sim = Simulator(seed=0)
    completions = []
    worker = make_worker(
        sim,
        variant_name="sd-v1.5",
        drop_late=False,
        on_complete=lambda item, img, conf: completions.append(item),
    )
    worker.enqueue(WorkItem(query=make_query(slo=0.5), stage="heavy", enqueue_time=0.0))
    sim.run(until=10.0)
    assert len(completions) == 1


def test_worker_variant_switch_incurs_reload():
    sim = Simulator(seed=0)
    completions = []
    worker = make_worker(
        sim, reload_latency=2.0, on_complete=lambda item, img, conf: completions.append(sim.now)
    )
    worker.set_variant(get_variant("sd-v1.5"))
    worker.enqueue(WorkItem(query=make_query(slo=50.0), stage="heavy", enqueue_time=0.0))
    sim.run(until=20.0)
    # Completion must wait for the 2s reload plus ~1.8s execution.
    assert completions and completions[0] > 2.0
    assert worker.variant.name == "sd-v1.5"


def test_worker_same_variant_switch_is_free():
    sim = Simulator(seed=0)
    worker = make_worker(sim, reload_latency=2.0)
    worker.set_variant(get_variant("sd-turbo"))
    assert not worker.busy


def test_worker_stats_count_arrivals_completions_and_batches():
    sim = Simulator(seed=0)
    worker = make_worker(sim)
    worker.enqueue(WorkItem(query=make_query(), stage="light", enqueue_time=0.0))
    sim.run(until=5.0)
    stats = worker.stats
    assert (stats.arrivals, stats.completions, stats.batches) == (1, 1, 1)


def test_worker_batch_size_validation():
    sim = Simulator(seed=0)
    worker = make_worker(sim)
    with pytest.raises(ValueError):
        worker.set_batch_size(0)
    worker.set_batch_size(8)
    assert worker.batch_size == 8


def test_worker_stage_property():
    sim = Simulator(seed=0)
    assert make_worker(sim, worker_id=1).stage == "heavy"
    assert make_worker(sim, worker_id=2, discriminator=OracleDiscriminator()).stage == "light"


# --------------------------------------------------------------- load balancer
def _cascade_setup(sim, threshold, num_light=1, num_heavy=1, slo=20.0):
    responses, drops = [], []
    lb = LoadBalancer(
        sim,
        routing=RoutingMode.CASCADE,
        threshold=threshold,
        on_response=lambda q, img, stage, conf, deferred: responses.append((q, stage, conf)),
        on_drop=lambda q: drops.append(q),
    )
    light_pool = [
        make_worker(sim, worker_id=i, discriminator=OracleDiscriminator()) for i in range(num_light)
    ]
    heavy_pool = [
        make_worker(sim, worker_id=10 + i, variant_name="sd-v1.5") for i in range(num_heavy)
    ]
    lb.set_pools(light_pool, heavy_pool)
    return lb, responses, drops


def test_cascade_accepts_high_confidence_and_defers_low():
    sim = Simulator(seed=0)
    lb, responses, _ = _cascade_setup(sim, threshold=0.7)
    lb.submit(make_query(0, difficulty=0.02, slo=30.0))  # easy -> high quality -> accepted
    lb.submit(make_query(1, difficulty=0.98, slo=30.0))  # hard -> low quality -> deferred
    sim.run(until=40.0)
    stages = {q.query_id: stage for q, stage, _ in responses}
    assert stages[0] == QueryStage.LIGHT
    assert stages[1] == QueryStage.HEAVY
    assert lb.stats.deferred + lb.stats.returned_light + lb.stats.returned_heavy >= 2


def test_threshold_zero_accepts_everything():
    sim = Simulator(seed=0)
    lb, responses, _ = _cascade_setup(sim, threshold=0.0)
    for i in range(5):
        lb.submit(make_query(i, difficulty=0.9, slo=30.0))
    sim.run(until=40.0)
    assert all(stage == QueryStage.LIGHT for _, stage, _ in responses)


def test_threshold_one_defers_most_queries():
    sim = Simulator(seed=0)
    lb, responses, _ = _cascade_setup(sim, threshold=1.0)
    for i in range(5):
        lb.submit(make_query(i, difficulty=0.6, slo=60.0))
    sim.run(until=80.0)
    heavy = sum(1 for _, stage, _ in responses if stage == QueryStage.HEAVY)
    assert heavy >= 4


def test_no_heavy_pool_returns_light_response():
    sim = Simulator(seed=0)
    responses = []
    lb = LoadBalancer(
        sim,
        routing=RoutingMode.CASCADE,
        threshold=1.0,
        on_response=lambda q, img, stage, conf, deferred: responses.append(stage),
    )
    lb.set_pools([make_worker(sim, discriminator=OracleDiscriminator())], [])
    lb.submit(make_query(0, difficulty=0.9))
    sim.run(until=10.0)
    assert responses == [QueryStage.LIGHT]


def test_no_workers_at_all_drops_query():
    sim = Simulator(seed=0)
    drops = []
    lb = LoadBalancer(sim, routing=RoutingMode.CASCADE, on_drop=lambda q: drops.append(q))
    lb.set_pools([], [])
    lb.submit(make_query(0))
    sim.run(until=1.0)
    assert len(drops) == 1


def test_deferral_skipped_when_deadline_too_tight():
    sim = Simulator(seed=0)
    lb, responses, _ = _cascade_setup(sim, threshold=1.0, slo=30.0)
    lb.heavy_latency_estimate = 100.0  # heavy stage can never fit the deadline
    lb.submit(make_query(0, difficulty=0.9, slo=5.0))
    sim.run(until=20.0)
    assert responses and responses[0][1] == QueryStage.LIGHT


def test_single_routing_uses_available_pool():
    sim = Simulator(seed=0)
    responses = []
    lb = LoadBalancer(
        sim,
        routing=RoutingMode.SINGLE,
        on_response=lambda q, img, stage, conf, deferred: responses.append(img.variant_name),
    )
    lb.set_pools([make_worker(sim)], [])
    lb.submit(make_query(0))
    sim.run(until=5.0)
    assert responses == ["sd-turbo"]


def test_random_split_routing_respects_fraction():
    sim = Simulator(seed=1)
    responses = []
    lb = LoadBalancer(
        sim,
        routing=RoutingMode.RANDOM_SPLIT,
        heavy_fraction=1.0,
        on_response=lambda q, img, stage, conf, deferred: responses.append(img.variant_name),
    )
    lb.set_pools(
        [make_worker(sim, worker_id=0)], [make_worker(sim, worker_id=1, variant_name="sd-v1.5")]
    )
    for i in range(8):
        lb.submit(make_query(i, slo=60.0))
    sim.run(until=100.0)
    assert all(name == "sd-v1.5" for name in responses)


def test_least_loaded_worker_selection_spreads_queries():
    sim = Simulator(seed=0)
    lb, _, _ = _cascade_setup(sim, threshold=0.0, num_light=3)
    for i in range(3):
        lb.submit(make_query(i, slo=60.0))
    # Before any execution completes, each light worker should hold <= 1 query
    # (including the one being executed).
    loads = [w.queue_length + (1 if w.busy else 0) for w in lb.light_pool]
    assert max(loads) <= 1


def test_load_balancer_stats_and_window_arrivals():
    sim = Simulator(seed=0)
    lb, _, _ = _cascade_setup(sim, threshold=0.0)
    for i in range(4):
        lb.submit(make_query(i, slo=60.0))
    sim.run(until=20.0)
    assert lb.arrivals_in_window(1000.0) == 4
    stats = lb.collect_stats()
    assert stats.arrivals == 4
    assert lb.stats.arrivals == 0  # reset


def test_threshold_and_fraction_validation():
    sim = Simulator(seed=0)
    lb = LoadBalancer(sim, routing=RoutingMode.CASCADE)
    with pytest.raises(ValueError):
        lb.set_threshold(1.5)
    with pytest.raises(ValueError):
        lb.set_heavy_fraction(-0.1)


# -------------------------------------------------- arrival-history retention
def test_arrival_history_is_pruned_to_the_observation_window():
    sim = Simulator(seed=0)
    lb = LoadBalancer(sim, routing=RoutingMode.CASCADE, observation_window=10.0)
    lb.set_pools([make_worker(sim)], [])
    for i in range(100):
        sim.schedule_at(
            float(i), lambda i=i: lb.submit(make_query(i, arrival=float(i), slo=300.0))
        )
    sim.run(until=99.0)
    # Memory stays bounded by the window's arrival count, not the whole run.
    assert len(lb._arrival_times) <= 11
    assert lb.arrivals_in_window(5.0) == 6  # t in [94, 99], cutoff inclusive
    assert lb.stats.arrivals == 100  # the counters still see every arrival


def test_arrivals_in_window_counts_only_recent_arrivals():
    sim = Simulator(seed=0)
    lb = LoadBalancer(sim, routing=RoutingMode.CASCADE, observation_window=50.0)
    lb.set_pools([make_worker(sim)], [])
    for t in (0.0, 10.0, 20.0, 30.0):
        sim.schedule_at(t, lambda t=t: lb.submit(make_query(int(t), arrival=t, slo=300.0)))
    sim.run(until=35.0)
    assert lb.arrivals_in_window(6.0) == 1  # only t=30
    assert lb.arrivals_in_window(16.0) == 2  # t=20 and t=30
    assert lb.arrivals_in_window(50.0) == 4


def test_observation_window_must_be_positive():
    sim = Simulator(seed=0)
    with pytest.raises(ValueError):
        LoadBalancer(sim, routing=RoutingMode.CASCADE, observation_window=0.0)


# ------------------------------------------------- deferral-rate edge cases
def test_observed_deferral_rate_is_none_without_light_decisions():
    from repro.core.load_balancer import LoadBalancerStats

    stats = LoadBalancerStats()
    assert stats.observed_deferral_rate is None
    # Heavy completions and drops alone are not light-stage decisions.
    stats.returned_heavy = 5
    stats.dropped = 3
    assert stats.observed_deferral_rate is None


def test_observed_deferral_rate_all_deferred_window():
    from repro.core.load_balancer import LoadBalancerStats

    stats = LoadBalancerStats(deferred=7, returned_light=0)
    assert stats.observed_deferral_rate == pytest.approx(1.0)
    stats.reset()
    assert stats.observed_deferral_rate is None


def test_observed_deferral_rate_mixed_window():
    from repro.core.load_balancer import LoadBalancerStats

    stats = LoadBalancerStats(deferred=1, returned_light=3)
    assert stats.observed_deferral_rate == pytest.approx(0.25)


# --------------------------------------------------- drop-wave stack safety
def test_worker_drop_wave_of_stale_queries_does_not_recurse():
    """A flash crowd of already-late queries must drain iteratively.

    Regression test: ``_maybe_start_batch`` used to recurse once per dropped
    wave, so thousands of stale queries (each wave fully dropped at dequeue
    time) blew the interpreter stack.  With ``batch_size=1`` every dropped
    query is its own wave — recursion would go ``n`` frames deep.
    """
    sim = Simulator(seed=0)
    drops = []
    worker = make_worker(sim, batch_size=1, on_drop=drops.append)
    worker.busy = True  # hold the worker so the stale queue builds up
    n = 5000  # far past the default recursion limit
    for i in range(n):
        worker.enqueue(WorkItem(query=make_query(i, slo=1e-9), stage="light", enqueue_time=0.0))
    worker.busy = False
    worker._maybe_start_batch()  # RecursionError under the old implementation
    assert len(drops) == n
    assert worker.stats.drops == n
    assert worker.queue_length == 0
    assert not worker.busy


def test_worker_drop_resubmit_chain_does_not_recurse():
    """An ``on_drop`` handler that re-enqueues must not recurse per wave.

    Regression test for the deeper failure mode: each drop triggering a
    synchronous resubmit of another already-late query used to chain
    ``enqueue -> _maybe_start_batch -> on_drop -> enqueue -> ...`` one stack
    frame per drop wave.
    """
    sim = Simulator(seed=0)
    state = {"resubmitted": 0}
    n = 5000  # far past the default recursion limit

    def resubmit(_item):
        if state["resubmitted"] < n:
            state["resubmitted"] += 1
            worker.enqueue(
                WorkItem(
                    query=make_query(state["resubmitted"], slo=1e-9),
                    stage="light",
                    enqueue_time=0.0,
                )
            )

    worker = make_worker(sim, batch_size=1, on_drop=resubmit)
    worker.enqueue(WorkItem(query=make_query(0, slo=1e-9), stage="light", enqueue_time=0.0))
    assert state["resubmitted"] == n
    assert worker.stats.drops == n + 1
    assert worker.queue_length == 0
    assert not worker.busy


# ------------------------------------------------------- incremental pool index
def _reference_least_loaded(pool):
    """The O(pool) scan the incremental index must reproduce exactly."""
    return min(pool, key=lambda w: (w.load, w.worker_id))


def test_pool_index_matches_reference_scan_throughout_a_run():
    """The lazy-heap index and the linear scan must agree at every decision.

    Drives a cascade through submissions, completions, deferrals, a worker
    crash, and a queue drain, asserting after every step that
    ``_least_loaded`` picks exactly the worker the reference scan would.
    """
    sim = Simulator(seed=0)
    lb, _, _ = _cascade_setup(sim, threshold=0.7, num_light=4, num_heavy=3)
    checks = {"n": 0}

    def check():
        for pool in (lb.light_pool, lb.heavy_pool):
            assert lb._least_loaded(pool) is _reference_least_loaded(pool)
        checks["n"] += 1

    def submit_and_check(i):
        lb.submit(make_query(i, difficulty=(i % 10) / 10.0, slo=60.0))
        check()

    for i in range(60):
        sim.schedule_at(0.03 * i, lambda i=i: submit_and_check(i))
    # Probe between completions too, not only at submit instants.
    for k in range(1, 40):
        sim.schedule_at(0.047 * k, check)
    # Mid-run load mutations that bypass the enqueue path.
    sim.schedule_at(0.7, lambda: (lb.light_pool[1].fail(), check()))
    sim.schedule_at(1.1, lambda: (lb.heavy_pool[0].drain_queue(), check()))
    sim.run(until=30.0)
    assert checks["n"] >= 100


def test_pool_index_foreign_pool_falls_back_to_scan():
    """Ad-hoc pools (not the LB's own lists) still resolve, via the scan."""
    sim = Simulator(seed=0)
    lb, _, _ = _cascade_setup(sim, threshold=0.7, num_light=3)
    foreign = list(reversed(lb.light_pool))
    assert lb._least_loaded(foreign) is _reference_least_loaded(foreign)


def test_workitem_wrappers_are_recycled():
    """Completed items return to the free list and back out on reuse."""
    sim = Simulator(seed=0)
    lb, responses, _ = _cascade_setup(sim, threshold=0.0)
    lb.submit(make_query(0, slo=60.0))
    sim.run(until=20.0)
    assert len(responses) == 1
    assert len(lb._item_free) == 1
    recycled = lb._item_free[-1]
    assert recycled.query is None  # no dangling reference to the old query
    lb.submit(make_query(1, slo=60.0))
    assert not lb._item_free  # the parked wrapper was reused
