"""Per-layer metrics of the traced pass.

Three sources feed them, each read from outside the program:

* spans the benchmark's wrappers recorded (:mod:`spans`), for calls made in
  the benchmark's own process;
* the simulator's opt-in event-loop profiler (``{event name: (fires,
  seconds)}``), which also reaches shard processes through
  ``ShardSupervisor.shard_profiles``;
* public counters: ``ShardSupervisor`` timing fields, solver LP counts,
  ``replan_history`` and the artifact cache's hit/miss stats.

A layer that the workload does not run, or that runs in a process the
benchmark cannot reach (per-call spans inside shard regions), reads 0.

The traced pass is pass 1.  Whatever a workload does after it (the grid's
warm read-back and its inline, profiled re-run of the cells) is pass 2:
its spans feed the layers inside the cells, but not the runner's cache and
pool metrics or the coverage, which describe pass 1 alone.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict

from spans import Tracer
from suite import PassResult

#: Span pass ids: the traced pass, and the work a workload does after it.
TRACED_PASS = 1
AFTER_PASS = 2


def layer_metrics(tracer: Tracer, traced: PassResult, untraced_wall: float) -> Dict[str, float]:
    """Every per-layer metric, by name."""
    first = tracer.only(TRACED_PASS)
    detail = traced.detail
    profile = detail.get("profile", {})
    supervisor = detail.get("supervisor")
    results = detail.get("results", [])
    cache_stats = detail.get("cache_stats", {})

    def fires(match: Callable[[str], bool]) -> int:
        return sum(count for name, (count, _) in profile.items() if match(name))

    def seconds(match: Callable[[str], bool]) -> float:
        return sum(secs for name, (_, secs) in profile.items() if match(name))

    def named(event: str) -> Callable[[str], bool]:
        return lambda name: name == event

    events = fires(lambda name: True)
    if supervisor is not None:
        timings = list(supervisor.shard_timing.values())
        loop_wall = sum(t["advance_seconds"] for t in timings)
    else:
        loop_wall = tracer.total("simulator.run")
    batches = tracer.count("worker.batch")
    routes = tracer.count("geo.route")
    allocators = tracer.receivers.get("allocator.plan", [])
    epochs = [snap for result in results for snap in result.replan_history]
    resolves = sum(snap.replanned for snap in epochs)
    lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
    cache_seconds = first.total("runner.cache_get") + first.total("runner.cache_put")
    warm_wall = detail.get("warm_wall")

    metrics = {
        "simulator.events": events,
        "simulator.events_per_s": events / loop_wall if loop_wall > 0 else 0.0,
        "simulator.dispatch_s": max(loop_wall - seconds(lambda name: True), 0.0) if events else 0.0,
        "system.arrival_chunk_s": seconds(named("arrival-chunk")),
        "system.arrival_s": seconds(named("arrival")),
        # The arrival event's callback is LoadBalancer.submit, so its profile
        # bucket is the submit path in every process, shard regions included.
        "load_balancer.submits": fires(named("arrival")),
        "load_balancer.submit_s": seconds(named("arrival")),
        "load_balancer.requeues": fires(named("lb-retry")),
        "worker.batches": batches,
        "worker.batch_s": tracer.total("worker.batch"),
        "worker.batch_self_s": tracer.self_total("worker.batch"),
        "worker.mean_batch_size": tracer.sizes.get("worker.batch", 0) / batches if batches else 0.0,
        "worker.reloads": fires(lambda name: name.endswith("-reload")),
        "models.generate_calls": tracer.count("models.generate"),
        "models.generate_s": tracer.total("models.generate"),
        "discriminators.score_calls": tracer.count("discriminators.score"),
        "discriminators.score_s": tracer.total("discriminators.score"),
        "results.completes": tracer.count("results.complete"),
        "results.complete_s": tracer.total("results.complete"),
        "results.summary_s": tracer.total("results.summary"),
        "metrics.fid_s": tracer.total("metrics.fid"),
        "allocator.plans": tracer.count("allocator.plan"),
        "allocator.plan_s": tracer.total("allocator.plan"),
        "allocator.plan_ms.p50": tracer.median_ms("allocator.plan"),
        "milp.lp_solves": sum(
            a.solver.total_lp_solves + a.exhaustive_solver.total_lp_solves for a in allocators
        ),
        # Re-solves whose warm start the solver accepted, over all re-solves.
        "allocator.warm_hit_ratio": (
            sum(snap.warm_started for snap in epochs) / resolves if resolves else 0.0
        ),
        "controller.ticks": fires(named("control-tick")),
        "controller.tick_s": seconds(named("control-tick")),
        "replanner.epochs": fires(named("replan-epoch")),
        "replanner.resolves": resolves,
        "replanner.epoch_s": seconds(named("replan-epoch")),
        "faults.heartbeat_s": seconds(named("heartbeat")),
        "resources.transfer_s": seconds(lambda name: "-xfer" in name),
        "workloads.sample_s": tracer.total("workloads.sample"),
        "geo.routes": routes,
        "geo.route_s": tracer.total("geo.route"),
        "geo.spilled_ratio": supervisor.spilled_queries / routes if supervisor and routes else 0.0,
        "sharding.barrier_wait_s": supervisor.barrier_seconds if supervisor else 0.0,
        "sharding.region_advance_s": loop_wall if supervisor else 0.0,
        "sharding.advance_imbalance": _imbalance(supervisor) if supervisor else 0.0,
        "sharding.merge_s": tracer.total("sharding.concat") + tracer.total("sharding.from_columns"),
        "sharding.supervisor_self_s": tracer.self_total("sharding.supervisor"),
        "runner.cache_gets": first.count("runner.cache_get"),
        "runner.cache_get_s": first.total("runner.cache_get"),
        "runner.cache_puts": first.count("runner.cache_put"),
        "runner.cache_put_s": first.total("runner.cache_put"),
        "runner.cache_hit_ratio": cache_stats.get("hits", 0) / lookups if lookups else 0.0,
        "runner.dataset_s": tracer.total("runner.dataset"),
        "runner.discriminator_s": tracer.total("runner.discriminator"),
        "runner.build_s": tracer.total("runner.build"),
        # Parent-side time of a pool pass that is not cache I/O: spawn,
        # pickling and waiting on the workers.
        "runner.pool_s": traced.wall - cache_seconds if warm_wall is not None else 0.0,
        "runner.warm_wall_s": warm_wall or 0.0,
        "trace.overhead_ratio": traced.wall / untraced_wall,
        "trace.coverage": first.covered() / traced.wall,
    }
    return metrics


def _imbalance(supervisor) -> float:
    """Slowest shard's event-loop seconds over the mean across shards.

    Regions are packed into shard processes round-robin in canonical order
    (``ShardSupervisor.run``), so shard ``i`` owns ``names[i::shards]``.
    """
    names = list(supervisor.shard_timing)
    shards = min(supervisor.shards, len(names))
    per_shard = [
        sum(supervisor.shard_timing[name]["advance_seconds"] for name in names[i::shards])
        for i in range(shards)
    ]
    mean = statistics.fmean(per_shard)
    return max(per_shard) / mean if mean > 0 else 0.0
