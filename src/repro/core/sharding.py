"""Sharded execution of :class:`~repro.core.system.ServingSimulation`.

One event loop caps how many queries a cell can simulate.  This module
splits a geo topology's regions across independent worker processes that
exchange only boundary data — routed queries in, barrier statistics and
completed-query columns out — coordinated by a :class:`ShardSupervisor`
advancing a conservative global epoch (replan boundaries are the natural
barriers).

The determinism contract
------------------------
Sharded and serial runs produce **byte-identical summaries**, for any shard
count.  Three design rules carry the whole guarantee:

1. The *logical* partition is the topology, not the process count.  Every
   region always simulates in its own :class:`RegionRuntime` with its own
   :class:`~repro.simulator.rng.RandomStreams` seeded by
   :func:`region_seed`; ``shards=N`` only chooses how many OS processes
   those runtimes are packed into (round-robin, in canonical region order).
2. All cross-region decisions are made by the supervisor, epoch-
   synchronously: the :class:`~repro.core.geo.GeoRouter` routes epoch ``k``
   arrivals using only statistics reported at the ``k-1`` barrier.  Regions
   never communicate directly, so nothing about their interleaving in wall
   time can leak into results.
3. Merging is ordered: the final result concatenates the regions' column
   chunks in canonical region order
   (:meth:`~repro.core.results.ColumnStore.concat` copies values, never
   recomputes them).

A single-region topology with zero network round-trip additionally degrades
to the plain serial path bit-for-bit: :func:`region_seed` returns the root
seed untouched, the routed queries equal the ``ClientSource``'s, and epoch
barriers only slice the event loop (events are totally ordered by
``(time, priority, seq)``).
"""

from __future__ import annotations

import copy
import dataclasses
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.geo import GeoRouter, GeoTopology, RegionSpec, sample_origins
from repro.core.pricing import CostLedger
from repro.core.query import QueryBatch
from repro.core.results import ColumnStore, ControlSnapshot, SimulationResult
from repro.core.system import ServingSimulation, SystemRuntime, Workload
from repro.simulator.rng import RandomStreams, stable_hash
from repro.traces.base import ArrivalTrace


def region_seed(root_seed: int, region_name: str, n_regions: int) -> int:
    """Root seed of one region's simulation.

    A single-region topology keeps the root seed untouched so that the
    sharded machinery is bit-for-bit the plain serial path; multi-region
    topologies derive one independent seed per region with
    :func:`~repro.simulator.rng.stable_hash` (process-independent), keyed by
    region *name* so the seed survives re-partitioning across shards.
    """
    if n_regions == 1:
        return int(root_seed)
    return stable_hash("shard-seed", int(root_seed), region_name)


def region_system(
    template: ServingSimulation, region: RegionSpec, topology: GeoTopology
) -> ServingSimulation:
    """Specialise a template system for one region of a topology.

    The region keeps the template's cascade, dataset, discriminator, policy
    parameters and name, but serves with its own fleet, its own region seed,
    and an initial demand estimate scaled by its population share.  The
    policy is deep-copied so warm-start state can never be shared between
    regions — inline and multi-process execution must see the same isolation.
    """
    weight_share = region.weight / sum(r.weight for r in topology.regions)
    config = dataclasses.replace(
        template.config,
        fleet=region.fleet,
        seed=region_seed(template.config.seed, region.name, len(topology)),
    )
    return dataclasses.replace(
        template,
        config=config,
        policy=copy.deepcopy(template.policy),
        initial_demand=template.initial_demand * weight_share,
    )


def build_region_systems(
    template: ServingSimulation, topology: GeoTopology
) -> Dict[str, ServingSimulation]:
    """Per-region systems in canonical region order."""
    return {region.name: region_system(template, region, topology) for region in topology}


# --------------------------------------------------------------------------
# Boundary payloads
# --------------------------------------------------------------------------


@dataclass
class RegionStats:
    """One region's cumulative statistics at an epoch barrier.

    The counts feed the geo router's backlog estimate for the next epoch;
    final summaries come from the merged columns.
    """

    completed: int
    dropped: int
    #: Event-loop telemetry: events this region's simulator has fired so far
    #: (deterministic) and wall-clock seconds its shard spent inside
    #: ``advance`` (timing only).  Neither ever enters merged or cached
    #: summaries, so byte-identity across shard counts is untouched.
    events_fired: int = 0
    advance_seconds: float = 0.0
    #: Cumulative event-loop profile (``{event name: (fires, callback
    #: seconds)}``) when the template armed ``profile=True``; empty
    #: otherwise.  Same telemetry rule as above: reported live per shard,
    #: never merged into summaries.
    profile: Dict[str, Tuple[int, float]] = field(default_factory=dict)


@dataclass
class RegionResult:
    """One region's complete output, shipped once at the end of the run."""

    cols: ColumnStore
    control_history: List[ControlSnapshot]
    replan_history: List[object]
    stats: RegionStats
    #: The region controller's :class:`~repro.core.pricing.CostLedger`
    #: (pure data: price trace + closed intervals), shipped whole so the
    #: merge can integrate each region's bill to the common horizon.
    cost_ledger: CostLedger


# --------------------------------------------------------------------------
# Per-region runtime (runs inside a shard)
# --------------------------------------------------------------------------


class RegionRuntime:
    """One region's event loop, driven epoch by epoch inside a shard.

    The collector's column buffers are drained into
    :class:`~repro.core.results.ColumnStore` chunks at every barrier, so
    resident per-query state stays bounded by one epoch's completions —
    that is what keeps million-query cells affordable.  Chunk concatenation
    reproduces the serial run's drained arrays exactly (values are copied,
    never recomputed).
    """

    def __init__(self, system: ServingSimulation) -> None:
        self.system = system
        self.runtime: SystemRuntime = system.prepare()
        self._feature_dim = system.dataset.real_features.shape[1]
        self._chunks: List[ColumnStore] = []
        #: Wall-clock seconds spent inside ``advance`` (shard telemetry).
        self.advance_seconds = 0.0
        self.runtime.start()

    def _drain(self) -> None:
        if len(self.runtime.collector):
            self._chunks.append(self.runtime.collector.drain())

    def run_epoch(self, queries: QueryBatch, barrier: float) -> RegionStats:
        """Inject one epoch's routed arrivals, advance to the barrier.

        ``queries`` arrives column-oriented; the runtime's feeder
        materializes :class:`~repro.core.query.Query` objects one chunk at a
        time as the region's clock reaches them.
        """
        self.runtime.inject_batch(queries)
        tick = time.perf_counter()
        self.runtime.advance(barrier)
        self.advance_seconds += time.perf_counter() - tick
        self._drain()
        return self.stats()

    def stats(self) -> RegionStats:
        """Snapshot the collector's cumulative counts and the loop telemetry."""
        collector = self.runtime.collector
        return RegionStats(
            completed=collector.completed_count,
            dropped=collector.dropped_count,
            events_fired=self.runtime.sim.events_fired,
            advance_seconds=self.advance_seconds,
            profile=self.runtime.sim.profile_snapshot(),
        )

    def finish(self) -> RegionResult:
        """Fire finish hooks and package the region's complete output."""
        self.runtime.finish()
        self._drain()
        return RegionResult(
            cols=ColumnStore.concat(self._chunks, self._feature_dim),
            control_history=list(self.runtime.controller.history),
            replan_history=list(self.runtime.replanner.history),
            stats=self.stats(),
            cost_ledger=self.runtime.controller.cost_ledger,
        )


# --------------------------------------------------------------------------
# Shards: one in-process, one per worker process — same protocol
# --------------------------------------------------------------------------


class _InlineShard:
    """Runs its regions in the supervisor's own process (``shards=1``).

    Shares the begin/collect protocol with :class:`_ProcessShard` (the work
    happens at ``begin_*``) so both modes drive the same :class:`RegionRuntime`.
    """

    def __init__(self, systems: Dict[str, ServingSimulation]) -> None:
        self._runtimes = {name: RegionRuntime(system) for name, system in systems.items()}
        self._pending: Optional[Dict[str, object]] = None

    def begin_epoch(self, barrier: float, queries: Mapping[str, QueryBatch]) -> None:
        self._pending = {
            name: runtime.run_epoch(queries.get(name) or QueryBatch.empty(), barrier)
            for name, runtime in self._runtimes.items()
        }

    def begin_finish(self) -> None:
        self._pending = {name: runtime.finish() for name, runtime in self._runtimes.items()}

    def _collect(self) -> Dict:
        pending, self._pending = self._pending, None
        assert pending is not None, "collect before begin"
        return pending

    collect_stats = collect_results = _collect

    def begin_close(self) -> None:  # pragma: no cover - nothing to release
        pass

    join = begin_close


def process_context() -> multiprocessing.context.BaseContext:
    """Start method of every shard and grid pool worker: ``fork`` where the
    platform offers it, so a child begins with its parent's modules imported,
    else the platform default.  Work still reaches a child pickled.

    The parent has OpenBLAS threads when it forks.  OpenBLAS's
    ``pthread_atfork`` handler stops its pool before the fork and the pool
    restarts on next use, so the child's BLAS calls work.  CPython >= 3.12
    still warns about any fork of a multi-threaded process.
    """
    return multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )


def _shard_worker_main(conn, inherited: Sequence) -> None:
    """Entry point of one shard worker process.

    Speaks a four-verb protocol over the pipe: ``epoch`` (inject + advance +
    reply with barrier stats), ``finish`` (reply with complete region
    results), ``close`` (exit).  The systems arrive pickled in the first
    ``init`` message; runtimes are built here so no live event loop ever
    crosses a process boundary.

    A forked worker first closes the supervisor's pipe ends it inherited
    (``inherited``: its own and earlier shards'), so that when the supervisor
    dies every shard's ``recv`` raises ``EOFError``.
    """
    for end in inherited:
        end.close()
    runtimes: Dict[str, RegionRuntime] = {}
    try:
        while True:
            message = conn.recv()
            verb = message[0]
            if verb == "init":
                _, systems = message
                runtimes = {name: RegionRuntime(system) for name, system in systems.items()}
                conn.send(("ready",))
            elif verb == "epoch":
                _, barrier, queries = message
                stats = {
                    name: runtime.run_epoch(queries.get(name) or QueryBatch.empty(), barrier)
                    for name, runtime in runtimes.items()
                }
                conn.send(("stats", stats))
            elif verb == "finish":
                results = {name: runtime.finish() for name, runtime in runtimes.items()}
                conn.send(("result", results))
            elif verb == "close":
                break
            else:  # pragma: no cover - protocol misuse
                raise RuntimeError(f"unknown shard verb {verb!r}")
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - parent died
        pass
    finally:
        conn.close()


class _ProcessShard:
    """Drives one worker process over a pipe (``shards>1``).

    Every read of the pipe polls with a short timeout and checks the worker
    process is still alive, so a shard dying mid-epoch surfaces as a one-line
    error naming the shard and its regions instead of hanging the supervisor
    forever on a ``recv`` that can never complete.
    """

    #: Seconds without any reply before an *alive but silent* worker is
    #: declared unresponsive (a dead worker is detected within one poll).
    reply_timeout: float = 600.0
    #: Poll granularity; bounds dead-process detection latency.
    poll_interval: float = 0.25

    @classmethod
    def start_all(cls, groups: Sequence[Dict[str, ServingSimulation]]) -> List["_ProcessShard"]:
        """Ready shards for ``groups``: every process is started and sent its
        ``init`` before any ``ready`` is awaited, so their starts and
        ``init`` decoding overlap.  On any start failure, every shard already
        launched is closed and joined before the error propagates.
        """
        shards: List[_ProcessShard] = []
        try:
            for systems in groups:
                shard = cls()
                shard._spawn(systems, shards)
                shards.append(shard)
            for shard, systems in zip(shards, groups):
                shard._conn.send(("init", systems))
            for shard in shards:
                shard._expect("ready")
        except BaseException:
            _close_all(shards)
            raise
        return shards

    def _spawn(self, systems: Dict[str, ServingSimulation], earlier: Sequence) -> None:
        self._regions = tuple(systems)
        context = process_context()
        self._conn, child_conn = context.Pipe(duplex=True)
        inherited = [shard._conn for shard in earlier] + [self._conn]
        self._process = context.Process(
            target=_shard_worker_main, args=(child_conn, inherited), daemon=True
        )
        self._process.start()
        child_conn.close()

    def _dead_shard_error(self, verb: str, reason: str) -> RuntimeError:
        regions = ", ".join(self._regions)
        return RuntimeError(
            f"shard worker for region(s) {regions} {reason} while the supervisor "
            f"waited for {verb!r}"
        )

    def _expect(self, verb: str):
        deadline = time.monotonic() + self.reply_timeout
        while not self._conn.poll(timeout=self.poll_interval):
            if not self._process.is_alive():
                raise self._dead_shard_error(verb, f"died (exit code {self._process.exitcode})")
            if time.monotonic() >= deadline:
                raise self._dead_shard_error(
                    verb, f"sent nothing for {self.reply_timeout:g}s (alive but unresponsive)"
                )
        try:
            message = self._conn.recv()
        except (EOFError, ConnectionResetError):
            raise self._dead_shard_error(verb, "closed its pipe") from None
        if message[0] != verb:  # pragma: no cover - protocol misuse
            raise RuntimeError(f"expected {verb!r} from shard, got {message[0]!r}")
        return message[1:] if len(message) > 1 else None

    def begin_epoch(self, barrier: float, queries: Mapping[str, QueryBatch]) -> None:
        # A QueryBatch pickles as three NumPy arrays — the per-epoch payload
        # is O(arrays), not one pickled object per query.
        self._conn.send(("epoch", barrier, dict(queries)))

    def collect_stats(self) -> Dict[str, RegionStats]:
        return self._expect("stats")[0]

    def begin_finish(self) -> None:
        self._conn.send(("finish",))

    def collect_results(self) -> Dict[str, RegionResult]:
        return self._expect("result")[0]

    def begin_close(self) -> None:
        try:
            self._conn.send(("close",))
        except (BrokenPipeError, OSError):  # pragma: no cover - already gone
            pass
        self._conn.close()

    def join(self) -> None:
        self._process.join(timeout=30)
        if self._process.is_alive():  # pragma: no cover - hung worker
            self._process.terminate()
            self._process.join()


def _close_all(shards: Sequence) -> None:
    """Send every shard ``close``, then join each, so their exits overlap."""
    for shard in shards:
        shard.begin_close()
    for shard in shards:
        shard.join()


# --------------------------------------------------------------------------
# Supervisor
# --------------------------------------------------------------------------


@dataclass
class ShardSupervisor:
    """Coordinates a sharded run: routing, epoch barriers, result merging.

    Parameters
    ----------
    template:
        The system every region is specialised from (fleet and seed are
        replaced per region; cascade, SLO, policy and dataset are shared).
    topology:
        The geo topology being served.  This is the *logical* partition.
    shards:
        Number of worker processes to pack regions into (round-robin in
        canonical order).  ``1`` runs every region inline — no processes —
        and is the reference the byte-identity gate compares against.

    Epoch barriers fall at the template's replan epoch, the natural
    consistency point of the control loop.  Routing uses :class:`~repro.core.geo.GeoRouter`'s
    default spill threshold and RTT penalty.
    """

    template: ServingSimulation
    topology: GeoTopology
    shards: int = 1
    #: Per-region results from the last run (canonical order).
    region_results: Dict[str, SimulationResult] = field(default_factory=dict)
    #: Queries routed away from their origin region in the last run.
    spilled_queries: int = 0
    #: Per-region event-loop telemetry from the last run (canonical order):
    #: ``{region: {"events_fired": ..., "advance_seconds": ...}}``.  Wall
    #: clock lives only here and in :attr:`barrier_seconds` — never in the
    #: merged summaries, which must stay byte-identical across shard counts.
    shard_timing: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Wall-clock seconds the supervisor spent waiting at epoch barriers
    #: (collecting every shard's stats) in the last run.
    barrier_seconds: float = 0.0
    #: Per-region event-loop profiles from the last run (canonical order),
    #: populated only when the template armed ``profile=True``.  Live-only
    #: telemetry like :attr:`shard_timing`: shown in timing reports, never
    #: merged into summaries.
    shard_profiles: Dict[str, Dict[str, Tuple[int, float]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        slo = self.template.config.slo
        max_rtt = max(r.rtt_s for r in self.topology.regions)
        if 2 * max_rtt >= slo:
            raise ValueError(
                f"topology round-trips (up to {2 * max_rtt:g}s spilled) leave no "
                f"SLO budget ({slo:g}s) for serving"
            )

    # ----------------------------------------------------------------- pieces
    @property
    def epoch_length(self) -> float:
        """Barrier spacing: the template's replan epoch."""
        return float(self.template.replan.epoch)

    def _barriers(self, horizon: float) -> np.ndarray:
        edges = np.arange(self.epoch_length, horizon, self.epoch_length)
        return np.append(edges, horizon)

    def _build_queries(self, trace: ArrivalTrace) -> Tuple[np.ndarray, np.ndarray]:
        """(client arrival times, origin region index) for the whole trace."""
        streams = RandomStreams(self.template.config.seed)
        origins = sample_origins(
            self.topology, len(trace.arrival_times), streams.stream("geo-origins")
        )
        return np.asarray(trace.arrival_times, dtype=float), origins

    def _route_epoch(
        self,
        router: GeoRouter,
        arrivals: np.ndarray,
        origins: np.ndarray,
        lo: int,
        hi: int,
    ) -> Dict[str, QueryBatch]:
        """Route arrivals ``[lo, hi)`` (one epoch) to regions, in arrival order.

        The routing loop itself stays per-query — the router is stateful
        (each decision updates the target's routed count, which feeds the
        next spill decision) — but it emits per-region *columns* rather than
        ``Query`` objects: ids, server-side arrival times, and server-side
        SLOs.  Materialization happens lazily inside each region's feeder,
        so the supervisor and the shard pipes never hold an epoch's queries
        as objects.
        """
        slo = self.template.config.slo
        regions = self.topology.regions
        ids: Dict[str, List[int]] = {region.name: [] for region in regions}
        times: Dict[str, List[float]] = {region.name: [] for region in regions}
        slos: Dict[str, List[float]] = {region.name: [] for region in regions}
        for index in range(lo, hi):
            origin = regions[origins[index]]
            decision = router.route(origin)
            delay = decision.network_delay_s
            # The network round-trip shifts the server-side arrival and
            # shrinks the server-side SLO budget, so the client-perceived
            # deadline (client arrival + SLO) is preserved exactly.
            target = decision.region
            ids[target].append(index)
            times[target].append(float(arrivals[index]) + delay)
            slos[target].append(slo - delay)
        return {
            region.name: QueryBatch(
                ids=np.asarray(ids[region.name], dtype=np.int64),
                times=np.asarray(times[region.name], dtype=float),
                slos=np.asarray(slos[region.name], dtype=float),
            )
            for region in regions
        }

    def _partitioned_at(self, when: float) -> frozenset:
        """Region names with an active link partition at routing time ``when``.

        Partitions are epoch-synchronous (like every other cross-region
        decision): an epoch routes under the partitions active at its start,
        so the routing is a pure function of the template's fault plan and
        the barrier grid — identical for every shard count.
        """
        if self.template.faults is None:
            return frozenset()
        from repro.faults.plan import RegionPartition

        known = set(self.topology.names)
        return frozenset(
            fault.region
            for fault in self.template.faults.faults
            if isinstance(fault, RegionPartition)
            and fault.region in known  # plans are topology-agnostic; skip absent regions
            and fault.at <= when < fault.at + fault.duration
        )

    # -------------------------------------------------------------------- run
    def run(self, workload: Workload, *, duration: Optional[float] = None) -> SimulationResult:
        """Run the workload sharded and return the merged result.

        The trace is sampled (for stochastic workloads) from the root seed's
        own named streams — exactly as the serial ``ClientSource`` would —
        then routed to regions epoch by epoch and merged back in canonical
        region order.
        """
        trace = (
            workload
            if isinstance(workload, ArrivalTrace)
            else workload.sample(RandomStreams(self.template.config.seed))
        )
        horizon = duration if duration is not None else self.template.horizon(workload)
        arrivals, origins = self._build_queries(trace)

        systems = build_region_systems(self.template, self.topology)
        names = list(systems)
        n_shards = min(self.shards, len(names))
        assignment = [names[i::n_shards] for i in range(n_shards)]
        router = GeoRouter(self.topology)
        self.shard_timing = {}
        self.shard_profiles = {}
        self.barrier_seconds = 0.0
        shards: List = []
        try:
            if n_shards == 1:
                shards = [_InlineShard(systems)]
            else:
                shards = _ProcessShard.start_all(
                    [{name: systems[name] for name in owned} for owned in assignment]
                )
            cursor = 0
            epoch_start = 0.0
            for barrier in self._barriers(horizon):
                # Epoch k spans arrivals in (previous barrier, barrier];
                # routing sees only statistics reported at the k-1 barrier.
                if self.template.faults is not None:
                    router.set_partitioned(self._partitioned_at(epoch_start))
                epoch_start = float(barrier)
                hi = int(np.searchsorted(arrivals, barrier, side="right"))
                routed = self._route_epoch(router, arrivals, origins, cursor, hi)
                cursor = hi
                for shard, owned in zip(shards, assignment):
                    shard.begin_epoch(barrier, {name: routed[name] for name in owned})
                barrier_stats: Dict[str, RegionStats] = {}
                tick = time.perf_counter()
                for shard in shards:
                    barrier_stats.update(shard.collect_stats())
                self.barrier_seconds += time.perf_counter() - tick
                self.shard_timing = {
                    name: {
                        "events_fired": float(barrier_stats[name].events_fired),
                        "advance_seconds": barrier_stats[name].advance_seconds,
                    }
                    for name in names
                }
                # Profiles are cumulative snapshots; the last barrier's wins.
                self.shard_profiles = {name: barrier_stats[name].profile for name in names}
                for name in names:
                    stats = barrier_stats[name]
                    router.observe(name, stats.completed, stats.dropped)
            for shard in shards:
                shard.begin_finish()
            collected: Dict[str, RegionResult] = {}
            for shard in shards:
                collected.update(shard.collect_results())
        finally:
            _close_all(shards)

        self.spilled_queries = router.spilled
        return self._merge(collected, names, horizon)

    # ------------------------------------------------------------------ merge
    def _merge(
        self, collected: Dict[str, RegionResult], names: List[str], horizon: float
    ) -> SimulationResult:
        feature_dim = self.template.dataset.real_features.shape[1]
        ordered = [collected[name] for name in names]
        merged_cols = ColumnStore.concat([r.cols for r in ordered], feature_dim)
        # Histories merge time-sorted with a stable sort over the canonical
        # concatenation, so the merged sequence is independent of shard count.
        control_history = sorted(
            (snap for r in ordered for snap in r.control_history), key=lambda s: s.time
        )
        replan_history = sorted(
            (snap for r in ordered for snap in r.replan_history), key=lambda s: s.time
        )
        # Per-region bills integrate each ledger to the common horizon; the
        # merged bill sums them in canonical region order (pure float adds of
        # per-region exact values, so it is independent of shard count).
        region_costs = {name: collected[name].cost_ledger.total_at(horizon) for name in names}
        merged_cost = sum(region_costs[name] for name in names)
        self.region_results = {
            name: SimulationResult.from_columns(
                result.cols,
                dataset=self.template.dataset,
                slo=self.template.config.slo,
                duration=horizon,
                control_history=result.control_history,
                system_name=f"{self.template.name}@{name}",
                replan_history=result.replan_history,
                fleet_cost=region_costs[name],
            )
            for name, result in collected.items()
        }
        return SimulationResult.from_columns(
            merged_cols,
            dataset=self.template.dataset,
            slo=self.template.config.slo,
            duration=horizon,
            control_history=control_history,
            system_name=self.template.name,
            replan_history=replan_history,
            fleet_cost=merged_cost,
        )


def run_sharded(
    template: ServingSimulation,
    workload: Workload,
    *,
    topology: Optional[GeoTopology] = None,
    shards: int = 1,
    duration: Optional[float] = None,
) -> SimulationResult:
    """One-call sharded run (see :class:`ShardSupervisor` for the knobs).

    Without a topology the template's own fleet becomes a single zero-RTT
    region — the degenerate case that is bit-for-bit the serial path.
    """
    if topology is None:
        topology = GeoTopology(
            regions=(RegionSpec(name="main", fleet=template.config.fleet),)
        )
    supervisor = ShardSupervisor(template=template, topology=topology, shards=shards)
    return supervisor.run(workload, duration=duration)


def default_shards() -> int:
    """A sensible process count for this machine (used by ``--shards auto``)."""
    return max(1, min(8, (os.cpu_count() or 1)))
