"""End-to-end serving simulation wiring.

:class:`ServingSimulation` assembles the client source, Load Balancer,
workers, Controller, re-planner and result collector on top of the
discrete-event simulator, runs a workload trace through the system, and
returns a :class:`~repro.core.results.SimulationResult`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union


from repro.core.autoscaler import SCALE_POLICIES, Autoscaler, ScalePolicy
from repro.core.config import (
    DEFAULT_DEVICE_CLASS,
    RoutingMode,
    SystemConfig,
)
from repro.core.controller import Controller
from repro.core.pricing import PriceTrace
from repro.core.load_balancer import LoadBalancer
from repro.core.policies import AllocationPolicy
from repro.core.query import Query, QueryBatch
from repro.core.replanner import ReplanConfig, ReplanController
from repro.core.resources import BandwidthChannel, ResidencySet, WorkerResources
from repro.core.results import ResultCollector, SimulationResult
from repro.core.worker import Worker
from repro.discriminators.base import Discriminator
from repro.faults.plan import FaultPlan
from repro.models.dataset import QueryDataset
from repro.models.generation import ImageGenerator
from repro.models.zoo import MODEL_ZOO
from repro.simulator.simulation import Actor, Simulator
from repro.traces.base import ArrivalTrace
from repro.workloads.base import ArrivalProcess

#: Anything that can drive the client source: a concrete trace or a workload
#: scenario sampled at simulation start from the simulator's random streams.
Workload = Union[ArrivalTrace, ArrivalProcess]

#: Arrivals materialized per chunk event by the :class:`ArrivalFeeder`.  The
#: knob bounds live ``Query`` objects at O(chunk) instead of O(trace) and is
#: cache-neutral: it changes when queries are *allocated*, never when they
#: arrive, so summaries are byte-identical for every chunk size (test-gated).
DEFAULT_ARRIVAL_CHUNK = 4096


class ArrivalFeeder:
    """Streams arrivals into the event loop chunk by chunk, lazily.

    Given the columnar form of a batch of arrivals — ids, arrival times, and
    SLOs — the feeder schedules one *chunk event* per :attr:`chunk_size`
    arrivals at the chunk's earliest arrival time (priority ``-1``, so
    materialization always lands strictly before same-time arrivals).  When
    a chunk fires it materializes that chunk's :class:`Query` objects from
    the dataset and bulk-schedules their submissions via
    :meth:`~repro.simulator.simulation.Simulator.schedule_many_at` — a shared
    callback with per-event args, no per-arrival closures, recyclable event
    wrappers.

    Live ``Query`` objects are therefore bounded by O(chunk), not O(trace):
    a million-query cell holds ~one chunk of un-fired arrivals at any time.
    Delivery order is untouched — the event queue's total ``(time, priority,
    seq)`` order makes chunk-fed runs byte-identical to per-query feeding
    (pinned by property and golden tests).

    ``seed_streams`` (the load balancer's
    :meth:`~repro.core.load_balancer.LoadBalancer.seed_streams`) receives
    each chunk's ids and difficulties as it fires, so the per-query random
    streams the chunk will draw are seeded in one vectorised call.
    """

    def __init__(
        self,
        sim: Simulator,
        dataset: QueryDataset,
        submit: Callable[[Query], None],
        slo: float,
        *,
        chunk_size: int = DEFAULT_ARRIVAL_CHUNK,
        seed_streams: Optional[Callable[[List[int], List[float]], None]] = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.sim = sim
        self.dataset = dataset
        self.submit = submit
        self.slo = slo
        self.chunk_size = int(chunk_size)
        self.seed_streams = seed_streams
        #: Arrivals materialized and scheduled so far (benchmarks subtract
        #: delivered submissions from this to measure peak live objects).
        self.scheduled_arrivals = 0
        self.chunks_fired = 0

    def feed(self, ids, times, slos=None) -> None:
        """Queue a batch of arrivals for chunked materialization.

        ``ids`` and ``times`` are parallel sequences (NumPy arrays, lists, or
        a ``range`` for ids); ``slos`` is a parallel sequence of per-query
        SLOs or ``None`` for the feeder's uniform SLO.  Times may be locally
        unordered (routed batches are ordered by *client* arrival while the
        network delay shifts server times); every chunk's boundary event
        fires at the chunk's minimum, so no arrival is ever scheduled late.
        """
        n = len(times)
        chunk = self.chunk_size
        schedule_at = self.sim.schedule_at
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            window = times[lo:hi]
            first = float(window.min()) if hasattr(window, "min") else min(window)
            schedule_at(
                first,
                self._fire_chunk,
                args=(ids, times, slos, lo, hi),
                priority=-1,
                name="arrival-chunk",
            )

    def _fire_chunk(self, ids, times, slos, lo: int, hi: int) -> None:
        """Materialize arrivals ``[lo, hi)`` and bulk-schedule their submits."""
        dataset = self.dataset
        prompt = dataset.prompt
        difficulty = dataset.difficulty
        chunk_ids = ids[lo:hi]
        chunk_times = times[lo:hi]
        chunk_ids = chunk_ids.tolist() if hasattr(chunk_ids, "tolist") else list(chunk_ids)
        if hasattr(chunk_times, "tolist"):
            chunk_times = chunk_times.tolist()
        chunk_difficulties = [difficulty(qid) for qid in chunk_ids]
        if self.seed_streams is not None:
            self.seed_streams(chunk_ids, chunk_difficulties)
        if slos is None:
            chunk_slos = itertools.repeat(self.slo)
        else:
            chunk_slos = slos[lo:hi]
            if hasattr(chunk_slos, "tolist"):
                chunk_slos = chunk_slos.tolist()
        args_seq = [
            (Query(query_id=qid, arrival_time=t, prompt=prompt(qid), difficulty=d, slo=s),)
            for qid, t, d, s in zip(chunk_ids, chunk_times, chunk_difficulties, chunk_slos)
        ]
        self.sim.schedule_many_at(chunk_times, self.submit, args_seq, name="arrival")
        self.scheduled_arrivals += len(args_seq)
        self.chunks_fired += 1


class ClientSource(Actor):
    """Replays a workload as client queries against the Load Balancer.

    Accepts either a concrete :class:`ArrivalTrace` (replayed as-is, so every
    system in a comparison sees identical arrivals) or an
    :class:`~repro.workloads.base.ArrivalProcess` (sampled deterministically
    from the simulator's own random streams when the run starts).

    Arrivals stream through an :class:`ArrivalFeeder`: the source holds only
    the trace's NumPy arrays, and ``Query`` objects materialize one chunk at
    a time as the clock reaches them.
    """

    def __init__(
        self,
        sim: Simulator,
        workload: Workload,
        dataset: QueryDataset,
        load_balancer: LoadBalancer,
        slo: float,
        *,
        chunk_size: int = DEFAULT_ARRIVAL_CHUNK,
    ) -> None:
        super().__init__(sim, name="client")
        self.workload = workload
        self.trace: Optional[ArrivalTrace] = (
            workload if isinstance(workload, ArrivalTrace) else None
        )
        self.dataset = dataset
        self.load_balancer = load_balancer
        self.slo = slo
        self.feeder = ArrivalFeeder(
            sim,
            dataset,
            load_balancer.submit,
            slo,
            chunk_size=chunk_size,
            seed_streams=load_balancer.seed_streams,
        )

    def start(self) -> None:
        """Queue every arrival in the workload (chunked, lazily materialized)."""
        if self.trace is None:
            self.trace = self.workload.sample(self.sim.rng)
        times = self.trace.arrival_times
        self.feeder.feed(range(len(times)), times)

    @property
    def total_queries(self) -> int:
        """Arrivals in the (sampled) trace; 0 before a stochastic workload samples."""
        return len(self.trace.arrival_times) if self.trace is not None else 0


@dataclass
class SystemRuntime:
    """A fully wired serving system whose event loop the caller drives.

    :meth:`ServingSimulation.run` is the one-shot driver; the shard
    supervisor instead passes routed queries to :meth:`inject_batch` epoch by
    epoch and :meth:`advance`s to each barrier, which fires exactly the same
    events in exactly the same order as a straight run (events are totally
    ordered by ``(time, priority, seq)`` and arrival times are continuous
    draws, so slicing the loop at barriers cannot reorder anything).
    """

    sim: Simulator
    collector: ResultCollector
    load_balancer: LoadBalancer
    controller: Controller
    replanner: ReplanController
    config: SystemConfig
    dataset: QueryDataset
    name: str
    feeder: ArrivalFeeder

    def inject_batch(self, batch: QueryBatch) -> None:
        """Schedule a column-oriented batch of routed arrivals, lazily.

        The batch's arrays go to the runtime's :class:`ArrivalFeeder`, which
        materializes ``Query`` objects one chunk at a time as the clock
        reaches them, so live objects stay at O(chunk).  Arrival times must
        lie at or after the current clock — the epoch protocol guarantees
        this by injecting epoch ``k``'s queries before advancing into epoch
        ``k``.
        """
        if len(batch):
            self.feeder.feed(batch.ids, batch.times, batch.slos)

    def start(self) -> None:
        """Fire actor start hooks (idempotent; applies plan zero, etc.)."""
        self.sim.start()

    def advance(self, until: float) -> float:
        """Advance the event loop to the barrier time ``until``."""
        return self.sim.advance(until=until)

    def finish(self) -> None:
        """Fire actor finish hooks (idempotent; flushes statistics)."""
        self.sim.finish()

    def result(self, duration: float) -> SimulationResult:
        """Package everything measured so far as a :class:`SimulationResult`.

        Drains the collector: its rows move into the result, so they live
        exactly as long as the result does rather than as long as the
        runtime's reference cycles.
        """
        return SimulationResult.from_columns(
            self.collector.drain(),
            dataset=self.dataset,
            slo=self.config.slo,
            duration=duration,
            control_history=list(self.controller.history),
            system_name=self.name,
            replan_history=list(self.replanner.history),
            fleet_cost=self.controller.cost_ledger.total_at(duration),
        )


class _GeneratorTurn(Actor):
    """Ends a system's turn on its image generator when the run finishes."""

    def __init__(self, sim: Simulator, generator: ImageGenerator) -> None:
        super().__init__(sim, name="generator-turn")
        self.generator = generator

    def finish(self) -> None:
        self.generator.end_turn()


@dataclass
class ServingSimulation:
    """A configured serving system ready to run a trace.

    Parameters
    ----------
    config:
        Cluster and routing configuration.
    dataset:
        Query dataset driving prompt difficulties and the FID reference.
    policy:
        Allocation policy used by the Controller.
    discriminator:
        Discriminator used for cascade routing (ignored by non-cascade modes).
    initial_demand:
        Demand estimate used for the very first allocation (before any
        arrivals have been observed); static baselines pass their
        peak-provisioning demand here.
    replan:
        The control loop's configuration.  A
        :class:`~repro.core.replanner.ReplanController` samples the
        collector's counters and the load balancer's arrival window every
        ``replan.epoch`` seconds and re-solves according to
        ``replan.policy``.  The default re-solves cold every 5 s; a fixed
        plan takes ``policy="static"``.
    name:
        Label attached to the result (used in figures/tables).
    faults:
        Optional deterministic fault plan (:class:`~repro.faults.plan.
        FaultPlan`).  When set, a :class:`~repro.faults.injector.
        FaultInjector` actor drives the plan's fault processes against the
        wired system and — if the plan enables recovery — arms the
        heartbeat/requeue/repair control loop.  ``None`` keeps the system
        bit-for-bit identical to a fault-free build.
    autoscale:
        Optional :class:`~repro.core.autoscaler.ScalePolicy`.  When set the
        worker pool is pre-provisioned up to ``max_factor`` times the
        configured fleet (spares are built drained and fire zero events) and
        an :class:`~repro.core.autoscaler.Autoscaler` is attached to the
        re-planner's epoch loop.  ``None`` means the ``static`` policy, which
        builds no spares and never scales.
    prices:
        Optional :class:`~repro.core.pricing.PriceTrace` metering the cost
        ledger and pricing spot classes for the cost-aware policy/MILP
        tie-break.  ``None`` meters the static catalog rate.
    profile:
        Arm the simulator's built-in event-loop profiler.  Per-event-name
        fire counts and cumulative callback wall-clock become available via
        ``runtime.sim.profile_snapshot()``; behaviour is byte-identical with
        profiling on or off (test-gated), and the wall-clock telemetry never
        enters cached summaries.
    arrival_chunk:
        Arrivals materialized per chunk by the :class:`ArrivalFeeder`
        (default :data:`DEFAULT_ARRIVAL_CHUNK`).  Purely a memory/latency
        knob — summaries are byte-identical for every chunk size.
    generator:
        Optional :class:`~repro.models.generation.ImageGenerator` shared
        with the other systems of a comparison cell, so each query outcome
        is drawn once per cell.  It is used only when its seed is this
        system's seed (a region system re-seeded by the shard supervisor
        builds its own); each :meth:`prepare` takes one turn on it.
        ``None`` builds a private generator.  Either way summaries are
        byte-identical: a shared outcome equals a fresh draw.
    """

    config: SystemConfig
    dataset: QueryDataset
    policy: AllocationPolicy
    discriminator: Optional[Discriminator] = None
    initial_demand: float = 1.0
    replan: ReplanConfig = ReplanConfig(warm_start=False)
    name: str = "diffserve"
    faults: Optional[FaultPlan] = None
    autoscale: Optional[ScalePolicy] = None
    prices: Optional[PriceTrace] = None
    profile: bool = False
    arrival_chunk: int = DEFAULT_ARRIVAL_CHUNK
    generator: Optional[ImageGenerator] = None
    #: Snapshot of the last profiled :meth:`run` (``None`` until one
    #: completes with ``profile=True``).  Live-object telemetry only — it
    #: never enters :class:`SimulationResult` summaries or the cache.
    last_profile: Optional[Dict[str, Tuple[int, float]]] = None

    def prepare(self) -> SystemRuntime:
        """Wire the full system (no client source) and return its runtime.

        The runtime is what both drivers share: :meth:`run` attaches a
        :class:`ClientSource` and runs to the horizon, while the shard
        supervisor injects externally routed queries epoch by epoch.
        """
        autoscale = self.autoscale if self.autoscale is not None else SCALE_POLICIES["static"]
        sim = Simulator(seed=self.config.seed, profile=self.profile)
        generator = self.generator
        if generator is None or generator.seed != self.config.seed:
            generator = ImageGenerator(seed=self.config.seed)
        generator.take_turn()
        _GeneratorTurn(sim, generator)
        collector = ResultCollector(self.dataset)

        load_balancer = LoadBalancer(
            sim,
            routing=self.config.routing,
            # Arrival history must cover the re-planner's epoch (a shorter
            # history would silently undercount arrivals and bias the demand
            # estimate low).
            observation_window=self.replan.epoch,
            on_response=lambda query, image, stage, conf, deferred: collector.complete(
                query, image, stage, conf, deferred, sim.now
            ),
            on_drop=collector.drop,
        )

        # One worker per fleet device, constructed grouped per device class in
        # the fleet's canonical order (the same order the Controller maps plan
        # assignments back onto workers).  With autoscaling the pool is
        # pre-provisioned up to the policy's ``max_factor`` ceiling; spare
        # workers beyond the active fleet receive no assignments and schedule
        # zero events, so scale-out activates them without perturbing the
        # event stream (serial == sharded byte-identical).
        build_counts = [
            (device, max(count, math.ceil(count * autoscale.max_factor)))
            for device, count in self.config.fleet.devices
        ]
        workers = []
        for device, count in build_counts:
            for _ in range(count):
                resources = None
                if self.config.resources is not None:
                    # Each device owns its transfer channel and residency set
                    # (the per-device-class transfer_gbps/memory_gb budgets).
                    spec = device if device is not None else DEFAULT_DEVICE_CLASS
                    resources = WorkerResources(
                        config=self.config.resources,
                        channel=BandwidthChannel(
                            sim,
                            capacity_gbps=spec.transfer_gbps,
                            name=f"worker-{len(workers)}-xfer",
                        ),
                        residency=ResidencySet(capacity_gb=spec.memory_gb),
                    )
                workers.append(
                    Worker(
                        sim,
                        worker_id=len(workers),
                        variant=self.config.cascade.light,
                        generator=generator,
                        discriminator=self.discriminator
                        if self.config.routing == RoutingMode.CASCADE
                        else None,
                        device=device,
                        resources=resources,
                    )
                )

        variants = dict(MODEL_ZOO)
        for variant in (self.config.cascade.light, self.config.cascade.heavy):
            variants.setdefault(variant.name, variant)

        controller = Controller(
            sim,
            self.config,
            workers,
            load_balancer,
            collector,
            self.policy,
            variants,
            self.discriminator,
            initial_demand=self.initial_demand,
            prices=self.prices,
        )

        replanner = ReplanController(
            sim,
            controller=controller,
            collector=collector,
            load_balancer=load_balancer,
            config=self.replan,
            autoscaler=Autoscaler(autoscale, controller, prices=self.prices),
        )

        if self.faults is not None:
            from repro.faults.injector import FaultInjector

            # Per-class revocation probability: the fraction of a class's
            # built workers named by the plan's spot revocations.  Feeds the
            # cost-aware policy's risk discount and the MILP tie-break.
            from repro.faults.plan import SpotRevocation

            targeted: dict = {}
            for fault in self.faults.faults:
                if isinstance(fault, SpotRevocation) and workers:
                    target = workers[fault.worker % len(workers)]
                    targeted.setdefault(target.device_name, set()).add(id(target))
            for device, built in build_counts:
                hits = targeted.get(device.name)
                if hits:
                    controller.revocation_risk[device.name] = len(hits) / built

            FaultInjector(
                sim,
                self.faults,
                workers=workers,
                load_balancer=load_balancer,
                controller=controller,
                collector=collector,
            )

        return SystemRuntime(
            sim=sim,
            collector=collector,
            load_balancer=load_balancer,
            controller=controller,
            replanner=replanner,
            config=self.config,
            dataset=self.dataset,
            name=self.name,
            feeder=ArrivalFeeder(
                sim,
                self.dataset,
                load_balancer.submit,
                self.config.slo,
                chunk_size=self.arrival_chunk,
                seed_streams=load_balancer.seed_streams,
            ),
        )

    def horizon(self, trace: Workload) -> float:
        """Default run horizon: the last arrival plus a drain margin.

        A few SLOs past the trace's end leaves room for the final queries to
        complete or be dropped.
        """
        return trace.duration + 4 * self.config.slo

    def run(self, trace: Workload, *, duration: Optional[float] = None) -> SimulationResult:
        """Run the workload through the system and collect results.

        ``trace`` is either a concrete :class:`ArrivalTrace` or an
        :class:`~repro.workloads.base.ArrivalProcess` sampled at start.
        """
        runtime = self.prepare()
        ClientSource(
            runtime.sim,
            trace,
            self.dataset,
            runtime.load_balancer,
            self.config.slo,
            chunk_size=self.arrival_chunk,
        )
        horizon = duration if duration is not None else self.horizon(trace)
        runtime.sim.run(until=horizon)
        if self.profile:
            self.last_profile = runtime.sim.profile_snapshot()
        return runtime.result(horizon)
