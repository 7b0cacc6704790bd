"""Worker: hosts one model variant, batches queries from its local queue.

Each worker executes its hosted model variant on the queries routed to it and
kept in its local queue (Section 3.1).  Workers hosting the lightweight model
also run the discriminator on their outputs.  The batch size, hosted variant,
and (for light workers) the confidence threshold are set by the Controller.

Two execution models coexist:

* **Legacy** (``resources=None``, the default): compute plus a constant
  scaled reload delay — byte-for-byte the pre-refactor behaviour.
* **Multi-resource** (a :class:`~repro.core.resources.WorkerResources` is
  attached): the worker runs a resident → transferring → computing → sending
  stage machine.  ``set_variant`` is free when the target's weights are
  already resident (:class:`~repro.core.resources.ResidencySet`), otherwise
  the weights move over the device's shared
  :class:`~repro.core.resources.BandwidthChannel`; finished batches ship
  their results through the same channel as a small sending stage, so a
  reload landing mid-stream contends with result egress and both slow down.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional


from repro.core.config import DeviceClass
from repro.core.query import Query
from repro.core.resources import WorkerResources
from repro.discriminators.base import Discriminator
from repro.models.generation import GeneratedImage, ImageGenerator
from repro.models.profiles import ProfiledTable
from repro.models.variants import ModelVariant
from repro.models.zoo import variant_profile
from repro.simulator.simulation import Actor, Simulator

#: Seconds a baseline-class worker spends loading a different variant in the
#: legacy reload model; each device class scales it by its ``reload_factor``.
RELOAD_LATENCY_S = 0.5


@dataclass(slots=True)
class WorkItem:
    """A query queued at a worker, tagged with its cascade stage.

    Slotted: one (sometimes two, after a deferral) of these is allocated per
    query on the simulator hot path.
    """

    query: Query
    stage: str  # "light" or "heavy"
    enqueue_time: float


@dataclass
class WorkerStats:
    """Cumulative counters of one worker's run.

    No control-plane code reads them: they are diagnostics for tests and
    for inspecting a finished run's workers.
    """

    arrivals: int = 0
    completions: int = 0
    drops: int = 0
    busy_time: float = 0.0
    batches: int = 0
    #: Multi-resource model only: reloads that found the target resident
    #: (zero transfer) vs. reloads that moved weights, and the stall time
    #: spent blocked on weight transfers.
    resident_hits: int = 0
    weight_reloads: int = 0
    reload_stall_time: float = 0.0


class Worker(Actor):
    """A GPU worker hosting one diffusion model variant.

    The worker keeps a FIFO queue; whenever it is idle and the queue is
    non-empty it immediately starts a batch of up to ``batch_size`` queries
    (partial batches are allowed, so low load gets low latency).  Execution
    time is drawn from the variant's latency profile; light workers add the
    discriminator's per-image latency.  Queries predicted to miss their
    deadline are dropped at dequeue time when ``drop_late`` is enabled.
    """

    def __init__(
        self,
        sim: Simulator,
        worker_id: int,
        variant: ModelVariant,
        generator: ImageGenerator,
        *,
        batch_size: int = 1,
        discriminator: Optional[Discriminator] = None,
        drop_late: bool = True,
        reload_latency: float = RELOAD_LATENCY_S,
        device: Optional[DeviceClass] = None,
        resources: Optional[WorkerResources] = None,
        on_complete: Optional[Callable[[WorkItem, GeneratedImage, Optional[float]], None]] = None,
        on_drop: Optional[Callable[[WorkItem], None]] = None,
    ) -> None:
        super().__init__(sim, name=f"worker-{worker_id}")
        self.worker_id = worker_id
        self.variant = variant
        self.generator = generator
        self.batch_size = batch_size
        self.discriminator = discriminator
        self.drop_late = drop_late
        #: The device class this worker's GPU belongs to (``None`` = the
        #: baseline class the zoo profiles were measured on).  Execution
        #: latency and model reloads scale with the class.
        self.device = device
        self.reload_latency = reload_latency * (device.reload_factor if device else 1.0)
        #: Multi-resource state (``None`` = the legacy reload model).
        self.resources = resources
        self.on_complete = on_complete
        self.on_drop = on_drop
        #: Fault-injection state.  ``failed`` workers accept no work and
        #: never complete; ``quarantined`` workers are excluded from pools at
        #: the next plan application; ``slowdown`` multiplies execution
        #: latency (1.0 — the exact float no-op — outside straggler windows).
        #: ``on_fail`` lets the injector capture work routed to a dead worker
        #: before the failure detector has caught up.
        self.failed = False
        self.quarantined = False
        self.slowdown = 1.0
        self.on_fail: Optional[Callable[[WorkItem], None]] = None
        self._inflight: List[WorkItem] = []

        self.queue: Deque[WorkItem] = deque()
        self._busy = False
        #: Load-change hook (set by the Load Balancer's pool index).  Fired
        #: after *every* mutation of :attr:`load` — queue appends and pops,
        #: busy flips, queue clears — which is the index's whole correctness
        #: contract: a load change the hook misses is a worker the index can
        #: no longer see.
        self.on_load_change: Optional[Callable[["Worker"], None]] = None
        self._dispatching = False
        #: Variant the worker is blocked on while its weights transfer in.
        self._reload_pending: Optional[str] = None
        self._reload_started_at = 0.0
        self.stats = WorkerStats()
        self.latency_profile = variant_profile(variant, device)
        self.profiled = ProfiledTable(profile=self.latency_profile)
        self._rng = sim.rng.spawn("worker-latency", worker_id)
        if self.resources is not None:
            # The initially hosted variant is pre-staged (zero transfer),
            # matching the legacy model's free initial assignment.
            footprint = self.resources.config.footprint_or_derived(variant)
            self.resources.residency.admit(variant.name, footprint.weights_gb)

    # ------------------------------------------------------------ properties
    @property
    def queue_length(self) -> int:
        """Number of queries waiting in the local queue."""
        return len(self.queue)

    @property
    def busy(self) -> bool:
        """Whether the worker is executing a batch (or blocked on a reload)."""
        return self._busy

    @busy.setter
    def busy(self, value: bool) -> None:
        self._busy = value
        cb = self.on_load_change
        if cb is not None:
            cb(self)

    @property
    def load(self) -> int:
        """Routing load: queued queries plus one if the worker is occupied.

        Exactly the key the Load Balancer's least-loaded choice orders by.
        """
        return len(self.queue) + (1 if self._busy else 0)

    def _notify_load(self) -> None:
        cb = self.on_load_change
        if cb is not None:
            cb(self)

    @property
    def stage(self) -> str:
        """Cascade stage of this worker ("light" if it runs a discriminator)."""
        return "light" if self.discriminator is not None else "heavy"

    @property
    def device_name(self) -> str:
        """Device-class name of this worker's GPU (baseline when untyped)."""
        from repro.core.config import DEFAULT_DEVICE_CLASS

        return self.device.name if self.device is not None else DEFAULT_DEVICE_CLASS.name

    # ----------------------------------------------------------- control path
    def set_batch_size(self, batch_size: int) -> None:
        """Update the batch size (takes effect from the next batch)."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = int(batch_size)

    def set_variant(
        self, variant: ModelVariant, discriminator: Optional[Discriminator] = None
    ) -> None:
        """Switch the hosted model variant.

        Legacy model: a constant reload delay (scaled by the device class)
        whenever the variant changes.  Multi-resource model: free when the
        target's weights are already resident, otherwise the worker blocks
        while the weights cross the shared transfer channel — so the cost
        depends on what else (egress, prefetches) is on the wire.
        """
        if self.failed:
            return
        changed = variant.name != self.variant.name
        self.variant = variant
        self.discriminator = discriminator
        if not changed:
            if self.resources is not None:
                self.resources.residency.touch(variant.name)
            return
        self.latency_profile = variant_profile(variant, self.device)
        self.profiled = ProfiledTable(profile=self.latency_profile)
        if self.resources is None:
            if self.reload_latency > 0:
                # Block the worker for the model reload.
                self.busy = True
                self.sim.schedule(
                    self.reload_latency, self._finish_reload, name=f"{self.name}-reload"
                )
            return
        # ----------------------------------------------- multi-resource path
        if self.resources.ready(variant.name):
            # Resident weights: reconfiguration costs zero transfer (the
            # reload-idempotence / co-placement fast path).
            self.resources.residency.touch(variant.name)
            self.stats.resident_hits += 1
            if self._reload_pending is not None:
                # A previous reload is no longer the target; unblock now
                # (its transfer keeps running as a background prefetch).
                self._reload_pending = None
                self.stats.reload_stall_time += self.now - self._reload_started_at
                self.busy = False
                self._maybe_start_batch()
            return
        self.stats.weight_reloads += 1
        if self._reload_pending is None:
            self._reload_started_at = self.now
        self._reload_pending = variant.name
        self.busy = True
        self._start_weight_load(variant)

    def _finish_reload(self) -> None:
        if self.failed:
            return
        self.busy = False
        self._maybe_start_batch()

    # ------------------------------------------------- multi-resource stages
    def _start_weight_load(self, variant: ModelVariant) -> None:
        """Begin moving ``variant``'s weights in (no-op if resident/loading)."""
        res = self.resources
        assert res is not None
        name = variant.name
        if name in res.loading or res.residency.contains(name):
            return
        footprint = res.config.footprint_or_derived(variant)
        protected = [self.variant.name]
        if self._reload_pending is not None:
            protected.append(self._reload_pending)
        evicted = res.residency.admit(name, footprint.weights_gb, active=protected)
        for victim in evicted:
            # An evicted victim may itself have been mid-transfer (a stale
            # prefetch); abort it so the channel frees its share.
            transfer = res.loading.pop(victim, None)
            if transfer is not None:
                res.channel.cancel(transfer)
        res.loading[name] = res.channel.submit(
            footprint.weights_gb,
            lambda: self._weights_loaded(name),
            name=f"{self.name}-load-{name}",
        )

    def _weights_loaded(self, name: str) -> None:
        res = self.resources
        assert res is not None
        res.loading.pop(name, None)
        if self.failed:
            return
        if self._reload_pending == name:
            self._reload_pending = None
            self.stats.reload_stall_time += self.now - self._reload_started_at
            self.busy = False
            self._maybe_start_batch()

    def pin_residency(self, variants: List[ModelVariant]) -> None:
        """Pin plan residency: keep ``variants`` resident, prefetching misses.

        Pinned variants survive LRU eviction and are prefetched over the
        transfer channel in the background (contending with egress), so a
        later ``set_variant`` to any of them is free.  No-op in the legacy
        model.
        """
        if self.resources is None or self.failed:
            return
        self.resources.residency.pin([v.name for v in variants])
        for variant in variants:
            if not self.resources.ready(variant.name):
                self._start_weight_load(variant)

    # -------------------------------------------------------------- data path
    def enqueue(self, item: WorkItem) -> None:
        """Add a query to the local queue and start a batch if idle."""
        if self.failed:
            # A dead worker is a black hole: hand the item to the injector's
            # strand hook (recovery on) or drop it outright (recovery off).
            self.stats.arrivals += 1
            if self.on_fail is not None:
                self.on_fail(item)
            else:
                self.stats.drops += 1
                if self.on_drop is not None:
                    self.on_drop(item)
            return
        self.queue.append(item)
        self._notify_load()
        self.stats.arrivals += 1
        self._maybe_start_batch()

    def fail(self) -> List[WorkItem]:
        """Kill the worker; return the queued + in-flight items it orphans."""
        if self.failed:
            return []
        self.failed = True
        orphans = list(self._inflight) + list(self.queue)
        self._inflight = []
        self.queue.clear()
        self.busy = False  # setter notifies; covers the queue clear too
        self._reload_pending = None
        return orphans

    def drain_queue(self) -> List[WorkItem]:
        """Empty the local queue (e.g. before decommissioning) and return it."""
        drained = list(self.queue)
        self.queue.clear()
        self._notify_load()
        return drained

    def _predicted_exec_latency(self, batch_size: int) -> float:
        latency = self.profiled.latency(batch_size)
        if self.discriminator is not None:
            latency += self.discriminator.latency_s * batch_size
        return latency

    def _maybe_start_batch(self) -> None:
        # Loop, not tail-recursion: a flash crowd can leave thousands of
        # already-late queries in the queue, and dropping each dequeued wave
        # must not add a stack frame per wave.  The guard stops ``on_drop``
        # handlers that synchronously re-enqueue (retry/resubmit policies)
        # from re-entering; the loop re-checks the queue each wave, so items
        # they add are still picked up before it exits.
        if self._dispatching or self.failed:
            return
        self._dispatching = True
        try:
            batch: List[WorkItem] = []
            while not batch:
                if self.busy or not self.queue:
                    return
                exec_estimate = self._predicted_exec_latency(min(self.batch_size, len(self.queue)))
                while self.queue and len(batch) < self.batch_size:
                    item = self.queue.popleft()
                    # Notify per pop, before any ``on_drop`` below: a drop
                    # handler may synchronously resubmit, and the pool index
                    # it routes with must already see this queue shrink.
                    self._notify_load()
                    if (
                        self.drop_late
                        and self.now + exec_estimate > item.query.deadline
                    ):
                        self.stats.drops += 1
                        if self.on_drop is not None:
                            self.on_drop(item)
                        continue
                    batch.append(item)
            self.busy = True
        finally:
            self._dispatching = False
        latency = self.latency_profile.sample_latency(len(batch), self._rng)
        if self.discriminator is not None:
            latency += self.discriminator.latency_s * len(batch)
        latency *= self.slowdown
        # Extend, don't assign: a mid-batch weight reload can reset ``busy``
        # and let a second batch dispatch while the first still executes, and
        # ``fail()`` must orphan every in-flight item, not just the latest
        # batch's.
        self._inflight.extend(batch)
        self.sim.schedule(
            latency, lambda: self._complete_batch(batch, latency), name=f"{self.name}-batch"
        )

    def _complete_batch(self, batch: List[WorkItem], latency: float) -> None:
        if self.failed:
            # The worker died mid-batch; its results are lost (the items were
            # orphaned by fail() and are the recovery path's problem now).
            return
        finished = {id(item) for item in batch}
        self._inflight = [item for item in self._inflight if id(item) not in finished]
        self.busy = False
        self.stats.busy_time += latency
        self.stats.batches += 1
        self.profiled.observe(len(batch), latency)
        images = self.generator.generate_batch(
            [item.query.query_id for item in batch],
            [item.query.difficulty for item in batch],
            self.variant,
        )
        if self.discriminator is not None:
            confidences = self.discriminator.confidence_batch(images)
        else:
            confidences = [None] * len(batch)
        if self.resources is not None:
            # Sending stage: results leave through the transfer channel,
            # sharing bandwidth with any in-flight weight loads.  The worker
            # is free to start its next batch while results stream out.
            footprint = self.resources.config.footprint_or_derived(self.variant)
            egress_gb = footprint.egress_gb_per_image * len(batch)
            self.resources.channel.submit(
                egress_gb,
                lambda: self._deliver_batch(batch, images, confidences),
                name=f"{self.name}-send",
            )
        else:
            self._deliver_batch(batch, images, confidences)
        self._maybe_start_batch()

    def _deliver_batch(self, batch, images, confidences) -> None:
        for item, image, confidence in zip(batch, images, confidences):
            self.stats.completions += 1
            if self.on_complete is not None:
                conf = float(confidence) if confidence is not None else None
                self.on_complete(item, image, conf)
