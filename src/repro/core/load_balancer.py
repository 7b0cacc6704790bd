"""Load Balancer: routes queries along the data path.

The Load Balancer sits between clients and workers.  Under cascade routing it
first sends every query to a worker hosting the lightweight model and its
discriminator; if the returned confidence meets the threshold, the image is
the response, otherwise the query is forwarded to a worker hosting the
heavyweight model (Figure 2).  It also implements the single-model routing of
the Clipper baselines and the content-agnostic random split used by Proteus.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple


from repro.core.config import RoutingMode
from repro.core.query import Query, QueryStage
from repro.core.worker import WorkItem, Worker
from repro.models.generation import GeneratedImage
from repro.simulator.simulation import Actor, Simulator


@dataclass
class LoadBalancerStats:
    """Per-window statistics reported to the Controller."""

    arrivals: int = 0
    deferred: int = 0
    returned_light: int = 0
    returned_heavy: int = 0
    dropped: int = 0

    def reset(self) -> None:
        """Clear the per-window counters."""
        self.arrivals = 0
        self.deferred = 0
        self.returned_light = 0
        self.returned_heavy = 0
        self.dropped = 0

    @property
    def observed_deferral_rate(self) -> Optional[float]:
        """Fraction of light completions that were deferred (None if no data)."""
        light_decisions = self.deferred + self.returned_light
        if light_decisions == 0:
            return None
        return self.deferred / light_decisions


#: Recycled :class:`WorkItem` wrappers retained by the Load Balancer.
_ITEM_FREE_LIST_MAX = 1024


class _PoolIndex:
    """Incremental least-loaded index over one worker pool.

    A lazy min-heap of ``(load, worker_id)`` entries: every load change
    pushes a fresh entry (via the workers' ``on_load_change`` hook), and
    :meth:`least_loaded` pops entries whose recorded load no longer matches
    the worker's current load.  The heap top is then exactly
    ``min(pool, key=lambda w: (w.load, w.worker_id))`` — the same worker the
    O(pool) scan would pick, in O(log pool) amortised (pinned by a
    regression test that replays both side by side).

    Stale entries are bounded: the heap is rebuilt from the live workers
    whenever it outgrows ``4 * pool + 64`` entries.
    """

    __slots__ = ("workers", "heap")

    def __init__(self, pool: List[Worker]) -> None:
        self.workers: Dict[int, Worker] = {w.worker_id: w for w in pool}
        self.heap: List[Tuple[int, int]] = [(w.load, w.worker_id) for w in pool]
        heapify(self.heap)

    def push(self, worker: Worker) -> None:
        """Record a load change (the worker's hook calls this)."""
        heappush(self.heap, (worker.load, worker.worker_id))
        if len(self.heap) > 4 * len(self.workers) + 64:
            self.heap = [(w.load, w.worker_id) for w in self.workers.values()]
            heapify(self.heap)

    def least_loaded(self) -> Optional[Worker]:
        """The pool's ``(load, worker_id)``-minimal worker (None if empty)."""
        heap = self.heap
        workers = self.workers
        while heap:
            load, worker_id = heap[0]
            worker = workers.get(worker_id)
            if worker is not None and worker.load == load:
                return worker
            heappop(heap)  # stale entry (or a worker no longer pooled)
        return None


class LoadBalancer(Actor):
    """Routes queries to workers and escalates low-confidence responses."""

    def __init__(
        self,
        sim: Simulator,
        *,
        routing: RoutingMode,
        threshold: float = 0.5,
        heavy_fraction: float = 0.0,
        observation_window: float = 60.0,
        on_response: Optional[
            Callable[[Query, GeneratedImage, QueryStage, Optional[float], bool], None]
        ] = None,
        on_drop: Optional[Callable[[Query], None]] = None,
    ) -> None:
        super().__init__(sim, name="load-balancer")
        if observation_window <= 0:
            raise ValueError("observation_window must be positive")
        self.routing = routing
        self.threshold = threshold
        #: How far back arrival timestamps are retained for
        #: :meth:`arrivals_in_window`.  Timestamps older than this are pruned
        #: on every arrival, so memory stays bounded by the window's arrival
        #: count instead of growing linearly over the whole run.
        self.observation_window = float(observation_window)
        #: Fraction of queries sent directly to the heavy pool under
        #: RANDOM_SPLIT routing (set by the Proteus-style controller).
        self.heavy_fraction = heavy_fraction
        #: Estimated execution latency and batch size of the heavy pool (set
        #: by the Controller from the current plan); a low-confidence query is
        #: only deferred if the estimated heavy-side completion time (queueing
        #: plus execution) still fits within its deadline, otherwise the light
        #: image is returned as a degraded response.
        self.heavy_latency_estimate = 0.0
        self.heavy_batch_estimate = 1
        self.on_response = on_response
        self.on_drop = on_drop
        #: Retry-with-backoff recovery knobs (set by the fault injector when
        #: a recovery-enabled plan is attached).  A zero budget keeps the
        #: legacy behaviour: :meth:`requeue` drops immediately.
        self.retry_budget = 0
        self.backoff_base = 0.25
        self.on_retry: Optional[Callable[[Query], None]] = None
        self.requeues = 0
        #: (query_id, delay) per scheduled retry, for accounting tests.
        self.retry_log: List[Tuple[int, float]] = []
        self._retries: Dict[int, int] = {}
        self.light_pool: List[Worker] = []
        self.heavy_pool: List[Worker] = []
        self._light_index = _PoolIndex([])
        self._heavy_index = _PoolIndex([])
        self._item_free: List[WorkItem] = []
        self.stats = LoadBalancerStats()
        self._rng = sim.rng.stream("load-balancer")
        self._arrival_times: Deque[float] = deque()

    # ----------------------------------------------------------- control path
    def set_threshold(self, threshold: float) -> None:
        """Update the cascade confidence threshold."""
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        self.threshold = float(threshold)

    def set_heavy_fraction(self, fraction: float) -> None:
        """Update the random-split heavy fraction (Proteus routing)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        self.heavy_fraction = float(fraction)

    def set_pools(self, light_pool: List[Worker], heavy_pool: List[Worker]) -> None:
        """Update which workers host the light and heavy models."""
        self.light_pool = list(light_pool)
        self.heavy_pool = list(heavy_pool)
        self._light_index = _PoolIndex(self.light_pool)
        self._heavy_index = _PoolIndex(self.heavy_pool)
        for worker in self.light_pool + self.heavy_pool:
            worker.on_complete = self._on_worker_complete
            worker.on_drop = self._on_worker_drop
            worker.on_load_change = self._on_worker_load

    def _on_worker_load(self, worker: Worker) -> None:
        """Worker load-change hook: refresh the pool indexes."""
        worker_id = worker.worker_id
        if worker_id in self._light_index.workers:
            self._light_index.push(worker)
        if worker_id in self._heavy_index.workers:
            self._heavy_index.push(worker)

    # ------------------------------------------------------- WorkItem recycling
    def _make_item(self, query: Query, stage: str) -> WorkItem:
        """A :class:`WorkItem`, recycled from the free list when possible.

        One wrapper is allocated per query hop on the hot path; recycling
        them keeps steady-state dispatch allocation-free.  Only wrappers that
        have reached a terminal callback (:meth:`_on_worker_complete` /
        :meth:`_on_worker_drop`) are recycled — orphaned items held by the
        fault injector never re-enter the free list.
        """
        free = self._item_free
        if free:
            item = free.pop()
            item.query = query
            item.stage = stage
            item.enqueue_time = self.now
            return item
        return WorkItem(query=query, stage=stage, enqueue_time=self.now)

    def _release_item(self, item: WorkItem) -> None:
        free = self._item_free
        if len(free) < _ITEM_FREE_LIST_MAX:
            item.query = None  # type: ignore[assignment]  # drop the reference
            free.append(item)

    # ------------------------------------------------------------- data path
    def submit(self, query: Query) -> None:
        """Entry point for client queries."""
        self.stats.arrivals += 1
        self._arrival_times.append(self.now)
        self._prune_arrivals()
        go_heavy = (
            self.routing == RoutingMode.RANDOM_SPLIT
            and bool(self.heavy_pool)
            and self._rng.random() < self.heavy_fraction
        )
        pool, stage = self.first_pool(go_heavy)
        if not pool:
            self._drop(query)
            return
        worker = self._least_loaded(pool)
        worker.enqueue(self._make_item(query, stage))

    def first_pool(self, go_heavy: bool = False) -> Tuple[List[Worker], str]:
        """The pool and stage a new arrival goes to first.

        Cascade and single-model routing send everything to the light pool
        when it has workers and to the heavy pool otherwise; random-split
        routing does the same unless its draw (``go_heavy``) picked the
        heavy pool.  An empty pool means the arrival is dropped.
        """
        if go_heavy or not self.light_pool:
            return self.heavy_pool, "heavy"
        return self.light_pool, "light"

    def seed_streams(self, query_ids: Sequence[int], difficulties: Sequence[float]) -> None:
        """Precompute the per-query draws the first stage will make for these arrivals.

        Seeds the images of every pool an arrival can enter first and, when
        that stage is scored, the discriminator's observations of them: the
        pool :meth:`first_pool` serves, and under random-split routing,
        whose split is drawn only at :meth:`submit`, the heavy pool too.  A
        query routed elsewhere by the time it runs simply draws afresh.
        """
        pools = [self.first_pool()[0]]
        if self.routing == RoutingMode.RANDOM_SPLIT and self.light_pool and self.heavy_pool:
            pools.append(self.heavy_pool)
        stages = [(pool[0].variant, pool[0].discriminator) for pool in pools if pool]
        if stages:
            pools[0][0].generator.seed_streams(query_ids, difficulties, stages)

    def _least_loaded(self, pool: List[Worker]) -> Worker:
        if pool is self.light_pool:
            worker = self._light_index.least_loaded()
        elif pool is self.heavy_pool:
            worker = self._heavy_index.least_loaded()
        else:
            worker = None
        if worker is not None:
            return worker
        # Foreign pool (tests probe with ad-hoc lists) or an empty index:
        # the reference O(pool) scan the index is defined against.
        return min(pool, key=lambda w: (w.load, w.worker_id))

    def _heavy_completion_estimate(self) -> float:
        """Estimated time for a newly deferred query to finish on the heavy pool.

        The estimate counts the queued batches ahead of the query plus its own
        batch; an in-flight batch counts as half a batch (on average it is
        halfway done).
        """
        if not self.heavy_pool or self.heavy_latency_estimate <= 0:
            return self.heavy_latency_estimate
        worker = self._least_loaded(self.heavy_pool)
        pending = worker.queue_length + (0.5 if worker.busy else 0.0)
        batches_ahead = pending / max(self.heavy_batch_estimate, 1)
        return (batches_ahead + 1.0) * self.heavy_latency_estimate

    # -------------------------------------------------------------- callbacks
    def _on_worker_complete(
        self, item: WorkItem, image: GeneratedImage, confidence: Optional[float]
    ) -> None:
        # Capture before recycling: this callback is the item's terminal hop
        # (the worker already removed it from its in-flight set), so the
        # wrapper goes back to the free list and may be reused by the
        # enqueues below.
        query = item.query
        item_stage = item.stage
        self._release_item(item)
        if item_stage == "light" and self.routing == RoutingMode.CASCADE:
            accept = confidence is None or confidence >= self.threshold
            can_defer = bool(self.heavy_pool) and (
                self.now + self._heavy_completion_estimate() <= query.deadline
            )
            if accept or not can_defer:
                self.stats.returned_light += 1
                self._respond(query, image, QueryStage.LIGHT, confidence, deferred=False)
            else:
                self.stats.deferred += 1
                worker = self._least_loaded(self.heavy_pool)
                worker.enqueue(self._make_item(query, "heavy"))
        else:
            stage = QueryStage.HEAVY if item_stage == "heavy" else QueryStage.LIGHT
            if stage == QueryStage.HEAVY:
                self.stats.returned_heavy += 1
            else:
                self.stats.returned_light += 1
            self._respond(query, image, stage, confidence, deferred=item_stage == "heavy")

    def _on_worker_drop(self, item: WorkItem) -> None:
        query = item.query
        self._release_item(item)
        self._drop(query)

    # ------------------------------------------------------------- recovery
    def requeue(self, query: Query, stage: str = "light") -> None:
        """Resubmit a query orphaned by a worker failure.

        Bounded retry with exponential backoff: attempt ``k`` (0-based) waits
        ``backoff_base * 2**k`` before resubmitting; once the budget is
        exhausted the query is dropped.  The original :class:`Query` object
        is reused, so its recorded latency spans first arrival to final
        completion across every retry.
        """
        attempts = self._retries.get(query.query_id, 0)
        if attempts >= self.retry_budget:
            self._drop(query)
            return
        self._retries[query.query_id] = attempts + 1
        self.requeues += 1
        if self.on_retry is not None:
            self.on_retry(query)
        delay = self.backoff_base * (2.0**attempts)
        self.retry_log.append((query.query_id, delay))
        self.sim.schedule(delay, lambda: self._resubmit(query, stage), name="lb-retry")

    def _resubmit(self, query: Query, stage: str) -> None:
        if stage == "heavy" and self.heavy_pool:
            pool = self.heavy_pool
        elif self.light_pool:
            pool, stage = self.light_pool, "light"
        elif self.heavy_pool:
            pool, stage = self.heavy_pool, "heavy"
        else:
            self._drop(query)
            return
        worker = self._least_loaded(pool)
        worker.enqueue(self._make_item(query, stage))

    def _respond(
        self,
        query: Query,
        image: GeneratedImage,
        stage: QueryStage,
        confidence: Optional[float],
        deferred: bool,
    ) -> None:
        if self.on_response is not None:
            self.on_response(query, image, stage, confidence, deferred)

    def _drop(self, query: Query) -> None:
        self.stats.dropped += 1
        if self.on_drop is not None:
            self.on_drop(query)

    # ------------------------------------------------------------- statistics
    def _prune_arrivals(self) -> None:
        """Drop arrival timestamps older than the observation window."""
        cutoff = self.now - self.observation_window
        arrivals = self._arrival_times
        while arrivals and arrivals[0] < cutoff:
            arrivals.popleft()

    def arrivals_in_window(self, window: float) -> int:
        """Number of arrivals in the last ``window`` seconds.

        Windows longer than :attr:`observation_window` see at most the
        retained history (the controller's window is always within it).
        """
        self._prune_arrivals()
        cutoff = self.now - window
        count = 0
        for t in reversed(self._arrival_times):
            if t < cutoff:
                break
            count += 1
        return count

    def collect_stats(self) -> LoadBalancerStats:
        """Return and reset per-window statistics."""
        snapshot = LoadBalancerStats(
            arrivals=self.stats.arrivals,
            deferred=self.stats.deferred,
            returned_light=self.stats.returned_light,
            returned_heavy=self.stats.returned_heavy,
            dropped=self.stats.dropped,
        )
        self.stats.reset()
        return snapshot
