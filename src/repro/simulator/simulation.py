"""The simulation driver and actor base class."""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.simulator.events import Event, EventQueue, _list_new
from repro.simulator.rng import RandomStreams


class Simulator:
    """A discrete-event simulator.

    The simulator owns the clock, the event queue, and the random streams.
    Actors schedule callbacks with :meth:`schedule` / :meth:`schedule_at` and
    the driver advances time by repeatedly firing the earliest event.

    ``profile=True`` arms the built-in profiler: the advance loop accumulates
    per-event-name fire counts and cumulative callback wall-clock seconds
    (:meth:`profile_snapshot`).  Profiling never changes behaviour — events
    fire in exactly the same order with or without it — it only adds two
    ``perf_counter`` reads around each callback.  Wall-clock is telemetry on
    the live simulator only; it must never enter cached or merged summaries.
    """

    def __init__(self, seed: int = 0, profile: bool = False) -> None:
        self.now: float = 0.0
        self.events = EventQueue()
        self.rng = RandomStreams(seed)
        self.actors: List["Actor"] = []
        self._stopped = False
        self._fired = 0
        self._started = False
        self._finished = False
        self.profile_enabled = bool(profile)
        #: name -> [fire count, cumulative callback seconds]
        self._profile: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------ time
    @property
    def events_fired(self) -> int:
        """Number of events processed so far."""
        return self._fired

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *,
        priority: int = 0,
        name: str = "",
        args: tuple = (),
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        # Inlined EventQueue.push (kept in sync): this is the single hottest
        # scheduling call — every batch, tick, retry, and transfer goes
        # through it — and the extra frame is measurable at 1M events/run.
        events = self.events
        seq = events._next_seq
        events._next_seq = seq + 1
        free = events._free
        if free:
            event = free.pop()
            event[0] = self.now + delay
            event[1] = priority
            event[2] = seq
            event[3] = callback
            event[4] = args
            event[5] = name
            event[6] = False
        else:
            event = _list_new(Event)
            event += (self.now + delay, priority, seq, callback, args, name, False)
        heappush(events._heap, event)
        events._live += 1
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *,
        priority: int = 0,
        name: str = "",
        args: tuple = (),
    ) -> Event:
        """Schedule ``callback(*args)`` to fire at absolute simulation time ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        return self.events.push(time, callback, priority=priority, name=name, args=args)

    def schedule_many_at(
        self,
        times: Sequence[float],
        callback: Callable[..., Any],
        args_seq: Iterable[tuple],
        *,
        priority: int = 0,
        name: str = "",
    ) -> None:
        """Bulk-schedule ``callback(*args)`` at each absolute time.

        The chunked-arrival fast path: one call schedules a whole chunk with
        a shared callback and per-event ``args``, no handles, no closures.
        Sequence numbers follow the given order, so ties at equal ``(time,
        priority)`` fire in input order — observation-equivalent to calling
        :meth:`schedule_at` once per entry (pinned by a property test).
        """
        if len(times) == 0:
            return
        earliest = min(times)
        if earliest < self.now:
            raise ValueError(f"cannot schedule in the past: {earliest} < {self.now}")
        self.events.push_bulk(times, callback, args_seq, priority=priority, name=name)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event."""
        self.events.cancel(event)

    # ---------------------------------------------------------------- actors
    def register(self, actor: "Actor") -> None:
        """Register an actor so it participates in ``start``/``finish`` hooks."""
        self.actors.append(actor)

    # --------------------------------------------------------------- running
    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stopped = True

    def start(self) -> None:
        """Fire every actor's ``start`` hook exactly once (idempotent).

        Epoch-stepped drivers (the shard supervisor) call this before their
        first :meth:`advance`; :meth:`run` calls it implicitly.  Re-invoking
        is a no-op, so resuming a run never re-schedules initial events.
        """
        if self._started:
            return
        self._started = True
        for actor in self.actors:
            actor.start()

    def advance(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Advance the clock by firing events, without lifecycle hooks.

        This is the barrier-stepping primitive behind sharded execution: a
        sequence of ``advance(b1); advance(b2); ...`` calls fires exactly the
        same events in exactly the same order as one ``advance(horizon)``
        (events are totally ordered by ``(time, priority, seq)``, and slicing
        the loop never perturbs that order) — which is what makes epoch-
        stepped shards byte-identical to a straight serial run.

        The loop reads event slots directly (``[time, priority, seq, fn,
        args, name, recyclable]``) and returns recyclable wrappers to the
        queue's free list after firing, so steady-state bulk dispatch
        allocates ~nothing.
        """
        events = self.events
        # The loop reads the queue's internals directly (kept in sync with
        # EventQueue): compaction mutates the heap list in place, so this
        # binding stays valid across callbacks that cancel events.
        heap = events._heap
        recycle = events.recycle
        profiling = self.profile_enabled
        profile = self._profile
        budget = -1 if max_events is None else max_events
        fired_this_run = 0
        while not self._stopped:
            if not heap:
                if until is not None:
                    self.now = until
                break
            event = heap[0]
            fn = event[3]
            if fn is None:
                # Tombstone (cancelled): drop and recycle, fire nothing.
                heappop(heap)
                events._discard(event)
                continue
            time = event[0]
            if until is not None and time > until:
                self.now = until
                break
            heappop(heap)
            events._live -= 1
            self.now = time
            if profiling:
                tick = perf_counter()
                fn(*event[4])
                elapsed = perf_counter() - tick
                record = profile.get(event[5])
                if record is None:
                    record = profile[event[5]] = [0, 0.0]
                record[0] += 1
                record[1] += elapsed
            else:
                fn(*event[4])
            self._fired += 1
            fired_this_run += 1
            if event[6]:
                recycle(event)
            if fired_this_run == budget:
                break
        if until is not None and not self.events and self.now < until and not self._stopped:
            self.now = until
        return self.now

    def finish(self) -> None:
        """Fire every actor's ``finish`` hook exactly once (idempotent)."""
        if self._finished:
            return
        self._finished = True
        for actor in self.actors:
            actor.finish()

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once the next event would fire after this time.  ``None``
            runs until the event queue drains.
        max_events:
            Safety valve limiting the number of fired events.

        Returns
        -------
        float
            The simulation time at which the run stopped.

        ``run`` may be called repeatedly to resume (e.g. after a
        ``max_events`` budget); actors are started on the first call only,
        while ``finish`` hooks re-fire at the end of every call so partial
        runs still flush statistics.
        """
        self._stopped = False
        self.start()
        now = self.advance(until=until, max_events=max_events)
        self._finished = False
        self.finish()
        return now

    # ------------------------------------------------------------- profiling
    def profile_snapshot(self) -> Dict[str, Tuple[int, float]]:
        """Cumulative ``{event name: (fires, callback seconds)}`` so far.

        Empty unless the simulator was built with ``profile=True``.  The
        seconds are wall-clock telemetry: report them live (CLI tables,
        timing reports), never store them in cached summaries.
        """
        return {name: (int(count), float(seconds)) for name, (count, seconds) in self._profile.items()}


class Actor:
    """Base class for simulation actors (workers, load balancer, controller...).

    Subclasses override :meth:`start` to schedule their initial events and
    :meth:`finish` to flush statistics when the run ends.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name or type(self).__name__
        sim.register(self)

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.sim.now

    def start(self) -> None:  # pragma: no cover - default no-op
        """Hook called once when the simulation run begins."""

    def finish(self) -> None:  # pragma: no cover - default no-op
        """Hook called once when the simulation run ends."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
