"""Event primitives for the discrete-event simulator.

Events are ordered by ``(time, priority, sequence)`` so that simultaneous
events are processed in a deterministic order: first by explicit priority,
then by insertion order.

Hot-path representation
-----------------------
:class:`Event` is a ``list`` subclass with the fixed layout
``[time, priority, seq, fn, args, name, recyclable]``.  Two properties make
this the cheapest faithful representation Python offers:

* Heap comparisons run at C speed (``list.__lt__`` element-wise), and since
  every event carries a unique ``seq`` the comparison always resolves within
  the first three numeric slots — the callback is never compared.
* Firing is ``fn(*args)`` with no wrapper call: the driver reads the slots
  directly, so steady-state dispatch does one callable invocation per event.

Cancellation is a tombstone: slot 3 (``fn``) is set to ``None`` in place, so
``cancel`` never touches the heap.  Events pushed through the bulk API are
flagged *recyclable* (their handles are never returned to callers), which
lets the queue keep a bounded free list and re-use the wrappers — steady-state
bulk dispatch allocates ~nothing.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable, Optional, Sequence

_list_new = list.__new__

# Slot layout of an Event (kept in sync with the literal indexes used on the
# hot paths below and in ``Simulator.advance``).
_TIME, _PRIORITY, _SEQ, _FN, _ARGS, _NAME, _RECYCLE = range(7)


class Event(list):
    """A single scheduled event.

    A fixed-layout ``list`` — ``[time, priority, seq, fn, args, name,
    recyclable]`` — rather than a dataclass: events are the hottest
    allocation in the simulator (one per arrival, batch, control tick, ...)
    and list construction, comparison, and slot access are all C-speed.
    ``__slots__ = ()`` keeps instances ``__dict__``-free.

    Attributes (properties over the slots)
    --------------------------------------
    time:
        Simulation time (seconds) at which the event fires.
    priority:
        Tie-break priority for events at the same time; lower fires first.
    seq:
        Monotonic sequence number assigned by the queue; guarantees a total
        deterministic order (comparisons never reach the callback slot).
    callback:
        Callable invoked as ``callback(*args)`` when the event fires;
        ``None`` marks a cancelled (tombstoned) event.
    args:
        Positional arguments the callback fires with (shared-callback bulk
        events put their per-event payload here instead of in a closure).
    name:
        Human-readable label used in debugging, tracing, and the profiler.
    cancelled:
        Cancelled events stay in the heap until compaction (or their pop)
        removes them; they are never fired.
    """

    __slots__ = ()

    def __init__(
        self,
        time: float = 0.0,
        priority: int = 0,
        seq: int = 0,
        callback: Optional[Callable[..., Any]] = None,
        args: tuple = (),
        name: str = "",
        recyclable: bool = False,
        cancelled: bool = False,
    ) -> None:
        super().__init__(
            (time, priority, seq, None if cancelled else callback, args, name, recyclable)
        )

    # NOTE: unpickling a list subclass (protocol >= 2) bypasses __init__ and
    # re-appends the seven slots directly, so pickled events round-trip.

    @property
    def time(self) -> float:
        return self[0]

    @property
    def priority(self) -> int:
        return self[1]

    @property
    def seq(self) -> int:
        return self[2]

    @property
    def callback(self) -> Optional[Callable[..., Any]]:
        return self[3]

    @property
    def args(self) -> tuple:
        return self[4]

    @property
    def name(self) -> str:
        return self[5]

    @property
    def cancelled(self) -> bool:
        return self[3] is None

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be ignored when popped."""
        self[3] = None
        self[4] = ()

    def fire(self) -> Any:
        """Invoke the event callback (no-op for cancelled events)."""
        fn = self[3]
        if fn is None:
            return None
        return fn(*self[4])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self[5]!r}" if self[5] else ""
        state = " cancelled" if self[3] is None else ""
        return f"<Event t={self[0]!r} p={self[1]} seq={self[2]}{label}{state}>"


#: Compaction only kicks in above this heap size: tiny heaps are cheap to
#: scan, and compacting them would just add churn.
_COMPACT_MIN_SIZE = 64

#: Upper bound on recycled Event wrappers retained for re-use.  One chunk of
#: bulk arrivals plus headroom; beyond this, wrappers are simply dropped.
_FREE_LIST_MAX = 8192


class EventQueue:
    """A priority queue of :class:`Event` objects.

    The queue is a thin wrapper around :mod:`heapq` that assigns sequence
    numbers on push so that ordering is fully deterministic.

    Cancelled events are removed lazily: they stay in the heap (tombstoned —
    their callback slot is ``None``) until either a pop reaches them or the
    cancelled entries outnumber the live ones, at which point the heap is
    compacted in one O(n) pass.  This keeps ``cancel`` O(1) amortised while
    bounding the heap at twice the live-event count, so a cancel-heavy actor
    (speculative scheduling, per-query timeout events, ...) cannot degrade
    push/pop to O(log(dead + live)).

    :meth:`push_bulk` schedules many events sharing one callback in a single
    call; bulk events never escape as handles, so their wrappers are flagged
    recyclable and parked on a bounded free list after they fire — the driver
    returns them via :meth:`recycle`, and subsequent pushes re-use them.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._next_seq = 0
        self._live = 0
        #: Tombstoned entries still sitting in the heap.  Kept explicitly (an
        #: invariant ``len(heap) == _live + _dead``) so compaction checks are
        #: one integer compare and :meth:`clear` can demonstrably reset it.
        self._dead = 0
        self._free: list[Event] = []

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        *,
        priority: int = 0,
        name: str = "",
        args: tuple = (),
    ) -> Event:
        """Schedule ``callback(*args)`` to run at simulation time ``time``."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        seq = self._next_seq
        self._next_seq = seq + 1
        free = self._free
        if free:
            event = free.pop()
            event[0] = time
            event[1] = priority
            event[2] = seq
            event[3] = callback
            event[4] = args
            event[5] = name
            event[6] = False
        else:
            # list.__new__ + extend skips the Python-level __init__ frame —
            # measurably faster on the one-allocation-per-event hot path.
            event = _list_new(Event)
            event += (time, priority, seq, callback, args, name, False)
        heappush(self._heap, event)
        self._live += 1
        return event

    def push_bulk(
        self,
        times: Sequence[float],
        callback: Callable[..., Any],
        args_seq: Iterable[tuple],
        *,
        priority: int = 0,
        name: str = "",
    ) -> None:
        """Schedule one event per ``(time, args)`` pair, sharing ``callback``.

        Sequence numbers follow iteration order, so ties at equal
        ``(time, priority)`` fire in the order given — exactly as if each
        event had been pushed individually.  No handles are returned, which
        is what lets the wrappers be recycled after they fire.

        Small batches fall back to individual sift-up pushes; large ones
        extend the heap and re-heapify in one O(live + n) pass, amortising
        to O(1) comparisons per event for chunked arrival feeding.
        """
        heap = self._heap
        free = self._free
        seq = self._next_seq
        entries: list[Event] = []
        append = entries.append
        for time, args in zip(times, args_seq):
            if time < 0:
                raise ValueError(f"event time must be non-negative, got {time}")
            if free:
                event = free.pop()
                event[0] = time
                event[1] = priority
                event[2] = seq
                event[3] = callback
                event[4] = args
                event[5] = name
                event[6] = True
            else:
                event = _list_new(Event)
                event += (time, priority, seq, callback, args, name, True)
            append(event)
            seq += 1
        self._next_seq = seq
        self._live += len(entries)
        if not entries:
            return
        if len(entries) * 8 < len(heap):
            for event in entries:
                heappush(heap, event)
        else:
            heap.extend(entries)
            # Events carry a total deterministic order (time, priority, seq),
            # so re-heapifying preserves pop order exactly.
            heapify(heap)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (lazy removal, see class docs)."""
        if event[3] is not None:
            event[3] = None
            event[4] = ()
            self._live -= 1
            self._dead += 1
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild the heap without cancelled entries once they dominate it.

        In place (slice assignment, not rebinding): the driver's advance loop
        holds a direct reference to the heap list, which must stay valid
        across a compaction triggered by a callback's ``cancel``.
        """
        if self._dead > self._live and len(self._heap) >= _COMPACT_MIN_SIZE:
            self._heap[:] = [event for event in self._heap if event[3] is not None]
            heapify(self._heap)
            self._dead = 0

    def recycle(self, event: Event) -> None:
        """Return a fired *recyclable* event's wrapper to the free list.

        Only the driver calls this, and only for events flagged recyclable
        (bulk-scheduled, handle never escaped).  References are dropped so a
        parked wrapper pins neither its callback nor its payload.
        """
        if len(self._free) < _FREE_LIST_MAX:
            event[3] = None
            event[4] = ()
            self._free.append(event)

    def _discard(self, event: Event) -> None:
        """Drop one tombstone popped off the heap, recycling its wrapper."""
        self._dead -= 1
        if event[6]:
            self.recycle(event)

    # ------------------------------------------------------------- migration
    def __getstate__(self) -> dict:
        """Pickle support for shard migration.

        The live/dead counters that drive lazy compaction are process-local
        bookkeeping: they only mean anything next to *this* heap list.  A
        pickled queue therefore ships compacted — cancelled entries are
        dropped eagerly so the restored queue starts from the ``dead == 0``
        invariant — and the counter is re-derived on restore rather than
        trusted, so a migrated queue can never under-count its dead entries
        and skip compaction.  The free list is process-local too and is not
        exported.  Raises if the counter has already drifted from the heap
        (a corrupted queue must fail the migration, not export the
        corruption).
        """
        live = sorted(event for event in self._heap if event[3] is not None)
        if self._live != len(live):
            raise RuntimeError(
                f"EventQueue live-counter drift: counter says {self._live}, "
                f"heap holds {len(live)} live events"
            )
        next_seq = max((event[2] for event in live), default=-1) + 1
        return {"heap": live, "next_seq": next_seq}

    def __setstate__(self, state: dict) -> None:
        heap = list(state["heap"])
        # A sorted list is a valid heap, but heapify anyway so the invariant
        # never depends on the serialised ordering.
        heapify(heap)
        self._heap = heap
        self._live = len(heap)
        self._dead = 0
        self._next_seq = state["next_seq"]
        self._free = []

    def pop(self) -> Event:
        """Pop the earliest non-cancelled event.

        Raises
        ------
        IndexError
            If the queue contains no live events.
        """
        heap = self._heap
        while heap:
            event = heappop(heap)
            if event[3] is None:
                self._discard(event)
                continue
            self._live -= 1
            return event
        raise IndexError("pop from empty EventQueue")

    def clear(self) -> None:
        """Remove all events and reset compaction/recycling state.

        The tombstone counter and the free list are process-local state tied
        to the heap contents; both reset with it, so a cleared queue never
        inherits a stale compaction threshold (or parked wrappers) from the
        events it just dropped.
        """
        self._heap.clear()
        self._live = 0
        self._dead = 0
        self._free.clear()
