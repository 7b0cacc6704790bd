"""Tests for the event queue."""

import pytest

from repro.simulator.events import Event, EventQueue


def test_push_and_pop_in_time_order():
    q = EventQueue()
    fired = []
    q.push(2.0, lambda: fired.append("b"))
    q.push(1.0, lambda: fired.append("a"))
    q.push(3.0, lambda: fired.append("c"))
    while q:
        q.pop().fire()
    assert fired == ["a", "b", "c"]


def test_ties_broken_by_priority_then_insertion_order():
    q = EventQueue()
    fired = []
    q.push(1.0, lambda: fired.append("second"), priority=1)
    q.push(1.0, lambda: fired.append("first"), priority=0)
    q.push(1.0, lambda: fired.append("third"), priority=1)
    while q:
        q.pop().fire()
    assert fired == ["first", "second", "third"]


def test_len_counts_live_events():
    q = EventQueue()
    e1 = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert len(q) == 2
    q.cancel(e1)
    assert len(q) == 1


def test_cancelled_events_are_skipped():
    q = EventQueue()
    fired = []
    e = q.push(1.0, lambda: fired.append("cancelled"))
    q.push(2.0, lambda: fired.append("kept"))
    q.cancel(e)
    while q:
        q.pop().fire()
    assert fired == ["kept"]


def test_cancel_is_idempotent():
    q = EventQueue()
    e = q.push(1.0, lambda: None)
    q.cancel(e)
    q.cancel(e)
    assert len(q) == 0


def test_pop_empty_raises():
    q = EventQueue()
    with pytest.raises(IndexError):
        q.pop()


def test_negative_time_rejected():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.push(-1.0, lambda: None)


def test_clear_removes_everything():
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    q.clear()
    assert len(q) == 0
    with pytest.raises(IndexError):
        q.pop()


def test_event_fire_returns_callback_value():
    event = Event(time=1.0, seq=0, callback=lambda: 42)
    assert event.fire() == 42


def test_cancelled_event_fire_is_noop():
    event = Event(time=1.0, seq=0, callback=lambda: 42)
    event.cancel()
    assert event.fire() is None


def test_events_and_queue_are_slotted():
    # Events are the hottest allocation in the simulator; the slot layout is
    # load-bearing for long bursty traces.
    event = Event(time=1.0, seq=0)
    assert not hasattr(event, "__dict__")
    with pytest.raises(AttributeError):
        event.unexpected_attribute = 1


def test_cancel_heavy_heap_is_compacted():
    q = EventQueue()
    events = [q.push(float(i), lambda: None) for i in range(1000)]
    for event in events[:900]:
        q.cancel(event)
    # Cancelled entries outnumber live ones, so the heap must have been
    # rebuilt with only (close to) the live events.
    assert len(q) == 100
    assert len(q._heap) <= 2 * len(q)


def test_compaction_preserves_pop_order_and_counts():
    q = EventQueue()
    keep, cancelled = [], []
    for i in range(500):
        event = q.push(float(i % 97), lambda i=i: i, priority=i % 3)
        (keep if i % 5 == 0 else cancelled).append(event)
    for event in cancelled:
        q.cancel(event)
    fired = []
    while q:
        event = q.pop()
        fired.append((event.time, event.priority, event.seq))
    assert len(fired) == len(keep)
    assert fired == sorted(fired)


def test_small_heaps_are_not_compacted():
    q = EventQueue()
    events = [q.push(float(i), lambda: None) for i in range(10)]
    for event in events[:9]:
        q.cancel(event)
    # Below the compaction threshold the dead entries stay until popped.
    assert len(q._heap) == 10
    assert len(q) == 1
    assert q.pop().time == 9.0


def test_compaction_keeps_cancel_idempotent():
    q = EventQueue()
    events = [q.push(float(i), lambda: None) for i in range(200)]
    for event in events[:150]:
        q.cancel(event)
    for event in events[:150]:
        q.cancel(event)  # second cancel of compacted-away events is a no-op
    assert len(q) == 50
    times = [q.pop().time for _ in range(len(q))]
    assert times == [float(i) for i in range(150, 200)]


# ---------------------------------------------------------------------------
# Pickle / shard-migration support (PR 6).  The compaction counter is
# process-local bookkeeping: a pickled queue must ship compacted with the
# counter re-derived on restore, and a drifted counter must fail the export.
# ---------------------------------------------------------------------------
import pickle


def _noop():  # module-level so the callbacks pickle
    return None


def _marker():
    return "fired"


def test_pickle_roundtrip_drops_cancelled_and_rederives_counter():
    q = EventQueue()
    kept = [q.push(float(t), _marker, name=f"k{t}") for t in (3, 1, 2)]
    doomed = [q.push(0.5, _noop), q.push(1.5, _noop)]
    for event in doomed:
        q.cancel(event)

    restored = pickle.loads(pickle.dumps(q))
    assert len(restored) == len(q) == 3
    # Only live entries crossed the boundary.
    assert all(not event.cancelled for event in restored._heap)
    assert len(restored._heap) == 3
    # Pop order (time, priority, seq) is preserved exactly.
    assert [event.time for event in (restored.pop(), restored.pop(), restored.pop())] == [
        1.0,
        2.0,
        3.0,
    ]
    # The counter resumes past the highest surviving seq: new pushes keep the
    # total order monotonic.
    top = pickle.loads(pickle.dumps(q))
    fresh = top.push(9.0, _noop)
    assert fresh.seq > max(event.seq for event in kept)


def test_restored_queue_still_compacts():
    q = EventQueue()
    events = [q.push(float(t), _noop) for t in range(200)]
    restored = pickle.loads(pickle.dumps(q))
    restored_events = sorted(restored._heap)
    for event in restored_events[:150]:
        restored.cancel(event)
    # The restored queue must keep compacting: without it the heap would hold
    # all 200 entries; with it the dead never outnumber the live.
    assert len(restored) == 50
    assert len(restored._heap) < 200
    assert len(restored._heap) - len(restored) <= len(restored)
    assert len(events) == 200  # originals untouched


def test_pickling_a_drifted_queue_raises():
    q = EventQueue()
    q.push(1.0, _noop)
    q.push(2.0, _noop)
    q._live = 7  # simulate corruption
    with pytest.raises(RuntimeError, match="live-counter drift"):
        pickle.dumps(q)


def test_clear_resets_tombstone_and_free_list_state():
    """``clear()`` must reset every piece of compaction/recycling state.

    Regression edge: a queue cleared while holding tombstones (dead counter
    > 0) or parked free-list wrappers used to be able to carry that state
    into its next life — which the pickling drift check would then flag as
    corruption.  After ``clear()`` the queue must be indistinguishable from
    a fresh one.
    """
    q = EventQueue()
    events = [q.push(float(t), _noop) for t in range(10)]
    for event in events[:5]:
        q.cancel(event)
    assert q._dead == 5  # below the compaction floor, so tombstones remain
    q.recycle(events[6])  # park a wrapper on the free list as well
    assert q._free

    q.clear()
    assert len(q) == 0
    assert q._heap == []
    assert q._dead == 0
    assert q._free == []

    # A cleared queue behaves exactly like a fresh one: the live counter is
    # consistent (no drift on export) and recycled state never leaks back.
    q.push(1.0, _noop)
    restored = pickle.loads(pickle.dumps(q))
    assert len(restored) == 1
    assert restored.pop().time == 1.0
