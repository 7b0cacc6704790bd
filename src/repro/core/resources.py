"""Per-worker resource model: transfer bandwidth and memory residency.

This module implements the runtime half of the multi-resource worker model
(ROADMAP item 5, mirroring the Online-Flexible-Resource-Allocation server
exemplar in SNIPPETS.md): each device owns

* a :class:`BandwidthChannel` — the host-to-device transfer link
  (``DeviceClass.transfer_gbps``, GB/s) that model reloads and result egress
  share via processor sharing: ``n`` concurrent transfers each progress at
  ``capacity / n``, so a reload landing while results stream out slows both
  — ``set_variant`` cost becomes state-dependent instead of a constant;
* a :class:`ResidencySet` — which variants' weights currently occupy device
  memory, with LRU eviction of unpinned, inactive variants.  A variant that
  is already resident reloads for free (the co-placement win the allocator
  pins), and admitting one reserves its memory for the whole transfer.

Both are event-driven on the owning :class:`~repro.simulator.simulation.
Simulator`: the channel keeps exactly one pending release event (the next
transfer completion under the current sharing) and reschedules it whenever
the active set changes, so progress is settled lazily and deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set

from repro.simulator.events import Event
from repro.simulator.simulation import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import ResourceConfig

#: Residual-bytes tolerance below which a transfer counts as finished
#: (guards float drift in the processor-sharing arithmetic).
_GB_TOL = 1e-9


class Transfer:
    """One in-flight transfer on a :class:`BandwidthChannel`."""

    __slots__ = ("size_gb", "remaining_gb", "callback", "name", "done", "cancelled")

    def __init__(self, size_gb: float, callback: Optional[Callable[[], None]], name: str) -> None:
        self.size_gb = size_gb
        self.remaining_gb = size_gb
        self.callback = callback
        self.name = name
        self.done = False
        self.cancelled = False


class BandwidthChannel:
    """A processor-shared transfer link owned by one device.

    Active transfers progress simultaneously at ``capacity_gbps / n``; the
    channel settles elapsed progress and reschedules its single release
    event on every state change (submit / cancel / completion), which is
    the "timed resource-release" pattern of the stage-machine worker.
    """

    def __init__(self, sim: Simulator, capacity_gbps: float, name: str = "channel") -> None:
        if capacity_gbps <= 0:
            raise ValueError("channel capacity_gbps must be positive")
        self.sim = sim
        self.capacity_gbps = capacity_gbps
        self.name = name
        self.active: List[Transfer] = []
        self._release_event: Optional[Event] = None
        self._last_settle = sim.now
        #: Cumulative GB moved by completed transfers (reload-idempotence
        #: tests assert this does not grow on resident re-assignments).
        self.transferred_gb = 0.0
        self.completed_transfers = 0

    # ------------------------------------------------------------- invariants
    @property
    def active_count(self) -> int:
        """Number of concurrently progressing transfers."""
        return len(self.active)

    def share_gbps(self) -> float:
        """Bandwidth each active transfer currently receives (0 when idle)."""
        if not self.active:
            return 0.0
        return self.capacity_gbps / len(self.active)

    def total_rate_gbps(self) -> float:
        """Aggregate rate across active transfers (== capacity when busy).

        By construction equal shares sum to exactly the capacity; exposed so
        property tests can assert the conservation invariant at every event.
        """
        return self.share_gbps() * len(self.active)

    # ------------------------------------------------------------------- API
    def submit(
        self, size_gb: float, callback: Optional[Callable[[], None]] = None, name: str = ""
    ) -> Transfer:
        """Start a transfer of ``size_gb``; ``callback`` fires on completion.

        Zero-byte transfers complete synchronously (no event, no bandwidth).
        """
        if size_gb < 0:
            raise ValueError("transfer size_gb must be non-negative")
        transfer = Transfer(size_gb, callback, name or f"{self.name}-transfer")
        if size_gb <= _GB_TOL:
            transfer.remaining_gb = 0.0
            transfer.done = True
            self.completed_transfers += 1
            if callback is not None:
                callback()
            return transfer
        self._settle()
        self.active.append(transfer)
        self._reschedule_release()
        return transfer

    def cancel(self, transfer: Transfer) -> None:
        """Abort an in-flight transfer (its callback never fires)."""
        if transfer.done or transfer.cancelled:
            return
        transfer.cancelled = True
        if transfer in self.active:
            self._settle()
            self.active.remove(transfer)
            self._reschedule_release()

    def set_capacity(self, capacity_gbps: float) -> None:
        """Change the link rate mid-run (fault injection: degradation windows).

        Progress accrued at the old rate is settled first, then the single
        release event is rescheduled at the new rate, so in-flight transfers
        simply slow down/speed up from this instant — none are lost.
        """
        if capacity_gbps <= 0:
            raise ValueError("channel capacity_gbps must be positive")
        if capacity_gbps == self.capacity_gbps:
            return
        self._settle()
        self.capacity_gbps = float(capacity_gbps)
        self._reschedule_release()

    # -------------------------------------------------------------- internals
    def _settle(self) -> None:
        """Account progress accrued since the last state change."""
        now = self.sim.now
        elapsed = now - self._last_settle
        if elapsed > 0 and self.active:
            rate = self.capacity_gbps / len(self.active)
            for transfer in self.active:
                transfer.remaining_gb = max(transfer.remaining_gb - rate * elapsed, 0.0)
        self._last_settle = now

    def _reschedule_release(self) -> None:
        if self._release_event is not None:
            self.sim.cancel(self._release_event)
            self._release_event = None
        if not self.active:
            return
        rate = self.capacity_gbps / len(self.active)
        next_remaining = min(t.remaining_gb for t in self.active)
        delay = max(next_remaining / rate, 0.0)
        self._release_event = self.sim.schedule(
            delay, self._on_release, name=f"{self.name}-release"
        )

    def _on_release(self) -> None:
        self._release_event = None
        self._settle()
        finished = [t for t in self.active if t.remaining_gb <= _GB_TOL]
        if not finished:  # pragma: no cover - guards against float drift
            self._reschedule_release()
            return
        self.active = [t for t in self.active if t.remaining_gb > _GB_TOL]
        self._reschedule_release()
        # Callbacks run after the channel state is consistent; they may
        # submit follow-up transfers (e.g. the worker's next stage).
        for transfer in finished:
            transfer.done = True
            self.transferred_gb += transfer.size_gb
            self.completed_transfers += 1
            if transfer.callback is not None:
                transfer.callback()


class ResidencySet:
    """Which variants' weights occupy one device's memory.

    Insertion order doubles as LRU order (``touch`` moves a variant to the
    back).  Admission evicts least-recently-used variants that are neither
    pinned (plan residency) nor active; if even that cannot make room — a
    single oversized variant, or pinned residency colliding with fleet
    drift — the set *overcommits* rather than crash mid-simulation, and
    counts it, so property tests can assert ``occupied_gb <= capacity_gb``
    whenever ``overcommits == 0``.
    """

    def __init__(self, capacity_gb: float) -> None:
        if capacity_gb <= 0:
            raise ValueError("residency capacity_gb must be positive")
        self.capacity_gb = capacity_gb
        self._resident: Dict[str, float] = {}
        self.pinned: Set[str] = set()
        self.evictions = 0
        self.overcommits = 0

    # ------------------------------------------------------------- inspection
    @property
    def occupied_gb(self) -> float:
        """Total weights resident (or being transferred in) right now."""
        return sum(self._resident.values())

    def contains(self, name: str) -> bool:
        """Whether ``name`` holds memory (resident or mid-transfer)."""
        return name in self._resident

    def resident_names(self) -> List[str]:
        """Resident variants in LRU → MRU order."""
        return list(self._resident)

    # -------------------------------------------------------------- mutation
    def touch(self, name: str) -> None:
        """Mark ``name`` most-recently-used (no-op when absent)."""
        if name in self._resident:
            self._resident[name] = self._resident.pop(name)

    def admit(self, name: str, weights_gb: float, *, active: Sequence[str] = ()) -> List[str]:
        """Reserve memory for ``name``, evicting LRU variants as needed.

        ``active`` names variants that must survive (the one currently
        executing and any reload target).  Returns the evicted names in
        eviction order.
        """
        if weights_gb <= 0:
            raise ValueError("admit weights_gb must be positive")
        if name in self._resident:
            self.touch(name)
            return []
        protected = set(active) | {name}
        evicted: List[str] = []
        # Two passes: evict unpinned LRU victims first, then pinned ones —
        # overcommit is the final fallback, never an exception mid-run.
        for allow_pinned in (False, True):
            for victim in list(self._resident):
                if self.occupied_gb + weights_gb <= self.capacity_gb + _GB_TOL:
                    break
                if victim in protected:
                    continue
                if not allow_pinned and victim in self.pinned:
                    continue
                del self._resident[victim]
                self.evictions += 1
                evicted.append(victim)
        if self.occupied_gb + weights_gb > self.capacity_gb + _GB_TOL:
            self.overcommits += 1
        self._resident[name] = weights_gb
        return evicted

    def remove(self, name: str) -> None:
        """Drop ``name`` from residency (no-op when absent)."""
        self._resident.pop(name, None)

    def pin(self, names: Sequence[str]) -> None:
        """Replace the pinned set (plan residency)."""
        self.pinned = set(names)


@dataclass
class WorkerResources:
    """One worker's bundle of resource state (channel + residency + config)."""

    config: "ResourceConfig"
    channel: BandwidthChannel
    residency: ResidencySet
    #: Weight transfers currently in flight, keyed by variant name.
    loading: Dict[str, Transfer] = field(default_factory=dict)

    def ready(self, name: str) -> bool:
        """Whether ``name`` is fully resident (not still transferring)."""
        return self.residency.contains(name) and name not in self.loading
