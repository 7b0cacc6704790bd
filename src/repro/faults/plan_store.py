"""Last-known-good plan store: graceful degradation when re-solves fail.

The controller records every *feasible* plan it applies; when a repair
re-solve comes back infeasible (fleet shrank past what the solver can fit,
or a :class:`~repro.faults.plan.SolverTimeout` fault forced the solve to
time out), :meth:`PlanStore.recall` clamps the most recent good plan to the
surviving fleet — dropping vanished device classes, capping per-class counts
— instead of letting the control plane crash or fall back to an all-light
panic plan.  Recalled plans are marked ``feasible=False`` so they are never
re-recorded as "good".
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.core.allocator import AllocationPlan
from repro.core.config import FleetSpec

__all__ = ["PlanStore"]


class PlanStore:
    """Bounded history of applied-and-feasible plans with fleet-clamped recall."""

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError(f"PlanStore capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._plans: List[Tuple[str, AllocationPlan]] = []
        self.recalls = 0

    def __len__(self) -> int:
        return len(self._plans)

    # --------------------------------------------------------------- record
    def record(self, plan: AllocationPlan, fleet: FleetSpec) -> None:
        """Remember a feasible plan together with the fleet it was solved for."""
        if not plan.feasible:
            return
        self._plans.append((fleet.token(), dataclasses.replace(plan)))
        if len(self._plans) > self.capacity:
            del self._plans[0]

    @property
    def last_known_good(self) -> Optional[AllocationPlan]:
        return self._plans[-1][1] if self._plans else None

    # --------------------------------------------------------------- recall
    def recall(self, fleet: FleetSpec) -> Optional[AllocationPlan]:
        """The newest recorded plan, clamped to ``fleet``.

        The plan's per-class maps drop classes absent from ``fleet`` and cap
        the rest at the surviving per-class counts, the light pool first
        (it is what keeps queries from dropping), the heavy pool on what is
        left.  Returns ``None`` when nothing was ever recorded or nothing
        survives the clamp.
        """
        if not self._plans:
            return None
        _, plan = self._plans[-1]
        counts = {device.name: count for device, count in fleet.devices}
        light = _clamp_assignment(plan.light_assignment, counts)
        remaining = {name: counts[name] - light.get(name, 0) for name in counts}
        heavy = _clamp_assignment(plan.heavy_assignment, remaining)
        if not light and not heavy:
            return None
        self.recalls += 1
        return dataclasses.replace(
            plan, light_assignment=light, heavy_assignment=heavy, feasible=False
        )


def _clamp_assignment(
    assignment: Dict[str, int], available: Dict[str, int]
) -> Dict[str, int]:
    clamped = {}
    for name, count in assignment.items():
        kept = min(count, available.get(name, 0))
        if kept > 0:
            clamped[name] = kept
    return clamped
