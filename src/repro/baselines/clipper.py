"""Clipper-Light and Clipper-Heavy baselines.

Clipper (Crankshaw et al., 2017) is a static, query-agnostic serving system:
the operator picks one model variant and all queries are served by it.  The
paper uses two instantiations: Clipper-Light (all queries to the lightweight
diffusion model) and Clipper-Heavy (all queries to the heavyweight model).
Batch sizes follow Clipper's AIMD heuristic; we initialise them at the
largest batch whose execution plus the 2x-execution queueing estimate fits
the SLO, which is what AIMD converges to under steady load.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines.proteus import largest_fitting_batch
from repro.core.allocator import AllocationPlan, ControlContext, fleet_order_split
from repro.core.policies import AllocationPolicy
from repro.models.variants import ModelVariant


class ClipperPolicy(AllocationPolicy):
    """Static single-variant allocation: every worker hosts ``variant``."""

    dynamic = False

    def __init__(
        self,
        variant: ModelVariant,
        *,
        batch_candidates: Sequence[int] = (1, 2, 4, 8, 16),
    ) -> None:
        self.variant = variant
        self.batch_candidates = tuple(batch_candidates)

    def plan(
        self, ctx: ControlContext, *, warm_start: Optional[AllocationPlan] = None
    ) -> AllocationPlan:
        # The allocation is static; a warm start carries no information.
        batch = largest_fitting_batch(self.variant, ctx.slo, self.batch_candidates)
        if batch is None:
            batch = min(self.batch_candidates)  # even the smallest is tight: accept violations
        light, heavy = fleet_order_split(ctx.fleet, ctx.fleet.total_workers, 0)
        return AllocationPlan(
            light_assignment=light,
            heavy_assignment=heavy,
            light_batch=batch,
            heavy_batch=1,
            threshold=0.0,
            heavy_fraction=0.0,
            feasible=True,
            light_variant=self.variant,
        )
