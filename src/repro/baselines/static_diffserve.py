"""DiffServe-Static baseline.

DiffServe-Static uses the same cascade and discriminator as DiffServe but is
*statically provisioned for peak demand*: the MILP is solved once against the
anticipated peak, and neither the worker split, batch sizes nor the confidence
threshold adapt afterwards.  The paper frames this as the common production
practice of provisioning for maximum anticipated demand.
"""

from __future__ import annotations

from typing import Optional

from repro.core.allocator import AllocationPlan, ControlContext, DiffServeAllocator
from repro.core.policies import AllocationPolicy


class PeakProvisionedPolicy(AllocationPolicy):
    """Solves the DiffServe MILP once against the anticipated peak demand."""

    dynamic = False

    def __init__(self, allocator: DiffServeAllocator, anticipated_peak_qps: float) -> None:
        if anticipated_peak_qps <= 0:
            raise ValueError("anticipated_peak_qps must be positive")
        self.allocator = allocator
        self.anticipated_peak_qps = anticipated_peak_qps
        self._plan: Optional[AllocationPlan] = None

    def plan(
        self, ctx: ControlContext, *, warm_start: Optional[AllocationPlan] = None
    ) -> AllocationPlan:
        # Peak provisioning happens exactly once; warm starts are moot.
        if self._plan is None:
            peak_ctx = ControlContext(
                demand=self.anticipated_peak_qps,
                slo=ctx.slo,
                fleet=ctx.fleet,
                light_queue_length=0.0,
                heavy_queue_length=0.0,
                observed_deferral=None,
            )
            self._plan = self.allocator.plan(peak_ctx)
        return self._plan
