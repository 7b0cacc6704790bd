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

from repro.core.allocator import AllocationPlan, ControlContext
from repro.core.config import FleetSpec, ResourceConfig, RoutingMode, SystemConfig
from repro.core.policies import AllocationPolicy
from repro.core.system import ServingSimulation
from repro.models.dataset import QueryDataset, load_dataset
from repro.models.variants import ModelVariant
from repro.models.zoo import get_cascade


def _largest_safe_batch(
    variant: ModelVariant, slo: float, batch_candidates: Sequence[int], headroom: float = 3.0
) -> int:
    """Largest batch whose execution (plus 2x queueing estimate) fits the SLO."""
    feasible = [b for b in batch_candidates if headroom * variant.latency.latency(b) <= slo]
    if feasible:
        return max(feasible)
    # Even batch 1 is tight; serve with batch 1 and accept violations.
    return min(batch_candidates)


class ClipperPolicy(AllocationPolicy):
    """Static single-variant allocation: every worker hosts ``variant``."""

    dynamic = False

    def __init__(
        self,
        variant: ModelVariant,
        *,
        batch_candidates: Sequence[int] = (1, 2, 4, 8, 16),
        headroom: float = 3.0,
    ) -> None:
        self.variant = variant
        self.batch_candidates = tuple(batch_candidates)
        self.headroom = headroom

    def plan(
        self, ctx: ControlContext, *, warm_start: Optional[AllocationPlan] = None
    ) -> AllocationPlan:
        # The allocation is static; a warm start carries no information.
        batch = _largest_safe_batch(self.variant, ctx.slo, self.batch_candidates, self.headroom)
        return AllocationPlan(
            num_light=ctx.fleet.total_workers,
            num_heavy=0,
            light_batch=batch,
            heavy_batch=1,
            threshold=0.0,
            heavy_fraction=0.0,
            feasible=True,
            light_variant_name=self.variant.name,
        )


def build_clipper_system(
    cascade_name: str = "sdturbo",
    which: str = "light",
    *,
    fleet: FleetSpec = FleetSpec.homogeneous(16),
    slo: Optional[float] = None,
    dataset: Optional[QueryDataset] = None,
    resources: Optional[ResourceConfig] = None,
    faults=None,
    prices=None,
    seed: int = 0,
    dataset_size: int = 1000,
) -> ServingSimulation:
    """Build Clipper-Light (``which="light"``) or Clipper-Heavy (``which="heavy"``)."""
    if which not in ("light", "heavy"):
        raise ValueError("which must be 'light' or 'heavy'")
    cascade = get_cascade(cascade_name)
    if dataset is None:
        dataset = load_dataset(cascade.dataset, n=dataset_size, seed=seed)
    variant = cascade.light if which == "light" else cascade.heavy
    config = SystemConfig(
        cascade=cascade,
        fleet=fleet,
        slo=slo,
        routing=RoutingMode.SINGLE,
        resources=resources,
        seed=seed,
    )
    return ServingSimulation(
        config=config,
        dataset=dataset,
        policy=ClipperPolicy(variant),
        discriminator=None,
        name=f"clipper-{which}",
        faults=faults,
        prices=prices,
    )
