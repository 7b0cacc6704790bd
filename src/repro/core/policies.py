"""Allocation policies.

A policy maps a :class:`~repro.core.allocator.ControlContext` to an
:class:`~repro.core.allocator.AllocationPlan`.  The DiffServe policy wraps the
MILP allocator; the ablation variants of Section 4.5 (static threshold, AIMD
batching, no queueing model) are thin modifications of it.  Baseline-system
policies (Clipper, Proteus, DiffServe-Static) live in :mod:`repro.baselines`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.allocator import AllocationPlan, ControlContext, DiffServeAllocator
from repro.core.queueing import TwoXExecutionModel
from repro.discriminators.deferral import DeferralProfile
from repro.models.variants import ModelVariant

#: AIMD's additive step: the batch grows by this after a period without violations.
AIMD_INCREASE = 1
#: AIMD's multiplicative step: the batch is scaled by this after a violation.
AIMD_DECREASE_FACTOR = 0.5


class AllocationPolicy(abc.ABC):
    """Interface between the Controller and an allocation algorithm."""

    #: Whether the control loop should re-plan every epoch (dynamic) or only
    #: apply the initial plan (static baselines).
    dynamic: bool = True

    @abc.abstractmethod
    def plan(
        self, ctx: ControlContext, *, warm_start: Optional[AllocationPlan] = None
    ) -> AllocationPlan:
        """Produce an allocation plan for the given runtime statistics.

        ``warm_start`` optionally carries the plan applied in the previous
        control epoch; MILP-backed policies seed their solver's incumbent
        from it (see :meth:`DiffServeAllocator.plan`), other policies are
        free to ignore it.
        """


class DiffServePolicy(AllocationPolicy):
    """The full DiffServe policy: MILP-optimised threshold, placement and batching."""

    dynamic = True

    def __init__(self, allocator: DiffServeAllocator) -> None:
        self.allocator = allocator

    def plan(
        self, ctx: ControlContext, *, warm_start: Optional[AllocationPlan] = None
    ) -> AllocationPlan:
        return self.allocator.plan(ctx, warm_start=warm_start)


class StaticThresholdPolicy(AllocationPolicy):
    """Ablation: the MILP tunes placement and batching but the threshold is fixed.

    This is *not* DiffServe-Static (which freezes everything at a
    peak-provisioned plan); only the threshold is pinned here.
    """

    dynamic = True

    def __init__(self, allocator: DiffServeAllocator, threshold: float) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        self.allocator = allocator
        self.threshold = threshold
        # Restrict the threshold grid to the single pinned value.
        self.allocator.threshold_grid = [
            (threshold, self.allocator.deferral_profile.fraction(threshold))
        ]

    def plan(
        self, ctx: ControlContext, *, warm_start: Optional[AllocationPlan] = None
    ) -> AllocationPlan:
        plan = self.allocator.plan(ctx, warm_start=warm_start)
        if plan.feasible:
            plan.threshold = self.threshold
            plan.heavy_fraction = self.allocator.deferral_profile.fraction(self.threshold)
        return plan


@dataclass
class AIMDBatchState:
    """Additive-increase/multiplicative-decrease batch controller (Clipper heuristic)."""

    batch: int = 1
    max_batch: int = 16

    def update(self, had_violation: bool) -> int:
        """Advance the AIMD state after one control epoch."""
        if had_violation:
            self.batch = max(1, int(self.batch * AIMD_DECREASE_FACTOR))
        else:
            self.batch = min(self.max_batch, self.batch + AIMD_INCREASE)
        return self.batch


class AIMDBatchingPolicy(AllocationPolicy):
    """Ablation: batch sizes follow AIMD instead of being chosen by the MILP.

    AIMD is purely reactive — it does not model queueing delays proactively,
    it only shrinks batches after SLO violations have already happened — so
    the allocator's queueing model is disabled for this variant (the paper
    attributes AIMD's elevated violation ratio to exactly this reactivity).
    """

    dynamic = True

    def __init__(self, allocator: DiffServeAllocator, max_batch: int = 16) -> None:
        self.allocator = allocator
        self.allocator.queueing_model = TwoXExecutionModel(multiplier=0.0)
        self.light_state = AIMDBatchState(max_batch=max_batch)
        self.heavy_state = AIMDBatchState(max_batch=max_batch)

    def plan(
        self, ctx: ControlContext, *, warm_start: Optional[AllocationPlan] = None
    ) -> AllocationPlan:
        # AIMD's batch choice is its own state machine; a warm start would
        # anchor batches to the previous MILP solve, so it is ignored here.
        had_violation = ctx.slo_violations_in_window > 0
        b1 = self.light_state.update(had_violation)
        b2 = self.heavy_state.update(had_violation)
        # Clamp to batches whose bare execution fits the SLO so the plan is sane.
        while b2 > 1 and self.allocator._heavy_execution(b2) > ctx.slo:
            b2 //= 2
            self.heavy_state.batch = b2
        while b1 > 1 and self.allocator._light_execution(b1) > ctx.slo:
            b1 //= 2
            self.light_state.batch = b1
        original = self.allocator.batch_candidates
        self.allocator.batch_candidates = (b1,) if b1 == b2 else tuple(sorted({b1, b2}))
        try:
            plan = self.allocator.plan(ctx)
        finally:
            self.allocator.batch_candidates = original
        plan.light_batch = b1
        plan.heavy_batch = b2
        return plan


def make_diffserve_policy(
    light: ModelVariant,
    heavy: ModelVariant,
    deferral_profile: DeferralProfile,
    *,
    discriminator_latency: float = 0.01,
    over_provision: float = 1.05,
    batch_candidates: Sequence[int] = (1, 2, 4, 8, 16),
    variant: str = "full",
    static_threshold: float = 0.5,
    exhaustive_cutoff: int = 0,
) -> AllocationPolicy:
    """Factory for the DiffServe policy and its Section 4.5 ablations.

    ``variant`` selects ``"full"`` (DiffServe), ``"static-threshold"``,
    ``"aimd"`` or ``"no-queueing"``.  ``exhaustive_cutoff`` forwards to
    :class:`DiffServeAllocator` (small-instance LP-free fallback).
    """
    queueing = TwoXExecutionModel() if variant == "no-queueing" else None
    allocator = DiffServeAllocator(
        light,
        heavy,
        deferral_profile,
        discriminator_latency=discriminator_latency,
        over_provision=over_provision,
        batch_candidates=batch_candidates,
        queueing_model=queueing,
        exhaustive_cutoff=exhaustive_cutoff,
    )
    if variant == "full" or variant == "no-queueing":
        return DiffServePolicy(allocator)
    if variant == "static-threshold":
        return StaticThresholdPolicy(allocator, static_threshold)
    if variant == "aimd":
        return AIMDBatchingPolicy(allocator)
    raise ValueError(f"unknown policy variant {variant!r}")
