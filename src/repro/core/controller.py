"""Controller: the control path of the serving system.

At every epoch of the :class:`~repro.core.replanner.ReplanController` loop,
the Controller collects runtime statistics from the workers and the Load
Balancer (queue lengths, demands, deferral rates, SLO violations), asks its
allocation policy for a new plan, and applies the plan by re-assigning model
variants to workers, setting batch sizes and updating the cascade's
confidence threshold (Sections 3.1/3.3).  Demand is estimated with an EWMA
the re-planner feeds.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.allocator import AllocationPlan, ControlContext
from repro.core.config import FleetSpec, RoutingMode, SystemConfig
from repro.core.demand import DemandEstimator
from repro.core.load_balancer import LoadBalancer
from repro.core.policies import AllocationPolicy
from repro.core.pricing import CostLedger, PriceTrace
from repro.core.results import ControlSnapshot, ResultCollector
from repro.core.worker import Worker
from repro.discriminators.base import Discriminator
from repro.models.variants import ModelVariant
from repro.simulator.simulation import Actor, Simulator


class Controller(Actor):
    """Applies allocation plans produced by an :class:`AllocationPolicy`."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        workers: List[Worker],
        load_balancer: LoadBalancer,
        collector: ResultCollector,
        policy: AllocationPolicy,
        variants: Dict[str, ModelVariant],
        discriminator: Optional[Discriminator],
        *,
        initial_demand: float = 1.0,
        prices: Optional[PriceTrace] = None,
    ) -> None:
        super().__init__(sim, name="controller")
        self.config = config
        self.workers = workers
        self.load_balancer = load_balancer
        self.collector = collector
        self.policy = policy
        #: Variants a plan's residency may name, by name: the zoo plus the
        #: served cascade's two variants.
        self.variants = variants
        self.discriminator = discriminator
        self.demand_estimator = DemandEstimator(alpha=0.5, initial=initial_demand)
        self.current_plan: Optional[AllocationPlan] = None
        self.history: List[ControlSnapshot] = []
        #: The fleet plans are currently solved against.  Starts as the
        #: configured fleet; :meth:`set_fleet` shrinks it online (device-class
        #: failures / capacity reclaims), after which workers beyond a class's
        #: count receive no assignment and drain idle.
        self.active_fleet: FleetSpec = config.fleet
        # Workers grouped by device class, in fleet (canonical) order — the
        # one ordering plan application, worker construction and cache tokens
        # all share.
        self._workers_by_class: dict = {}
        for worker in workers:
            self._workers_by_class.setdefault(worker.device_name, []).append(worker)
        #: Attached by the fault injector when recovery is enabled: a
        #: :class:`~repro.faults.plan_store.PlanStore` that records every
        #: feasible plan and supplies a fleet-clamped last-known-good plan
        #: when a (repair) re-solve comes back infeasible.
        self.plan_store: Optional[object] = None
        #: Set (briefly) by the fault injector around repair re-solves so
        #: :meth:`_resolve_plan` knows an infeasible result is repair-driven
        #: rather than routine overload.
        self.repairing: bool = False
        #: What the *built* workers amount to per class — the hard ceiling
        #: every fleet transition is validated against.  With autoscaling the
        #: simulation pre-provisions spares beyond ``config.fleet``, so this
        #: can exceed the initial active fleet.
        if workers and all(w.device is not None for w in workers):
            self.built_fleet: FleetSpec = FleetSpec(
                devices=tuple(
                    (group[0].device, len(group))
                    for group in self._workers_by_class.values()
                )
            )
        else:
            self.built_fleet = config.fleet
        #: The fleet size the autoscaler currently *wants* (may exceed the
        #: healthy fleet mid-fault); repairs re-apply ``min(target, healthy)``
        #: per class.  Without an autoscaler this stays the configured fleet,
        #: which keeps PR 8 repair semantics bit-for-bit.
        self.fleet_target: FleetSpec = config.fleet
        #: Workers fenced by a spot-revocation notice: draining toward a kill
        #: and never eligible for re-activation, even if a same-epoch
        #: scale-out asks for more of their class.
        self.fenced_workers: set = set()
        #: Optional spot-market price trace (pure function of time); ``None``
        #: meters the static catalog rate.
        self.prices = prices
        #: Time-integrated cost meter, charged at every fleet transition
        #: through :meth:`set_fleet` — the single audited transition site.
        self.cost_ledger = CostLedger(prices)
        self.cost_ledger.transition(config.fleet, 0.0)
        #: ``(time, reason, old token, new token)`` audit log of transitions.
        self.fleet_log: List[tuple] = [(0.0, "initial", "", config.fleet.token())]
        #: Per-class revocation probability under the active fault plan
        #: (fraction of the class's built workers named by spot revocations);
        #: feeds the cost-aware autoscaler and the MILP's risk discount.
        self.revocation_risk: dict = {}

    # ---------------------------------------------------------------- start
    def start(self) -> None:
        """Apply the initial plan (the re-planner runs every later epoch)."""
        ctx = self._build_context()
        plan = self._resolve_plan(self.policy.plan(ctx))
        self._apply_plan(plan)

    # ----------------------------------------------------------- control loop
    def replan(
        self,
        *,
        observed_deferral: Optional[float] = None,
        warm_start: Optional[AllocationPlan] = None,
    ) -> AllocationPlan:
        """Build a control context, solve, and apply the resulting plan.

        ``warm_start`` is forwarded to the policy so MILP-backed policies can
        seed their solver's incumbent with the previous epoch's solution (the
        re-planner passes the currently applied plan).
        """
        ctx = self._build_context(observed_deferral)
        plan = self._resolve_plan(self.policy.plan(ctx, warm_start=warm_start))
        self._apply_plan(plan)
        return plan

    def _resolve_plan(self, plan: AllocationPlan) -> AllocationPlan:
        """Route a freshly solved plan through the last-known-good store.

        Feasible plans are recorded; infeasible ones (solver timeout, repair
        re-solve that cannot fit the surviving fleet) degrade to the newest
        recorded plan clamped to the active fleet — or pass through unchanged
        when nothing better is known.  No-op without a plan store.
        """
        if self.plan_store is None:
            return plan
        if plan.feasible:
            self.plan_store.record(plan, self.active_fleet)
            return plan
        # Only *degraded* solves fall back: a repair re-solve that cannot
        # fit the surviving fleet, or a solve cut short by a fault-injected
        # deadline.  Routine best-effort plans under overload pass through
        # unchanged, so a healthy-but-saturated system behaves exactly as
        # it would without recovery armed.
        allocator = getattr(self.policy, "allocator", None)
        timed_out = bool(getattr(allocator, "last_solve_timed_out", False))
        if not (timed_out or self.repairing):
            return plan
        fallback = self.plan_store.recall(self.active_fleet)
        return fallback if fallback is not None else plan

    def set_fleet(self, fleet: FleetSpec, *, reason: str = "manual") -> None:
        """Resize/replace the fleet plans are solved against — the one site.

        Every fleet transition in the system — fault repairs, autoscaler
        decisions, manual shrinks — lands here: the move is validated against
        the workers actually built (growth activates pre-provisioned spares;
        a worker fenced by a revocation notice can never be re-activated),
        the :class:`~repro.core.pricing.CostLedger` is charged for the
        interval the outgoing fleet was held, and the transition is recorded
        in :attr:`fleet_log`.  Shrunk-away workers simply stop receiving
        assignments (they drain and idle).  The next re-plan sees the new
        shape, and a warm start from the old shape is repaired — not
        rejected — by the allocator (see
        :meth:`~repro.core.allocator.DiffServeAllocator._warm_assignment`).
        """
        for device, count in fleet.devices:
            group = self._workers_by_class.get(device.name, [])
            present = len(group)
            if count > present:
                raise ValueError(
                    f"fleet class {device.name!r}: count {count} exceeds the "
                    f"{present} workers built for it"
                )
            fenced = sum(1 for w in group if w in self.fenced_workers)
            if count > present - fenced:
                raise ValueError(
                    f"fleet class {device.name!r}: count {count} exceeds the "
                    f"{present - fenced} unfenced workers built for it "
                    f"({fenced} fenced by revocation notices)"
                )
        self.cost_ledger.transition(fleet, self.now)
        self.fleet_log.append((self.now, reason, self.active_fleet.token(), fleet.token()))
        self.active_fleet = fleet

    def fence_worker(self, worker: Worker) -> None:
        """Permanently fence a worker pending a spot-revocation kill.

        Fenced workers are quarantined (no new assignments) *and* excluded
        from :meth:`set_fleet` growth validation and :meth:`healthy_counts`,
        so a same-epoch autoscaler scale-out cannot re-activate a machine the
        market has already reclaimed.
        """
        self.fenced_workers.add(worker)
        worker.quarantined = True

    def healthy_counts(self) -> dict:
        """Per-class count of workers eligible for (re-)activation.

        Excludes failed, quarantined and fenced workers; this is the ceiling
        the autoscaler clamps proposals to and the injector repairs against.
        """
        return {
            name: sum(
                1
                for w in group
                if not w.failed and not w.quarantined and w not in self.fenced_workers
            )
            for name, group in self._workers_by_class.items()
        }

    def policy_deferral_update(self, threshold: float, observed_fraction: float) -> None:
        """Blend the observed deferral rate into the policy's deferral profile."""
        allocator = getattr(self.policy, "allocator", None)
        if allocator is None:
            return
        allocator.deferral_profile.update_online(threshold, observed_fraction)
        allocator.refresh_threshold_grid()

    def _build_context(self, observed_deferral: Optional[float] = None) -> ControlContext:
        light_queue = sum(w.queue_length for w in self.load_balancer.light_pool)
        heavy_queue = sum(w.queue_length for w in self.load_balancer.heavy_pool)
        violations, completions = self.collector.window_stats()
        return ControlContext(
            demand=self.demand_estimator.estimate,
            slo=self.config.slo,
            fleet=self.active_fleet,
            light_queue_length=light_queue,
            heavy_queue_length=heavy_queue,
            observed_deferral=observed_deferral,
            slo_violations_in_window=violations,
            completions_in_window=completions,
            current_plan=self.current_plan,
            resources=self.config.resources,
            prices=self.prices,
            price_time=self.now,
            revocation_risk=self.revocation_risk,
        )

    # -------------------------------------------------------------- applying
    def _select_pools(self, plan: AllocationPlan):
        """Map a plan's per-class worker counts onto concrete workers.

        Classes are visited in fleet order; within a class the light pool
        takes the first healthy workers and the heavy pool the next ones.
        Failed and quarantined workers never receive assignments, so a slot
        a dead worker leaves stays empty in its own class.  Every policy
        goes through this one rule; for a class-blind split from
        :func:`~repro.core.allocator.fleet_order_split` on a healthy fleet it
        picks the workers a flat slice of the class-grouped worker list would.
        """
        light_pool = []
        heavy_pool = []
        for device, _count in self.active_fleet.devices:
            group = [
                w
                for w in self._workers_by_class.get(device.name, [])
                if not w.failed and not w.quarantined
            ]
            n_light = min(plan.light_assignment.get(device.name, 0), len(group))
            n_heavy = min(plan.heavy_assignment.get(device.name, 0), len(group) - n_light)
            light_pool.extend(group[:n_light])
            heavy_pool.extend(group[n_light : n_light + n_heavy])
        return light_pool, heavy_pool

    def _apply_plan(self, plan: AllocationPlan) -> None:
        self.current_plan = plan

        light_variant = plan.light_variant or self.config.cascade.light
        heavy_variant = plan.heavy_variant or self.config.cascade.heavy
        use_discriminator = self.config.routing == RoutingMode.CASCADE

        light_pool, heavy_pool = self._select_pools(plan)

        for worker in light_pool:
            worker.set_variant(
                light_variant, self.discriminator if use_discriminator else None
            )
            worker.set_batch_size(plan.light_batch)
        for worker in heavy_pool:
            worker.set_variant(heavy_variant, None)
            worker.set_batch_size(plan.heavy_batch)
        self._apply_residency(plan)

        self.load_balancer.set_pools(light_pool, heavy_pool)
        self.load_balancer.set_threshold(plan.threshold)
        self.load_balancer.set_heavy_fraction(plan.heavy_fraction)
        # Deferral decisions budget for the slowest device class actually in
        # the heavy pool (equals the variant's baseline latency when the pool
        # is homogeneous baseline-class).
        self.load_balancer.heavy_latency_estimate = max(
            (w.latency_profile.latency(plan.heavy_batch) for w in heavy_pool),
            default=heavy_variant.execution_latency(plan.heavy_batch),
        )
        self.load_balancer.heavy_batch_estimate = plan.heavy_batch

        self.history.append(
            ControlSnapshot(
                time=self.now,
                threshold=plan.threshold,
                num_light=len(light_pool),
                num_heavy=len(heavy_pool),
                light_batch=plan.light_batch,
                heavy_batch=plan.heavy_batch,
                demand_estimate=self.demand_estimator.estimate,
                feasible=plan.feasible,
            )
        )

    def _apply_residency(self, plan: AllocationPlan) -> None:
        """Push the plan's residency decision down to the workers.

        Each device class's workers pin the variants the allocator decided
        should stay resident there (co-placed light+heavy, or carried-over
        pins); missing variants prefetch over the worker's transfer channel.
        Plans without a residency decision (legacy or reload-oblivious
        policies) leave worker residency to pure LRU.
        """
        if plan.residency is None:
            return
        for device, _count in self.active_fleet.devices:
            names = plan.residency.get(device.name)
            if names is None:
                continue
            variants = [self.variants[name] for name in names if name in self.variants]
            for worker in self._workers_by_class.get(device.name, []):
                worker.pin_residency(variants)
