"""The control loop of every serving system.

The :class:`ReplanController` is the one control loop (Sections 3.1/3.3): it
runs inside the simulation, samples the
:class:`~repro.core.results.ResultCollector`'s O(1) counters and the Load
Balancer's windowed arrival rate on a configurable epoch, and re-solves the
allocation problem through the Controller.  With ``warm_start`` it seeds the
MILP's incumbent from the previous epoch's plan (see
:meth:`~repro.core.allocator.DiffServeAllocator.plan`), so steady-state
epochs re-plan at a fraction of a cold solve's cost.

Three re-plan policies are supported:

``static``
    Solve once at start-up and never again (the provision-for-the-mean
    baseline the drift-adaptation experiment compares against, and every
    system whose policy is not dynamic).
``periodic``
    Re-solve every epoch.  A system built without re-planning options runs
    this cold (``warm_start=False``) at the default 5 s epoch.
``adaptive``
    Sample every epoch but only re-solve when the demand estimate has
    drifted beyond ``drift_threshold`` relative to the last solved demand,
    or the epoch's SLO violation ratio exceeds ``violation_trigger`` —
    warm-started like ``periodic``, but skipping solves entirely while the
    system is in steady state.

Every decision input is a deterministic function of simulation state, so
runs with re-planning enabled stay byte-identical across processes (the
serial-vs-parallel determinism guarantee extends to the control plane).

Epochs plan against the Controller's *active fleet*: when
:meth:`~repro.core.controller.Controller.set_fleet` shrinks it mid-run (a
device-class failure scenario), the next epoch's warm start still references
the old shape — the allocator repairs it onto the surviving classes instead
of rejecting or crashing, and the snapshot records the fleet token the epoch
planned against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.simulator.simulation import Actor, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.autoscaler import Autoscaler
    from repro.core.controller import Controller
    from repro.core.load_balancer import LoadBalancer
    from repro.core.results import ResultCollector

#: Recognised re-plan policies.
REPLAN_POLICIES = ("static", "periodic", "adaptive")


@dataclass(frozen=True)
class ReplanConfig:
    """Configuration of the online re-planning loop.

    Attributes
    ----------
    epoch:
        Seconds between control-plane samples (and, for ``periodic``,
        re-solves).  The load balancer keeps this much arrival history and
        a sharded run places its barriers this far apart.
    policy:
        One of :data:`REPLAN_POLICIES`.
    warm_start:
        Whether re-solves seed the MILP incumbent from the previous plan.
    drift_threshold:
        ``adaptive`` only: relative demand drift (vs. the demand the current
        plan was solved for) that triggers a re-solve.
    violation_trigger:
        ``adaptive`` only: epoch SLO-violation ratio that triggers a
        re-solve even without demand drift.
    """

    epoch: float = 5.0
    policy: str = "periodic"
    warm_start: bool = True
    drift_threshold: float = 0.2
    violation_trigger: float = 0.05

    def __post_init__(self) -> None:
        if self.epoch <= 0:
            raise ValueError("epoch must be positive")
        if self.policy not in REPLAN_POLICIES:
            raise ValueError(
                f"unknown replan policy {self.policy!r}; expected one of {REPLAN_POLICIES}"
            )
        if self.drift_threshold < 0:
            raise ValueError("drift_threshold must be non-negative")
        if not 0.0 <= self.violation_trigger <= 1.0:
            raise ValueError("violation_trigger must lie in [0, 1]")


@dataclass
class EpochSnapshot:
    """One control-plane sample, recorded whether or not a re-solve ran."""

    time: float
    arrival_rate: float
    demand_estimate: float
    epoch_violation_ratio: float
    replanned: bool
    #: True only when the solve ran with a warm start AND the solver accepted
    #: it (the repaired incumbent was feasible for the drifted problem) — not
    #: merely when a previous plan was offered.
    warm_started: bool
    #: HiGHS solves the epoch's re-solve ran, one per MIP or exhaustive LP (0
    #: when the epoch skipped the solve, or when the policy has no MILP
    #: allocator).
    lp_solves: int
    #: Canonical token of the fleet the epoch planned against (changes when
    #: the Controller's active fleet is shrunk mid-run, e.g. a device-class
    #: failure scenario).
    fleet: str = ""
    #: Canonical token of the residency the epoch's plan pins, e.g.
    #: ``"a100:sd-turbo+sd-v1.5"`` — empty for legacy / reload-oblivious
    #: plans.  Deterministic (class and variant order are canonical), so it
    #: participates in byte-identity checks like ``fleet``.
    residency: str = ""
    #: True when the epoch's solve timed out (fault injection: solver
    #: timeout) and the applied plan is a degraded last-known-good fallback
    #: rather than a fresh solution.
    degraded: bool = False


class ReplanController(Actor):
    """Epoch-driven control loop over an existing :class:`Controller`.

    The Controller applies plan zero and keeps its roles of building control
    contexts and applying plans; this actor owns *when* to re-solve and
    *what to seed the solver with*.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        controller: "Controller",
        collector: "ResultCollector",
        load_balancer: "LoadBalancer",
        config: ReplanConfig,
        autoscaler: "Autoscaler",
    ) -> None:
        super().__init__(sim, name="replanner")
        self.controller = controller
        self.collector = collector
        self.load_balancer = load_balancer
        self.config = config
        self.history: List[EpochSnapshot] = []
        self.replans = 0
        self.skipped_epochs = 0
        #: Demand estimate the currently applied plan was solved against
        #: (None until the initial plan exists).
        self._last_solved_demand: Optional[float] = None
        # Cumulative collector counters at the previous epoch boundary, used
        # to difference out per-epoch violation ratios without consuming the
        # Controller's stats window.
        self._prev_total = 0
        self._prev_bad = 0
        #: Evaluated every epoch *before* the re-solve decision, so a scale
        #: event and the plan that fits it land in the same epoch.  The
        #: ``static`` policy never proposes a change.
        self.autoscaler = autoscaler

    # ------------------------------------------------------------------ start
    def start(self) -> None:
        """Begin the epoch loop (the Controller already applied plan zero)."""
        self._last_solved_demand = self.controller.demand_estimator.estimate
        if self.config.policy != "static":
            self.sim.schedule(self.config.epoch, self._epoch_tick, name="replan-epoch")

    # ------------------------------------------------------------- epoch loop
    def _epoch_violation_ratio(self) -> float:
        """SLO violation ratio of the epoch that just ended."""
        collector = self.collector
        total = collector.completed_count + collector.dropped_count
        bad = collector.violated_count + collector.dropped_count
        epoch_total = total - self._prev_total
        epoch_bad = bad - self._prev_bad
        self._prev_total = total
        self._prev_bad = bad
        return epoch_bad / epoch_total if epoch_total > 0 else 0.0

    def _should_replan(self, demand_estimate: float, violation_ratio: float) -> bool:
        if self.config.policy == "periodic":
            return True
        # Adaptive: re-solve on demand drift or observed SLO pressure.
        if self._last_solved_demand is None:
            return True
        drift = abs(demand_estimate - self._last_solved_demand) / max(
            self._last_solved_demand, 1e-9
        )
        return (
            drift >= self.config.drift_threshold
            or violation_ratio > self.config.violation_trigger
        )

    def _warm_start_accepted(self) -> bool:
        """Whether the solve that just ran accepted its warm incumbent.

        MILP-backed policies expose the acceptance signal on their allocator;
        for other policies the attempt itself is the best available signal.
        """
        allocator = getattr(self.controller.policy, "allocator", None)
        if allocator is None or not hasattr(allocator, "last_warm_start_used"):
            return True
        return bool(allocator.last_warm_start_used)

    def _lp_solves(self) -> int:
        """HiGHS solves the policy's MILP solvers have run so far."""
        allocator = getattr(self.controller.policy, "allocator", None)
        if allocator is None:
            return 0
        return allocator.solver.total_lp_solves + allocator.exhaustive_solver.total_lp_solves

    def _epoch_tick(self) -> None:
        controller = self.controller
        config = self.config
        arrivals = self.load_balancer.arrivals_in_window(config.epoch)
        arrival_rate = arrivals / config.epoch
        controller.demand_estimator.observe(arrivals, config.epoch)

        lb_stats = self.load_balancer.collect_stats()
        observed_deferral = lb_stats.observed_deferral_rate
        if observed_deferral is not None and controller.current_plan is not None:
            controller.policy_deferral_update(controller.current_plan.threshold, observed_deferral)

        violation_ratio = self._epoch_violation_ratio()
        demand_estimate = controller.demand_estimator.estimate

        # Autoscaler hook: a pure function of this epoch's signals (and the
        # price trace at `now`), so decisions are deterministic and identical
        # under serial and sharded execution.  A scale event always forces a
        # re-solve — the plan must fit the new fleet.
        scaled = False
        proposal = self.autoscaler.evaluate(self.now, arrival_rate, violation_ratio)
        if proposal is not None:
            controller.set_fleet(proposal, reason=f"autoscale:{self.autoscaler.policy.kind}")
            controller.fleet_target = proposal
            scaled = True
        controller.cost_ledger.observe(self.now)

        replanned = scaled or self._should_replan(demand_estimate, violation_ratio)
        warm_started = False
        lp_solves = 0
        degraded = False
        if replanned:
            warm = controller.current_plan if config.warm_start else None
            lp_before = self._lp_solves()
            controller.replan(observed_deferral=observed_deferral, warm_start=warm)
            lp_solves = self._lp_solves() - lp_before
            warm_started = warm is not None and self._warm_start_accepted()
            allocator = getattr(controller.policy, "allocator", None)
            degraded = bool(getattr(allocator, "last_solve_timed_out", False))
            self._last_solved_demand = demand_estimate
            self.replans += 1
        else:
            self.skipped_epochs += 1

        self.history.append(
            EpochSnapshot(
                time=self.now,
                arrival_rate=arrival_rate,
                demand_estimate=demand_estimate,
                epoch_violation_ratio=violation_ratio,
                replanned=replanned,
                warm_started=warm_started,
                lp_solves=lp_solves,
                fleet=controller.active_fleet.token(),
                residency=self._residency_token(controller.current_plan),
                degraded=degraded,
            )
        )
        self.sim.schedule(config.epoch, self._epoch_tick, name="replan-epoch")

    @staticmethod
    def _residency_token(plan) -> str:
        """Canonical token of a plan's pinned residency (empty when none)."""
        if plan is None or plan.residency is None:
            return ""
        return ";".join(
            f"{cname}:{'+'.join(names)}"
            for cname, names in sorted(plan.residency.items())
            if names
        )
