"""Configuration and epoch samples of the control loop.

The :class:`~repro.core.controller.Controller` runs the one control loop
(Sections 3.1/3.3): every :attr:`ReplanConfig.epoch` seconds of simulated
time it reads the epoch's arrivals, deferrals and SLO misses from counters
that only grow, updates its EWMA demand estimate and re-solves the
allocation problem as :attr:`ReplanConfig.policy` says.  With
``warm_start`` it seeds the MILP's incumbent from the previous epoch's plan
(see :meth:`~repro.core.allocator.DiffServeAllocator.plan`), so steady-state
epochs re-plan at a fraction of a cold solve's cost.  Each epoch leaves one
:class:`EpochSnapshot`.

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

Epochs plan against the Controller's *active fleet*: when
:meth:`~repro.core.controller.Controller.set_fleet` shrinks it mid-run (a
device-class failure scenario), the next epoch's warm start still references
the old shape — the allocator repairs it onto the surviving classes instead
of rejecting or crashing, and the snapshot records the fleet token the epoch
planned against.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Recognised re-plan policies.
REPLAN_POLICIES = ("static", "periodic", "adaptive")


@dataclass(frozen=True)
class ReplanConfig:
    """Configuration of the online re-planning loop.

    Attributes
    ----------
    epoch:
        Seconds between control-plane samples (and, for ``periodic``,
        re-solves).  A sharded run places its barriers this far apart.
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
