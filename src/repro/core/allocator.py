"""The DiffServe resource allocator (Section 3.3), fleet-aware.

The allocator jointly picks the confidence threshold ``t``, the worker split
``(x1, x2)`` between the lightweight and heavyweight models, and their batch
sizes ``(b1, b2)``, maximising ``t`` subject to:

* the latency constraint ``e(b1) + q(b1) + e(b2) + q(b2) <= SLO`` (Eq. 1);
* the light-pool throughput constraint ``x1 * T1(b1) >= D`` (Eq. 2);
* the heavy-pool throughput constraint ``x2 * T2(b2) >= D * f(t)`` (Eq. 3);
* the device budget ``x1 + x2 <= S`` (Eq. 4).

The worker split is typed by the :class:`~repro.core.config.FleetSpec`: each
decision variable is indexed by device class (``x1[l4]``, ``x2[a100]``, ...),
throughputs come from the per-(variant, device-class) latency profiles,
Eq. 4 becomes one capacity constraint per class, a ``min-light`` row keeps
the light pool non-empty, and memory tiers gate which classes may host which
variant.  The paper's two-variable problem is the single-class case
(``x1[a100]``, ``x2[a100]`` and one capacity row), built by the same code.

``f(t)`` — the fraction of queries deferred at threshold ``t`` — is an
empirical, piecewise-constant function, so the threshold is discretised onto
a grid and selected with binary variables inside a MILP solved per candidate
``(b1, b2)`` pair.  Like the paper, which hands it to Gurobi, the allocator
hands each MILP to an off-the-shelf solver: HiGHS's branch-and-cut, through
:class:`~repro.milp.highs.HighsMILPSolver`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import DeviceClass, FleetSpec, ResourceConfig
from repro.core.pricing import PriceTrace
from repro.core.queueing import LittlesLawModel, QueueingModel
from repro.discriminators.deferral import DeferralProfile
from repro.milp.exhaustive import ExhaustiveSolver
from repro.milp.highs import HighsMILPSolver
from repro.milp.problem import ACCEPT_TOL, MILPProblem
from repro.milp.solution import MILPSolution, SolveStatus
from repro.models.variants import ModelVariant
from repro.models.zoo import variant_profile

#: Quantile levels of the deferral profile the threshold grid is built from.
THRESHOLD_LEVELS = 21
#: Objective cost per second of weight-transfer a plan would trigger
#: (multi-resource model with ``reload_aware`` only).  Small enough that
#: throughput-feasibility always wins, large enough to break ties toward
#: splits that avoid reloads.
RELOAD_PENALTY = 0.02
#: Objective cost per worker placed on the most expensive class when a
#: :class:`~repro.core.pricing.PriceTrace` is attached (spot-market runs
#: only).  Like :data:`RELOAD_PENALTY` it is a tie-break: throughput
#: feasibility always wins, but equal-capacity splits prefer classes that are
#: cheap (and revocation-safe) at the current price.
PRICE_PENALTY = 0.02


@dataclass
class AllocationPlan:
    """The Controller-facing output of one allocation solve.

    ``light_assignment`` / ``heavy_assignment`` name each pool's worker
    count per device class (``{class name: count}``): the light pool hosts
    the light model (plus discriminator), the heavy pool the heavy model,
    with the given batch sizes and confidence threshold.  Every policy emits
    these maps; class-blind baselines build them with
    :func:`fleet_order_split`.  ``heavy_fraction`` is only used by
    random-split (Proteus-style) routing.
    """

    light_assignment: Dict[str, int]
    heavy_assignment: Dict[str, int]
    light_batch: int
    heavy_batch: int
    threshold: float
    heavy_fraction: float = 0.0
    feasible: bool = True
    objective: Optional[float] = None
    #: The variants to place on the two pools (``None`` = the cascade's
    #: light/heavy variant).  Baseline policies set them: Clipper serves one
    #: variant everywhere, Proteus may derive a reduced-step sampler.
    light_variant: Optional[object] = None
    heavy_variant: Optional[object] = None
    #: Multi-resource model only: variants each device class should keep
    #: resident (``{class name: (variant names...)}``).  The Controller pins
    #: these on every worker of the class, so later pool reassignments find
    #: the weights already loaded (zero-transfer reloads).  ``None`` means
    #: the plan carries no residency decision (legacy / reload-oblivious).
    residency: Optional[Dict[str, Tuple[str, ...]]] = None

    def __post_init__(self) -> None:
        for label, assignment in (
            ("light", self.light_assignment),
            ("heavy", self.heavy_assignment),
        ):
            if any(count < 0 for count in assignment.values()):
                raise ValueError(f"{label}_assignment counts must be non-negative")
        if self.light_batch < 1 or self.heavy_batch < 1:
            raise ValueError("batch sizes must be >= 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if not 0.0 <= self.heavy_fraction <= 1.0:
            raise ValueError("heavy_fraction must lie in [0, 1]")

    @property
    def num_light(self) -> int:
        """Workers in the light pool."""
        return sum(self.light_assignment.values())

    @property
    def num_heavy(self) -> int:
        """Workers in the heavy pool."""
        return sum(self.heavy_assignment.values())

    @property
    def total_workers(self) -> int:
        """Total workers used by the plan."""
        return self.num_light + self.num_heavy


def fleet_order_split(
    fleet: FleetSpec, num_light: int, num_heavy: int
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Per-class (light, heavy) maps for a class-blind split of ``fleet``.

    Light workers fill the fleet's classes in fleet order, then heavy workers
    continue from where the light pool stopped: the split slicing a
    class-grouped worker list ``[:num_light]`` / ``[num_light:num_light +
    num_heavy]`` gives.  Positive entries only.
    """
    if num_light + num_heavy > fleet.total_workers:
        raise ValueError(
            f"{num_light} light + {num_heavy} heavy workers exceed the fleet's "
            f"{fleet.total_workers}"
        )
    light: Dict[str, int] = {}
    heavy: Dict[str, int] = {}
    for device, count in fleet.devices:
        take = min(num_light, count)
        num_light -= take
        rest = min(num_heavy, count - take)
        num_heavy -= rest
        if take:
            light[device.name] = take
        if rest:
            heavy[device.name] = rest
    return light, heavy


@dataclass
class ControlContext:
    """Runtime statistics the Controller feeds into the allocator.

    ``fleet`` is the typed device fleet the plan must fit.  Fleet validation
    happens in :class:`~repro.core.config.FleetSpec` (the single validation
    site).
    """

    demand: float
    slo: float
    fleet: FleetSpec
    light_queue_length: float = 0.0
    heavy_queue_length: float = 0.0
    observed_deferral: Optional[float] = None
    slo_violations_in_window: int = 0
    completions_in_window: int = 0
    current_plan: Optional[AllocationPlan] = None
    #: Multi-resource worker model (``None`` = legacy).  When set and
    #: ``reload_aware``, the allocator gates classes on footprints, penalises
    #: reloads in the objective, and pins co-placement residency on plans.
    resources: Optional[ResourceConfig] = None
    #: Spot-market price trace (``None`` = legacy, no price awareness).  When
    #: set on a heterogeneous fleet the allocator adds a tiny tie-break that
    #: prefers placing workers on classes that are cheap *right now*.
    prices: Optional[PriceTrace] = None
    #: Simulation time at which ``prices`` is sampled.
    price_time: float = 0.0
    #: Per-class revocation probability from the active fault plan; effective
    #: price is ``price * (1 + risk)`` so risky spot capacity is discounted.
    revocation_risk: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.demand < 0:
            raise ValueError("demand must be non-negative")
        if self.slo <= 0:
            raise ValueError("slo must be positive")


class DiffServeAllocator:
    """Builds and solves the DiffServe MILP for a control context."""

    def __init__(
        self,
        light: ModelVariant,
        heavy: ModelVariant,
        deferral_profile: DeferralProfile,
        *,
        discriminator_latency: float = 0.01,
        queueing_model: Optional[QueueingModel] = None,
        batch_candidates: Sequence[int] = (1, 2, 4, 8, 16),
        over_provision: float = 1.05,
        min_light_workers: int = 1,
        exhaustive_cutoff: int = 0,
    ) -> None:
        if over_provision < 1.0:
            raise ValueError("over_provision must be >= 1.0")
        if exhaustive_cutoff < 0:
            raise ValueError("exhaustive_cutoff must be non-negative")
        self.light = light
        self.heavy = heavy
        self.deferral_profile = deferral_profile
        self.discriminator_latency = discriminator_latency
        self.queueing_model = queueing_model or LittlesLawModel()
        self.batch_candidates = tuple(sorted(set(int(b) for b in batch_candidates)))
        self.over_provision = over_provision
        self.solver = HighsMILPSolver()
        self.min_light_workers = min_light_workers
        #: Below this integral-search-space size the per-pair MILP is handed
        #: to the LP-free exhaustive solver instead of HiGHS
        #: (0 disables the fallback).  The online ``fraction`` formulation has
        #: one continuous variable, which the exhaustive solver optimises in
        #: closed form, so small clusters re-plan with pure arithmetic.
        self.exhaustive_cutoff = exhaustive_cutoff
        self.exhaustive_solver = ExhaustiveSolver()
        self.threshold_grid = self._build_threshold_grid()
        # Warm-start telemetry (read by the re-planner and the benchmarks).
        self.warm_solves = 0
        self.cold_solves = 0
        self.warm_start_hits = 0
        self.pairs_pruned_by_bound = 0
        #: Whether the most recent :meth:`plan` call had its warm incumbent
        #: accepted by at least one per-pair solve (False for cold solves or
        #: when every repaired incumbent was rejected as infeasible).
        self.last_warm_start_used = False
        #: Set by the fault injector's solver-timeout fault: while it is on,
        #: every :meth:`plan` call that has candidate batch pairs times out
        #: before its first solve.  A flag, not a wall-clock budget, so
        #: fault runs never depend on machine speed.
        self.force_solve_timeout = False
        #: Whether the most recent :meth:`plan` call timed out (its result
        #: was a best-effort/infeasible plan, not a real solve).
        self.last_solve_timed_out = False

    # ----------------------------------------------------------------- grids
    def _build_threshold_grid(self) -> List[Tuple[float, float]]:
        """Candidate (threshold, deferral fraction) pairs from the profile."""
        profile = self.deferral_profile
        levels = profile.thresholds_for_fractions(np.linspace(0.0, 1.0, THRESHOLD_LEVELS))
        # Python's round, not np.round: the two round some halves differently.
        grid = sorted({0.0, 1.0, *(round(t, 6) for t in levels.tolist())})
        return list(zip(grid, profile.fractions(grid).tolist()))

    def refresh_threshold_grid(self) -> None:
        """Rebuild the grid after the deferral profile was updated online."""
        self.threshold_grid = self._build_threshold_grid()

    # --------------------------------------------------------------- latency
    def _light_execution(self, batch: int, device: Optional[DeviceClass] = None) -> float:
        profile = variant_profile(self.light, device)
        return profile.latency(batch) + self.discriminator_latency * batch

    def _heavy_execution(self, batch: int, device: Optional[DeviceClass] = None) -> float:
        return variant_profile(self.heavy, device).latency(batch)

    def _light_throughput(self, batch: int, device: Optional[DeviceClass] = None) -> float:
        return variant_profile(self.light, device).throughput(batch)

    def _heavy_throughput(self, batch: int, device: Optional[DeviceClass] = None) -> float:
        return variant_profile(self.heavy, device).throughput(batch)

    # ---------------------------------------------------------- device classes
    def _fits(
        self, device: DeviceClass, variant: ModelVariant, resources: Optional[ResourceConfig]
    ) -> bool:
        """Whether ``device`` can host ``variant``.

        Legacy gating compares the variant's coarse ``memory_gb`` against the
        device tier; with a resource model attached the check uses the
        declared footprint weights instead — the same quantity the residency
        sets and transfer channels account at runtime, so the MILP's memory
        rows (sum of resident footprints <= ``memory_gb``) and the simulator
        agree.
        """
        if resources is None:
            return device.can_host(variant)
        footprint = resources.footprint_or_derived(variant)
        return footprint.weights_gb <= device.memory_gb + 1e-9

    def _co_placed(self, device: DeviceClass, resources: Optional[ResourceConfig]) -> bool:
        """Whether light and heavy weights fit ``device`` memory together.

        This is the memory row for pinned co-placement: both variants
        resident at once means pool reassignments on this class cost zero
        transfer, so reload-aware plans pin them and skip the reload penalty.
        """
        if resources is None:
            return False
        light_gb = resources.footprint_or_derived(self.light).weights_gb
        heavy_gb = resources.footprint_or_derived(self.heavy).weights_gb
        return light_gb + heavy_gb <= device.memory_gb + 1e-9

    def _hostable_classes(
        self, fleet: FleetSpec, resources: Optional[ResourceConfig] = None
    ) -> Tuple[List[DeviceClass], List[DeviceClass]]:
        """(light, heavy) classes whose memory fits each variant."""
        light = [device for device in fleet.classes if self._fits(device, self.light, resources)]
        heavy = [device for device in fleet.classes if self._fits(device, self.heavy, resources)]
        if not light:
            raise ValueError(
                f"no device class in fleet {fleet.token()!r} can host light variant "
                f"{self.light.name!r} ({self.light.memory_gb} GB)"
            )
        return light, heavy

    def _eligible_classes(
        self,
        ctx: ControlContext,
        demand: float,
        light: Sequence[DeviceClass],
        light_execution: Mapping[str, float],
        heavy: Sequence[DeviceClass],
        heavy_execution: Mapping[str, float],
    ) -> Tuple[List[DeviceClass], List[DeviceClass]]:
        """Classes allowed to host each stage for a fixed batch pair.

        ``light`` / ``heavy`` are the memory-fitting classes and
        ``*_execution`` their per-class execution latency at the pair's batch
        sizes (see :meth:`_candidate_allocations`).  Starts from the classes
        whose per-stage execution latency fits the SLO, then enforces the
        end-to-end latency budget (Eq. 1) on the *worst-case* cascade path:
        while the slowest light-eligible plus slowest heavy-eligible class
        blow the budget, the slowest class of the stage contributing more is
        evicted (ties evict from the heavy stage) and the check repeats.  On
        a homogeneous fleet there is nothing to evict, so the pair is simply
        feasible or not — exactly the pre-fleet behaviour.  Either returned
        list may be empty (the pair is infeasible).
        """
        light = [d for d in light if light_execution[d.name] <= ctx.slo]
        heavy = [d for d in heavy if heavy_execution[d.name] <= ctx.slo]
        deferral_guess = ctx.observed_deferral if ctx.observed_deferral is not None else 0.3
        heavy_rate = max(demand * deferral_guess, 1e-3)
        while light and heavy:
            e1 = max(light_execution[d.name] for d in light)
            e2 = max(heavy_execution[d.name] for d in heavy)
            q1 = self.queueing_model.waiting_time(
                ctx.light_queue_length, max(demand, 1e-3), e1
            )
            q2 = self.queueing_model.waiting_time(ctx.heavy_queue_length, heavy_rate, e2)
            if e1 + q1 + e2 + q2 <= ctx.slo:
                return light, heavy
            if len(heavy) > 1 and (e2 >= e1 or len(light) == 1):
                heavy = [d for d in heavy if heavy_execution[d.name] < e2]
            elif len(light) > 1:
                light = [d for d in light if light_execution[d.name] < e1]
            else:
                return [], []
        return [], []

    # ----------------------------------------------------- reload-aware model
    def _reload_model(self, ctx: ControlContext) -> Optional[Dict[str, object]]:
        """Per-class reload costs and the previous split, or ``None``.

        Active only when a reload-aware resource model is attached and a
        previous plan exists.  A class where both variants co-reside
        (:meth:`_co_placed`) reloads for free — its residency is pinned — so
        only non-co-placed classes carry a cost: the time to move the stage's
        weights over the class's ``transfer_gbps`` channel.
        """
        resources = ctx.resources
        if resources is None or not resources.reload_aware or ctx.current_plan is None:
            return None
        light_gb = resources.footprint_or_derived(self.light).weights_gb
        heavy_gb = resources.footprint_or_derived(self.heavy).weights_gb
        costs: Dict[str, Tuple[float, float]] = {}
        any_cost = False
        for device in ctx.fleet.classes:
            if self._co_placed(device, resources):
                costs[device.name] = (0.0, 0.0)
            else:
                costs[device.name] = (
                    light_gb / device.transfer_gbps,
                    heavy_gb / device.transfer_gbps,
                )
                any_cost = True
        if not any_cost:
            return None
        return {
            "costs": costs,
            "prev_light": ctx.current_plan.light_assignment,
            "prev_heavy": ctx.current_plan.heavy_assignment,
        }

    def _plan_residency(self, ctx: ControlContext) -> Optional[Dict[str, Tuple[str, ...]]]:
        """Residency each device class should pin under the new plan.

        Co-placed classes pin both variants (future pool flips are free);
        other classes carry forward whatever previous pins still fit their
        memory — the repair that preserves residency across fleet drift
        (classes that vanished simply drop out, new classes start unpinned).
        """
        resources = ctx.resources
        if resources is None or not resources.reload_aware:
            return None
        previous = (
            ctx.current_plan.residency
            if ctx.current_plan is not None and ctx.current_plan.residency is not None
            else {}
        )
        residency: Dict[str, Tuple[str, ...]] = {}
        for device in ctx.fleet.classes:
            if self._co_placed(device, resources):
                residency[device.name] = (self.light.name, self.heavy.name)
                continue
            kept: List[str] = []
            occupied = 0.0
            for name in previous.get(device.name, ()):
                try:
                    weights = resources.footprint_for(name).weights_gb
                except KeyError:
                    continue
                if occupied + weights <= device.memory_gb + 1e-9:
                    kept.append(name)
                    occupied += weights
            residency[device.name] = tuple(kept)
        return residency

    # ----------------------------------------------------------------- MILP
    def build_problem(
        self,
        ctx: ControlContext,
        b1: int,
        b2: int,
        demand: float,
        *,
        formulation: str = "fraction",
        light_classes: Optional[Sequence[DeviceClass]] = None,
        heavy_classes: Optional[Sequence[DeviceClass]] = None,
    ) -> MILPProblem:
        """The MILP over (worker split, threshold) for fixed batch sizes.

        Two equivalent formulations are supported:

        * ``"fraction"`` (default): since ``f(t)`` is monotonically
          non-decreasing, maximising ``t`` is equivalent to maximising the
          deferred fraction ``f`` itself and mapping the optimum back through
          ``f^{-1}``.  This keeps the MILP tiny (a handful of integers plus
          one continuous variable) and is what the system solves online.
        * ``"binary"``: the literal discretised-threshold formulation with one
          binary selector per grid level, used to cross-check the fraction
          formulation in tests.

        The split is indexed by device class (``x1[l4]``, ``x2[a100]``, ...)
        with one capacity constraint per class and a ``min-light`` row; a
        single-class fleet yields the paper's problem (``x1[a100]``,
        ``x2[a100]``, budget ``S``), with the min-light row also presolved
        into the lower bound of ``x1[a100]``.  ``light_classes`` /
        ``heavy_classes`` restrict which classes each stage may use (the
        plan loop passes the SLO-eligible sets); they default to the
        memory-fitting classes.
        """
        if formulation not in ("fraction", "binary"):
            raise ValueError("formulation must be 'fraction' or 'binary'")
        fleet = ctx.fleet
        if light_classes is None or heavy_classes is None:
            light_classes, heavy_classes = self._hostable_classes(fleet, ctx.resources)
        problem = MILPProblem(name=f"diffserve-b{b1}-b{b2}")

        # Presolve the min-light row into bounds: each class must host
        # whatever part of ``min_light_workers`` the other classes cannot.
        light_total = sum(fleet.count_for(d.name) for d in light_classes)
        light_vars: Dict[str, float] = {}
        for device in light_classes:
            count = fleet.count_for(device.name)
            lower = max(0, min(count, self.min_light_workers - (light_total - count)))
            problem.add_integer(f"x1[{device.name}]", lower=lower, upper=count)
            light_vars[f"x1[{device.name}]"] = self._light_throughput(b1, device)
        heavy_vars: Dict[str, float] = {}
        for device in heavy_classes:
            problem.add_integer(f"x2[{device.name}]", lower=0, upper=fleet.count_for(device.name))
            heavy_vars[f"x2[{device.name}]"] = -self._heavy_throughput(b2, device)
        if not light_vars:
            raise ValueError(
                f"no device class may host the light pool at batch {b1} "
                f"(fleet {fleet.token()!r})"
            )

        if formulation == "fraction":
            problem.add_continuous("f", lower=0.0, upper=1.0)
            objective: Dict[str, float] = {"f": 1.0}
            # Reload-aware plans (multi-resource model) pay for every worker
            # newly added to a pool on classes where the stage's weights are
            # not already co-resident: r{1,2}[c] >= x{1,2}[c] - prev[c],
            # entering the objective at -penalty * transfer_time.  The binary
            # cross-check formulation stays reload-oblivious on purpose.
            reload = self._reload_model(ctx)
            if reload is not None:
                entries = [(d.name, 1, reload["prev_light"]) for d in light_classes] + [
                    (d.name, 2, reload["prev_heavy"]) for d in heavy_classes
                ]
                for cname, stage, prev in entries:
                    cost = reload["costs"][cname][stage - 1]
                    if cost <= 0:
                        continue
                    x_name, r_name = f"x{stage}[{cname}]", f"r{stage}[{cname}]"
                    problem.add_continuous(
                        r_name, lower=0.0, upper=float(fleet.count_for(cname))
                    )
                    problem.add_ge(
                        {r_name: 1.0, x_name: -1.0},
                        -float(prev.get(cname, 0)),
                        name=f"reload[{x_name}]",
                    )
                    objective[r_name] = -RELOAD_PENALTY * cost
            # Spot-market tie-break: every worker placed on a class pays its
            # *effective* price (spot price risk-inflated by revocation
            # probability), normalised so the most expensive class costs
            # exactly :data:`PRICE_PENALTY`.  Only heterogeneous fleets have a
            # placement choice; ``prices=None`` leaves the problem untouched.
            if ctx.prices is not None and not fleet.is_homogeneous:
                effective = {
                    device.name: ctx.prices.price(device.name, ctx.price_time)
                    * (1.0 + ctx.revocation_risk.get(device.name, 0.0))
                    for device in fleet.classes
                }
                top = max(effective.values())
                if top > 0:
                    for x_name in list(light_vars) + list(heavy_vars):
                        cname = x_name[x_name.index("[") + 1 : -1]
                        objective[x_name] = objective.get(x_name, 0.0) - (
                            PRICE_PENALTY * effective[cname] / top
                        )
            problem.set_objective(objective)
            problem.add_ge(light_vars, demand, name="light-throughput")
            heavy_row = {"f": demand, **heavy_vars}
            problem.add_le(heavy_row, 0.0, name="heavy-throughput")
        else:
            objective: Dict[str, float] = {}
            sum_z: Dict[str, float] = {}
            heavy_row = dict(heavy_vars)
            for k, (threshold, fraction) in enumerate(self.threshold_grid):
                name = f"z{k}"
                problem.add_binary(name)
                objective[name] = threshold
                sum_z[name] = 1.0
                heavy_row[name] = demand * fraction
            problem.set_objective(objective)
            problem.add_eq(sum_z, 1.0, name="one-threshold")
            problem.add_ge(light_vars, demand, name="light-throughput")
            problem.add_le(heavy_row, 0.0, name="heavy-throughput")

        for device, count in fleet.devices:
            row = {
                f"x{stage}[{device.name}]": 1.0
                for stage, pool in ((1, light_vars), (2, heavy_vars))
                if f"x{stage}[{device.name}]" in pool
            }
            if row:
                problem.add_le(row, float(count), name=f"capacity[{device.name}]")
        problem.add_ge(
            {name: 1.0 for name in light_vars}, float(self.min_light_workers), name="min-light"
        )
        return problem

    def _solve_pair(
        self,
        ctx: ControlContext,
        b1: int,
        b2: int,
        demand: float,
        warm_assignment: Optional[Dict[str, float]] = None,
        light_classes: Optional[Sequence[DeviceClass]] = None,
        heavy_classes: Optional[Sequence[DeviceClass]] = None,
    ) -> MILPSolution:
        """Solve the fixed-batch MILP, routing small instances to the LP-free
        exhaustive solver and seeding the incumbent when a warm start exists.

        A warm incumbent whose objective reaches the pair's
        :meth:`_pair_bound` keeps the most heavy capacity any accepted light
        pool leaves, at no penalty, so it is returned as the solution without
        a solve.  Either solver would return it too: the exhaustive solver
        keeps its seed unless an assignment strictly beats it, and
        :class:`~repro.milp.highs.HighsMILPSolver` keeps it unless HiGHS's
        optimum beats it by more than its warm margin.  The shortcut is taken
        only for an incumbent that holds every row to within ``1e-9``; one
        that needs the solvers' wider ``ACCEPT_TOL`` slack goes to a solver.
        """
        if light_classes is None or heavy_classes is None:
            light_classes, heavy_classes = self._hostable_classes(ctx.fleet, ctx.resources)
        problem = self.build_problem(
            ctx, b1, b2, demand, light_classes=light_classes, heavy_classes=heavy_classes
        )
        incumbent = problem.validated_assignment(warm_assignment)
        if incumbent is not None:
            objective = problem.objective_value(incumbent)
            bound = self._pair_bound(b1, b2, demand, ctx.fleet, light_classes, heavy_classes)
            if objective >= bound and problem.is_feasible(incumbent, tol=1e-9):
                return MILPSolution(
                    status=SolveStatus.OPTIMAL,
                    objective=objective,
                    values=incumbent,
                    warm_start_used=True,
                )
        if self.exhaustive_cutoff:
            size = self.exhaustive_solver.search_space(problem)
            if size is not None and 0 < size <= self.exhaustive_cutoff:
                return self.exhaustive_solver.solve(problem, warm_start=warm_assignment)
        return self.solver.solve(problem, warm_start=warm_assignment)

    def _plan_from_solution(
        self,
        solution: MILPSolution,
        b1: int,
        b2: int,
        light_classes: Sequence[DeviceClass],
        heavy_classes: Sequence[DeviceClass],
    ) -> AllocationPlan:
        threshold, fraction = self._threshold_from_solution(solution)
        light_assignment = {}
        for device in light_classes:
            count = solution.get_int(f"x1[{device.name}]")
            if count:
                light_assignment[device.name] = count
        heavy_assignment = {}
        for device in heavy_classes:
            count = solution.get_int(f"x2[{device.name}]")
            if count:
                heavy_assignment[device.name] = count
        return AllocationPlan(
            light_assignment=light_assignment,
            heavy_assignment=heavy_assignment,
            light_batch=b1,
            heavy_batch=b2,
            threshold=threshold,
            heavy_fraction=fraction,
            feasible=True,
            objective=solution.objective,
        )

    def _candidate_allocations(
        self, ctx: ControlContext, demand: float
    ) -> List[Tuple[int, int, List[DeviceClass], List[DeviceClass]]]:
        """(b1, b2, light classes, heavy classes) tuples the sweep considers,
        largest light batch first.

        Larger batches give strictly higher worker throughput, so for each
        light batch size only the largest heavy batch that still fits the
        latency budget can be optimal.  Memory gating and the per-(batch,
        class) execution latencies are computed once per call and shared by
        every pair's eligibility check.
        """
        light, heavy = self._hostable_classes(ctx.fleet, ctx.resources)
        light_execution = {
            b: {d.name: self._light_execution(b, d) for d in light} for b in self.batch_candidates
        }
        heavy_execution = {
            b: {d.name: self._heavy_execution(b, d) for d in heavy} for b in self.batch_candidates
        }
        allocations: List[Tuple[int, int, List[DeviceClass], List[DeviceClass]]] = []
        descending = sorted(self.batch_candidates, reverse=True)
        for b1 in descending:
            for b2 in descending:
                eligible = self._eligible_classes(
                    ctx, demand, light, light_execution[b1], heavy, heavy_execution[b2]
                )
                if eligible[0] and eligible[1]:
                    allocations.append((b1, b2, *eligible))
                    break
        return allocations

    def _warm_assignment(
        self,
        previous: AllocationPlan,
        b1: int,
        b2: int,
        demand: float,
        ctx: ControlContext,
        light_classes: Sequence[DeviceClass],
        heavy_classes: Sequence[DeviceClass],
    ) -> Dict[str, float]:
        """Repair the previous epoch's split into a candidate incumbent.

        The light pool is grown to the minimum satisfying the current demand
        (the repair that keeps the assignment feasible when load rose), the
        heavy pool keeps as many of its workers as the budget allows, and the
        deferred fraction takes its maximal value for that split — making the
        incumbent as strong as the previous worker split permits.

        The repair starts from the previous plan's per-class maps and is
        robust to fleet-shape drift: counts are clamped to the current fleet's
        counts, classes that disappeared (or are no longer eligible for a
        stage) are dropped, and the light pool is re-grown on the remaining
        classes — an incumbent the solver then re-validates, so a stale shape
        can never crash a re-solve.
        """
        counts = ctx.fleet.as_counts()
        light_names = [d.name for d in light_classes]
        heavy_names = [d.name for d in heavy_classes]
        prev_light = previous.light_assignment
        prev_heavy = previous.heavy_assignment

        # Clamp to the current fleet shape: drop unknown/ineligible classes,
        # cap counts that shrank, and resolve per-class over-subscription by
        # shrinking the heavy side (the light side is re-grown next).
        x1 = {name: min(prev_light.get(name, 0), counts[name]) for name in light_names}
        x2 = {name: min(prev_heavy.get(name, 0), counts[name]) for name in heavy_names}
        for name in heavy_names:
            over = x1.get(name, 0) + x2[name] - counts[name]
            if over > 0:
                x2[name] = max(x2[name] - over, 0)

        def light_capacity() -> float:
            return sum(x1[name] * self._light_throughput(b1, d)
                       for name, d in zip(light_names, light_classes))

        # Grow the light pool until it covers demand (and min_light): free
        # slots first on the highest-throughput classes, then slots stolen
        # from the heavy pool, cheapest heavy capacity first.
        by_light_tput = sorted(
            zip(light_names, light_classes),
            key=lambda nd: (-self._light_throughput(b1, nd[1]), nd[0]),
        )
        for name, device in by_light_tput:
            while light_capacity() < demand or sum(x1.values()) < self.min_light_workers:
                free = counts[name] - x1[name] - x2.get(name, 0)
                if free <= 0:
                    break
                x1[name] += 1
            else:
                break
        if light_capacity() < demand or sum(x1.values()) < self.min_light_workers:
            by_heavy_cost = sorted(
                ((name, d) for name, d in zip(heavy_names, heavy_classes) if name in x1),
                key=lambda nd: (self._heavy_throughput(b2, nd[1]), nd[0]),
            )
            for name, device in by_heavy_cost:
                while x2[name] > 0 and (
                    light_capacity() < demand or sum(x1.values()) < self.min_light_workers
                ):
                    x2[name] -= 1
                    x1[name] += 1

        heavy_capacity = sum(
            x2[name] * self._heavy_throughput(b2, d)
            for name, d in zip(heavy_names, heavy_classes)
        )
        f = min(1.0, heavy_capacity / demand) if demand > 0 else 1.0
        assignment: Dict[str, float] = {"f": float(f)}
        for name in light_names:
            assignment[f"x1[{name}]"] = float(x1[name])
        for name in heavy_names:
            assignment[f"x2[{name}]"] = float(x2[name])
        return self._fill_reload_vars(assignment, ctx)

    def _fill_reload_vars(
        self, assignment: Dict[str, float], ctx: ControlContext
    ) -> Dict[str, float]:
        """Complete a warm incumbent with the reload variables it implies.

        The solver validates incumbents against the full variable set, so a
        reload-aware problem needs its ``r`` variables seeded too; they take
        their tight values ``max(0, x - prev)``.
        """
        reload = self._reload_model(ctx)
        if reload is None:
            return assignment
        for x_name, value in list(assignment.items()):
            if not x_name.startswith("x"):
                continue
            stage = 0 if x_name.startswith("x1") else 1
            cname = x_name[3:-1]
            cost = reload["costs"].get(cname, (0.0, 0.0))[stage]
            if cost <= 0:
                continue
            prev = reload["prev_light"] if stage == 0 else reload["prev_heavy"]
            assignment[f"r{stage + 1}[{cname}]"] = max(0.0, value - float(prev.get(cname, 0)))
        return assignment

    def _fraction_upper_bound(
        self,
        b1: int,
        b2: int,
        demand: float,
        fleet: FleetSpec,
        light_classes: Sequence[DeviceClass],
        heavy_classes: Sequence[DeviceClass],
    ) -> float:
        """Closed-form LP-relaxation bound of the fraction formulation.

        Every light worker costs the heavy pool its class's heavy capacity
        (nothing on light-only classes), so ``f`` can never exceed the heavy
        capacity that survives the cheapest light pool, divided by ``D``.
        Two relaxations each price that light pool from below:

        * ``demand_cover`` covers the light demand fractionally — light-only
          classes first, then ascending ``t2/t1``;
        * ``min_light_cover`` buys ``min_light_workers`` workers — light-only
          classes first, then ascending ``t2``.

        Any feasible light pool pays at least the larger of the two, so the
        bound subtracts their maximum.  On a single class this is the
        paper's closed form ``min(1, (S - max(min_light, D/t1)) * t2 / D)``.
        Integrality is relaxed, so this bounds the objective of any exactly
        feasible plan.  A warm sweep prunes every pair whose bound does not
        beat its best objective so far; :meth:`_pair_bound` falls back to it
        (at a demand relaxed by the solvers' tolerance) when a pair has more
        than one light-eligible class.
        """
        if demand <= 0:
            return -np.inf
        heavy_names = {d.name for d in heavy_classes}
        heavy_cap = sum(
            fleet.count_for(d.name) * self._heavy_throughput(b2, d) for d in heavy_classes
        )

        def heavy_cost(device: DeviceClass) -> float:
            if device.name not in heavy_names:
                return 0.0
            return self._heavy_throughput(b2, device)

        def cover(key, need: float, unit) -> float:
            """Heavy capacity spent buying ``need`` units greedily by ``key``."""
            spent = 0.0
            for device in sorted(light_classes, key=lambda d: (key(d), d.name)):
                if need <= 1e-12:
                    break
                per_worker = unit(device)
                if per_worker <= 0:
                    continue
                take = min(float(fleet.count_for(device.name)), need / per_worker)
                need -= take * per_worker
                spent += take * heavy_cost(device)
            return spent if need <= 1e-9 else np.inf

        def t1(device: DeviceClass) -> float:
            return self._light_throughput(b1, device)

        demand_cover = cover(
            lambda d: (d.name in heavy_names, heavy_cost(d) / max(t1(d), 1e-12)), demand, t1
        )
        min_light_cover = cover(
            lambda d: (d.name in heavy_names, heavy_cost(d)),
            float(self.min_light_workers),
            lambda d: 1.0,
        )
        spent = max(demand_cover, min_light_cover)
        if spent == np.inf:
            return -np.inf
        return min(1.0, max(0.0, heavy_cap - spent) / demand)

    def _pair_bound(
        self,
        b1: int,
        b2: int,
        demand: float,
        fleet: FleetSpec,
        light_classes: Sequence[DeviceClass],
        heavy_classes: Sequence[DeviceClass],
    ) -> float:
        """Upper bound on the heavy capacity, as a share of ``D`` and at most
        1, that survives every light pool the solvers accept for one batch
        pair (``-inf`` when they accept none).

        The solvers accept a light-throughput row that holds to within
        :data:`~repro.milp.problem.ACCEPT_TOL`, so the light pool need only
        cover ``D - ACCEPT_TOL``.  With exactly one light-eligible class the
        light pool is a whole number of its workers, at least ``max(min_light,
        ceil((D - ACCEPT_TOL) / t1))``, and every other worker may serve
        heavy.  Otherwise the bound is :meth:`_fraction_upper_bound` at the
        relaxed demand.  An accepted ``f`` may still exceed the bound by
        ``ACCEPT_TOL / D``, the heavy row's slack; :meth:`plan` adds it back
        before it reads a threshold off the bound.
        """
        relaxed = demand - ACCEPT_TOL
        if len(light_classes) != 1:
            return self._fraction_upper_bound(
                b1, b2, relaxed, fleet, light_classes, heavy_classes
            )
        (device,) = light_classes
        # 1e-9 absorbs the rounding of the quotient.
        light = max(
            self.min_light_workers,
            math.ceil(relaxed / self._light_throughput(b1, device) - 1e-9),
        )
        if light > fleet.count_for(device.name):
            return -np.inf
        heavy_capacity = sum(
            (fleet.count_for(d.name) - (light if d.name == device.name else 0))
            * self._heavy_throughput(b2, d)
            for d in heavy_classes
        )
        return min(1.0, heavy_capacity / demand)

    def plan(
        self, ctx: ControlContext, *, warm_start: Optional[AllocationPlan] = None
    ) -> AllocationPlan:
        """Solve the allocation problem for the given control context.

        The sweep visits the candidate batch pairs and keeps the plan with
        the largest :meth:`_plan_key`.  Before solving a pair it takes the
        pair's :meth:`_pair_bound` through the threshold grid: that is the
        best key the pair could reach, and a pair whose best key is below the
        current best plan's key is skipped, since it could never replace it.
        Cold sweeps visit the largest light batch first, so after the first
        solve every pair that cannot beat its threshold is skipped.

        ``warm_start`` carries the previous epoch's plan into the solve: the
        previous batch pair is visited first, the incumbent of every per-pair
        MILP is seeded from the (repaired) previous worker split, and a pair
        whose closed-form relaxation bound cannot strictly beat the best
        objective so far is skipped as well.  An incumbent whose objective
        already meets the pair bound is the pair's solution without a solve.
        Warm re-solves therefore often cost no solve at all, and objective ties
        resolve towards the previous plan (fewer worker reconfigurations).
        """
        demand = max(ctx.demand, 1e-3) * self.over_provision
        max_threshold = max(t for t, _ in self.threshold_grid)
        allocations = self._candidate_allocations(ctx, demand)
        self.last_warm_start_used = False
        self.last_solve_timed_out = False
        if warm_start is None:
            self.cold_solves += 1
        else:
            self.warm_solves += 1
            # Re-solve the previous plan's batch pair first: its solution is
            # the bound every other pair must beat.
            prev_pair = (warm_start.light_batch, warm_start.heavy_batch)
            head = [a for a in allocations if (a[0], a[1]) == prev_pair]
            allocations = head + [a for a in allocations if (a[0], a[1]) != prev_pair]

        best: Optional[AllocationPlan] = None
        best_classes: Tuple[List[DeviceClass], List[DeviceClass]] = ([], [])
        if self.force_solve_timeout and allocations:
            self.last_solve_timed_out = True
            allocations = []
        for b1, b2, light_classes, heavy_classes in allocations:
            if best is not None and best.threshold >= max_threshold:
                break
            if best is not None:
                bound = self._pair_bound(b1, b2, demand, ctx.fleet, light_classes, heavy_classes)
                # An accepted f may exceed the bound by the heavy row's slack.
                reach = (
                    -np.inf
                    if bound == -np.inf
                    else self._grid_threshold(min(1.0, bound + ACCEPT_TOL / demand))
                )
                if (reach, b1, b2) < self._plan_key(best):
                    self.pairs_pruned_by_bound += 1
                    continue
            warm_assignment = None
            if warm_start is not None:
                if best is not None and best.objective is not None:
                    relaxation = self._fraction_upper_bound(
                        b1, b2, demand, ctx.fleet, light_classes, heavy_classes
                    )
                    if relaxation <= best.objective + 1e-9:
                        self.pairs_pruned_by_bound += 1
                        continue
                warm_assignment = self._warm_assignment(
                    warm_start, b1, b2, demand, ctx, light_classes, heavy_classes
                )
            solution = self._solve_pair(
                ctx, b1, b2, demand, warm_assignment, light_classes, heavy_classes
            )
            if not solution.is_optimal:
                continue
            if solution.warm_start_used:
                self.warm_start_hits += 1
                self.last_warm_start_used = True
            plan = self._plan_from_solution(solution, b1, b2, light_classes, heavy_classes)
            if best is None or self._plan_key(plan) > self._plan_key(best):
                best = plan
                best_classes = (light_classes, heavy_classes)
        if best is None:
            return self._best_effort_plan(ctx)
        best = self._assign_spare_workers(best, ctx.fleet, *best_classes)
        best.residency = self._plan_residency(ctx)
        return best

    def _assign_spare_workers(
        self,
        plan: AllocationPlan,
        fleet: FleetSpec,
        light_classes: Sequence[DeviceClass],
        heavy_classes: Sequence[DeviceClass],
    ) -> AllocationPlan:
        """Idle devices are wasted; give spares to whichever pool is in use.

        Spare workers go to the heavy pool when the plan defers any queries
        (extra heavy capacity shrinks queueing delays), otherwise to the
        light pool.  The rule is per class and the order is pinned: classes
        are visited fastest first (ascending ``speed_factor``, ties broken by
        name), each class's spares join the preferred pool
        only if the class is eligible for it (memory and SLO), falling back
        to the other pool's eligibility, and stay idle when neither fits.
        """
        spare_total = fleet.total_workers - plan.total_workers
        if spare_total <= 0:
            return plan
        prefer_heavy = plan.heavy_fraction > 0 and plan.num_heavy > 0
        light_ok = {d.name for d in light_classes}
        heavy_ok = {d.name for d in heavy_classes}
        light = dict(plan.light_assignment)
        heavy = dict(plan.heavy_assignment)
        for device, count in sorted(
            fleet.devices, key=lambda dc: (dc[0].speed_factor, dc[0].name)
        ):
            name = device.name
            spare = count - light.get(name, 0) - heavy.get(name, 0)
            if spare <= 0:
                continue
            pools = ("heavy", "light") if prefer_heavy else ("light", "heavy")
            for pool in pools:
                if pool == "heavy" and name in heavy_ok:
                    heavy[name] = heavy.get(name, 0) + spare
                    break
                if pool == "light" and name in light_ok:
                    light[name] = light.get(name, 0) + spare
                    break
        plan.light_assignment = {k: v for k, v in light.items() if v}
        plan.heavy_assignment = {k: v for k, v in heavy.items() if v}
        return plan

    @staticmethod
    def _plan_key(plan: AllocationPlan) -> Tuple[float, int, int]:
        # Prefer higher threshold (the MILP objective); break ties towards
        # larger batches, which give more throughput headroom under bursts.
        return (plan.threshold, plan.light_batch, plan.heavy_batch)

    def _grid_threshold(self, fraction: float) -> float:
        """Largest grid threshold whose deferral fraction fits ``fraction``
        (the grid is the empirical ``f^{-1}``); 0 when none does."""
        candidates = [t for t, frac in self.threshold_grid if frac <= fraction + 1e-9]
        return max(candidates) if candidates else 0.0

    def _threshold_from_solution(self, solution) -> Tuple[float, float]:
        """Recover (threshold, deferred fraction) from either formulation."""
        if "f" in solution.values:
            threshold = self._grid_threshold(float(np.clip(solution.values["f"], 0.0, 1.0)))
            return threshold, self.deferral_profile.fraction(threshold)
        for k, (threshold, fraction) in enumerate(self.threshold_grid):
            if solution.values.get(f"z{k}", 0.0) > 0.5:
                return threshold, fraction
        return 0.0, 0.0

    def _best_effort_plan(self, ctx: ControlContext) -> AllocationPlan:
        """Overload fallback: serve everything with the light model, largest
        batch that fits the SLO on every hosting class, and accept every image
        (threshold 0).  Classes whose memory cannot hold the light model stay
        idle (plan() guarantees at least one class can host it)."""
        fleet = ctx.fleet
        hostable = [d for d in fleet.classes if d.can_host(self.light)]
        feasible_batches = [
            b
            for b in self.batch_candidates
            if max(self._light_execution(b, d) for d in hostable) <= ctx.slo
        ]
        batch = max(feasible_batches) if feasible_batches else max(self.batch_candidates)
        assignment = {d.name: fleet.count_for(d.name) for d in hostable}
        return AllocationPlan(
            light_assignment=assignment,
            heavy_assignment={},
            light_batch=batch,
            heavy_batch=1,
            threshold=0.0,
            heavy_fraction=0.0,
            feasible=False,
            objective=None,
        )
