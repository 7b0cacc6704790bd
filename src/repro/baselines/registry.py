"""The five compared systems as one record table (Table 1 of the paper).

Each :class:`SystemRecord` says what a system is (its Table 1 row) and what
sets it apart when built: its routing mode, its allocation policy and its
default over-provisioning factor.  :func:`build_system` applies the shared
recipe — dataset, discriminator and deferral defaults, then
:class:`~repro.core.config.SystemConfig`, then
:class:`~repro.core.system.ServingSimulation` — for every record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines.clipper import ClipperPolicy
from repro.baselines.proteus import ProteusPolicy
from repro.baselines.static_diffserve import PeakProvisionedPolicy
from repro.core.autoscaler import ScalePolicy
from repro.core.config import FleetSpec, ResourceConfig, RoutingMode, SystemConfig
from repro.core.policies import AllocationPolicy, make_diffserve_policy
from repro.core.pricing import PriceTrace
from repro.core.replanner import ReplanConfig
from repro.core.system import ServingSimulation
from repro.discriminators.base import Discriminator
from repro.discriminators.deferral import DeferralProfile
from repro.discriminators.training import train_default_discriminator
from repro.faults.plan import FaultPlan
from repro.models.dataset import QueryDataset, load_dataset
from repro.models.zoo import get_cascade

#: Integral-search-space cutoff below which re-planning systems hand the
#: per-pair MILP to the LP-free exhaustive solver.  A single-class cluster of
#: S workers has S * (S + 1) combinations (``x1 >= 1``, ``x2 >= 0``), so 64
#: covers S <= 7.
DEFAULT_EXHAUSTIVE_CUTOFF = 64


@dataclass(frozen=True)
class SystemRecord:
    """One compared system: its Table 1 row and what sets its build apart."""

    title: str
    description: str
    routing: RoutingMode
    #: Table 1's "Allocation" column: whether the policy re-plans every
    #: epoch (the built policy's ``dynamic`` flag).
    dynamic: bool
    #: ``make_policy(cascade, **inputs)``: the inputs are
    #: ``anticipated_peak_qps``, ``over_provision`` and the remaining keywords
    #: of :func:`~repro.core.policies.make_diffserve_policy`
    #: (``deferral_profile`` and ``discriminator_latency`` are ``None`` for
    #: query-agnostic systems); each factory takes what it needs.
    make_policy: Callable[..., AllocationPolicy]
    #: Default over-provisioning factor ``lambda`` on the estimated demand
    #: (1.05 per Section 3.3).
    over_provision: float = 1.05
    #: The adaptive DiffServe system: the only one that takes the ablation
    #: variants, the re-planning control plane and the autoscaler.
    adaptive: bool = False
    #: Provisioned once for ``anticipated_peak_qps``, which it then requires.
    peak_provisioned: bool = False

    @property
    def query_aware(self) -> bool:
        return self.routing is RoutingMode.CASCADE


def _diffserve(cascade, *, anticipated_peak_qps, **inputs) -> AllocationPolicy:
    """The DiffServe policy (or a Section 4.5 ablation) over its MILP allocator."""
    return make_diffserve_policy(cascade.light, cascade.heavy, **inputs)


def _peak_provisioned(cascade, *, anticipated_peak_qps, **inputs) -> AllocationPolicy:
    """The same MILP allocator, solved once for the anticipated peak."""
    allocator = make_diffserve_policy(cascade.light, cascade.heavy, **inputs).allocator
    return PeakProvisionedPolicy(allocator, anticipated_peak_qps)


SYSTEMS: Dict[str, SystemRecord] = {
    "clipper-light": SystemRecord(
        title="Clipper-Light",
        description="All queries served by the lightweight diffusion model.",
        routing=RoutingMode.SINGLE,
        dynamic=False,
        make_policy=lambda cascade, **_: ClipperPolicy(cascade.light),
    ),
    "clipper-heavy": SystemRecord(
        title="Clipper-Heavy",
        description="All queries served by the heavyweight diffusion model.",
        routing=RoutingMode.SINGLE,
        dynamic=False,
        make_policy=lambda cascade, **_: ClipperPolicy(cascade.heavy),
    ),
    "proteus": SystemRecord(
        title="Proteus",
        description="Demand-driven model scaling with random, content-agnostic routing.",
        routing=RoutingMode.RANDOM_SPLIT,
        dynamic=True,
        make_policy=lambda cascade, *, over_provision, **_: ProteusPolicy(
            cascade, over_provision=over_provision
        ),
        over_provision=1.1,
    ),
    "diffserve-static": SystemRecord(
        title="DiffServe-Static",
        description="Discriminator-based cascade provisioned statically for peak demand.",
        routing=RoutingMode.CASCADE,
        dynamic=False,
        make_policy=_peak_provisioned,
        peak_provisioned=True,
    ),
    "diffserve": SystemRecord(
        title="DiffServe",
        description="MILP-driven cascade with query-aware model scaling (this work).",
        routing=RoutingMode.CASCADE,
        dynamic=True,
        make_policy=_diffserve,
        adaptive=True,
    ),
}


def get_system(name: str) -> SystemRecord:
    """The record of system ``name``; an unknown name is a one-line ValueError."""
    try:
        return SYSTEMS[name]
    except KeyError:
        raise ValueError(f"unknown system {name!r}; known systems: {', '.join(SYSTEMS)}") from None


def build_system(
    cascade_name: str = "sdturbo",
    system: str = "diffserve",
    *,
    fleet: FleetSpec = FleetSpec.homogeneous(16),
    slo: Optional[float] = None,
    dataset: Optional[QueryDataset] = None,
    discriminator: Optional[Discriminator] = None,
    deferral_profile: Optional[DeferralProfile] = None,
    over_provision: Optional[float] = None,
    seed: int = 0,
    dataset_size: int = 1000,
    anticipated_peak_qps: Optional[float] = None,
    policy_variant: str = "full",
    static_threshold: float = 0.5,
    replan_epoch: Optional[float] = None,
    replan_policy: Optional[str] = None,
    resources: Optional[ResourceConfig] = None,
    faults: Optional[FaultPlan] = None,
    autoscale: Optional[ScalePolicy] = None,
    prices: Optional[PriceTrace] = None,
) -> ServingSimulation:
    """Build a ready-to-run system (a :data:`SYSTEMS` name) for a named cascade.

    This is the main public entry point.  It loads the cascade's dataset
    unless one is given.  Query-aware systems also train the discriminator
    (EfficientNet with ground-truth images) and profile their own deferral
    function unless one is given; query-agnostic systems do neither.

    ``fleet`` selects a typed (possibly heterogeneous) device fleet; the
    default is the paper's 16-device homogeneous testbed.  ``over_provision``
    overrides the system's default factor (``None`` keeps it; Clipper has no
    demand estimate and ignores it).  ``anticipated_peak_qps`` is the demand
    DiffServe-Static is provisioned for, and required for it.

    These options apply to the adaptive ``diffserve`` system only, and other
    systems ignore them:

    * ``policy_variant`` selects a Section 4.5 ablation
      (``"static-threshold"``, ``"aimd"``, ``"no-queueing"``), with
      ``static_threshold`` for the first;
    * ``replan_epoch`` / ``replan_policy`` ask for warm-started re-planning:
      the epoch defaults to 5 s and the policy to ``"periodic"`` when only
      one of the two is given (see
      :class:`~repro.core.replanner.ReplanConfig`);
    * ``autoscale`` attaches a :class:`~repro.core.autoscaler.ScalePolicy`
      evaluated at replan epochs (requires re-planning).

    Without re-planning options a system's control loop re-solves cold every
    5 s when its policy is dynamic, and never when it is not.

    ``resources`` attaches the multi-resource worker model
    (:class:`~repro.core.config.ResourceConfig`): residency-gated reloads over
    shared transfer bandwidth, result egress, and (when ``reload_aware``)
    reload-penalised, co-placement-pinning MILP plans.  ``faults`` attaches a
    deterministic fault plan (:class:`~repro.faults.plan.FaultPlan`) and
    ``prices`` a :class:`~repro.core.pricing.PriceTrace` metering
    time-integrated cost.  Each ``None`` keeps the feature off, bit-for-bit.
    """
    record = get_system(system)
    if record.peak_provisioned and anticipated_peak_qps is None:
        raise ValueError(f"{system} needs anticipated_peak_qps, the demand it is provisioned for")
    cascade = get_cascade(cascade_name)
    if dataset is None:
        dataset = load_dataset(cascade.dataset, n=dataset_size, seed=seed)
    if not record.query_aware:
        discriminator = deferral_profile = None
    else:
        if discriminator is None:
            discriminator = train_default_discriminator(
                dataset, cascade.light, cascade.heavy, seed=seed
            )
        if deferral_profile is None:
            deferral_profile = DeferralProfile.profile(
                discriminator, dataset, cascade.light, seed=seed
            )
    if not record.adaptive:
        policy_variant, replan_epoch, replan_policy, autoscale = "full", None, None, None
    if replan_epoch is not None or replan_policy is not None:
        replan = ReplanConfig(
            epoch=ReplanConfig.epoch if replan_epoch is None else float(replan_epoch),
            policy=replan_policy or "periodic",
        )
    elif autoscale is not None:
        raise ValueError(
            "autoscale requires the re-planning control plane "
            "(set replan_epoch/replan_policy): scale decisions are "
            "evaluated at replan epochs"
        )
    else:
        replan = ReplanConfig(policy="periodic" if record.dynamic else "static", warm_start=False)
    policy = record.make_policy(
        cascade,
        anticipated_peak_qps=anticipated_peak_qps,
        over_provision=record.over_provision if over_provision is None else over_provision,
        deferral_profile=deferral_profile,
        discriminator_latency=None if discriminator is None else discriminator.latency_s,
        variant=policy_variant,
        static_threshold=static_threshold,
        # Re-planning systems also enable the exhaustive fallback for small
        # clusters.
        exhaustive_cutoff=DEFAULT_EXHAUSTIVE_CUTOFF if replan.warm_start else 0,
    )
    config = SystemConfig(
        cascade=cascade,
        fleet=fleet,
        slo=slo,
        routing=record.routing,
        seed=seed,
        resources=resources,
    )
    return ServingSimulation(
        config=config,
        dataset=dataset,
        policy=policy,
        discriminator=discriminator,
        initial_demand=anticipated_peak_qps if record.peak_provisioned else 1.0,
        replan=replan,
        name=system if policy_variant == "full" else f"{system}-{policy_variant}",
        faults=faults,
        autoscale=autoscale,
        prices=prices,
    )


def baseline_table_rows() -> List[Tuple[str, str, str]]:
    """Rows of Table 1: (Approach, Allocation, Query-aware)."""
    return [
        (r.title, "Dynamic" if r.dynamic else "Static", "Yes" if r.query_aware else "No")
        for r in SYSTEMS.values()
    ]


def render_baseline_table() -> str:
    """Plain-text rendering of Table 1."""
    # Local import: the harness builds its comparisons through this module.
    from repro.experiments.harness import format_table

    return format_table(("Approach", "Allocation", "Query-aware"), baseline_table_rows())
