"""Declarative studies: one grid of arms, compared on a plane.

DiffServe's claims, and the paper's sweep figures, come from serving one
grid of cells and comparing the results on a pair of minimised metrics.  Each
study is one :class:`Study` record in :data:`STUDIES`: the shared spec fields,
the rule that sizes the nominal rate, the arm list (a table row key plus the
:class:`~repro.runner.spec.ExperimentSpec` fields the arm overrides), the
table columns and the named claims.  :func:`run_study` serves every arm as
one cell of a single :func:`~repro.runner.executor.run_grid` call, so every
``repro <study>`` inherits the runner's determinism and caching guarantees;
:func:`main` renders any study.  All arms of a study share one sampled
arrival trace per workload (the trace is a function of the workload spec and
seed, never of an arm's override), so differences come from the arm alone.

``fleet``
    Homogeneous vs. mixed device fleets at equal aggregate cost (in
    A100-hours, the catalog's unit).  Cheap slow devices (L4) can absorb the
    lightweight model's bulk traffic while a fast tier keeps the heavyweight
    model inside the SLO; the claim is that some mixed fleet matches or
    Pareto-dominates the all-A100 reference on (SLO violation, FID).
``geo``
    Multi-region serving through the shard supervisor: per topology, the
    merged headline metrics (computed exactly as serial) at a nominal rate
    the runner scales with the topology's device count.
``contention``
    Reload-aware vs. reload-oblivious planning under flash-crowd re-planning.
    When both checkpoints co-fit in device memory, co-placement makes the
    reload resource a non-issue and the arms are indistinguishable; when they
    cannot co-reside, every pool flip pays a weight transfer and the
    reload-aware plan Pareto-dominates on (SLO violation, p99 latency).  The
    deferral threshold is pinned so both plans target identical quality.
``chaos``
    Self-healing recovery vs. unmitigated faults under the ``storm`` plan
    (two permanent crashes plus two 6x straggler windows overlapping a flash
    crowd).  Recovery must Pareto-dominate no-recovery on (SLO violation, p99
    latency), and the unmitigated arm must still degrade gracefully: it
    completes work and counts its losses as drops.
``autoscale``
    Fixed provisioning vs. reactive vs. cost-aware autoscaling on spot
    markets.  All arms of a workload share one deterministic price trace, so
    cost differences come from scaling decisions, never from market luck; the
    claim is that cost-aware scaling strictly dominates the fixed
    equal-peak-cost fleet on (time-integrated cost, SLO violation).

``fig4``
    Figure 4: every system on constant-rate traces at three load levels,
    with Proteus and DiffServe swept over their over-provisioning factor.
    The claim, per load level, is that some DiffServe point is not dominated
    by any baseline point on (SLO violation, FID).  Swap the study's
    ``workload`` to repeat the comparison under production-shaped load.
``fig6``
    Figure 6: the five systems on the Azure-like trace for Cascades 2
    (SDXS -> SDv1.5) and 3 (SDXL-Lightning -> SDXL), one cell per cascade.
``fig8``
    Figure 8: DiffServe's allocation against three crippled variants — a
    pinned threshold, AIMD batching, and no queueing model.
``fig9``
    Figure 9: DiffServe across SLO settings on the Azure-like trace.

``drift`` is not a study here: it reads per-epoch re-planning history that
cached summaries do not carry, so it drives its systems directly.  Nor is
``fig5``: it plots live per-window time series that summaries do not carry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import fleet_from_counts
from repro.experiments.harness import BENCH_SCALE, ExperimentScale, format_table
from repro.metrics.pareto import ParetoPoint, is_pareto_dominated, pareto_frontier
from repro.runner import executor
from repro.runner.spec import ExperimentGrid, ExperimentSpec, TraceSpec

Row = Tuple[str, ...]

#: The plane the SLO claims are judged on, both metrics minimised.
SLO_PLANE = ("slo_violation_ratio", "p99_latency")


def matches_or_dominates(
    a: Mapping[str, float], b: Mapping[str, float], metrics: Sequence[str], tol: float = 1e-9
) -> bool:
    """Whether summary ``a`` is no worse than ``b`` on every minimised metric.

    True when ``a`` matches or Pareto-dominates ``b``; ``tol`` absorbs float
    noise.
    """
    return all(a[metric] <= b[metric] + tol for metric in metrics)


@dataclass(frozen=True)
class Arm:
    """One cell of a study: its table row key and the spec fields it sets.

    ``fields`` are :class:`~repro.runner.spec.ExperimentSpec` fields, plus
    ``workload`` for the trace kind and ``qps`` for a nominal rate on the
    paper's 16-worker testbed (scaled to the cluster); they override the
    study's shared ``spec``.  The last row key names the arm within its
    group (the first row key, e.g. the workload).
    """

    row: Row
    fields: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Claim:
    """A named verdict: ``holds(result, group)`` picks the ``yes`` or ``no`` line.

    A ``per_group`` claim is judged once per group and its lines are
    ``str.format`` templates over :meth:`StudyResult.verdict_fields`; any
    other claim is judged once with ``group=None``.
    """

    holds: Callable[["StudyResult", Optional[str]], bool]
    yes: str
    no: str
    per_group: bool = False


Column = Tuple[str, Callable[["StudyResult", Row], object]]


@dataclass(frozen=True)
class Study:
    """One study: the arms it serves and how its table and verdicts read.

    ``spec`` holds the shared spec fields (``workload`` names the trace
    kind; without one, cells replay the default Azure-like trace).
    ``workers`` overrides the scale's cluster size.  With
    ``qps_fraction`` set, the nominal rate is that fraction of the top of the
    cascade's default range for the first arm's cluster; otherwise the
    runner's workload resolution picks it.  ``plane`` is the metric pair the
    group reference is compared on (``winners``, ``front``).  A set
    ``cost_tolerance`` requires every arm's fleet to cost within it of the
    first arm's.  ``appendix(scale)`` renders a section after the verdicts.
    """

    name: str
    description: str
    title: str
    arms: Tuple[Arm, ...]
    columns: Tuple[Column, ...]
    spec: Mapping[str, object] = field(default_factory=dict)
    workers: Optional[int] = None
    qps_fraction: Optional[float] = None
    plane: Tuple[str, str] = SLO_PLANE
    claims: Mapping[str, Claim] = field(default_factory=dict)
    cost_tolerance: Optional[float] = None
    appendix: Optional[Callable[[ExperimentScale], str]] = None


@dataclass
class StudyResult:
    """Every row's summary and cell spec, keyed by row tuple in arm order.

    An arm whose cell serves one system is one row; an arm whose cell serves
    several contributes one row per system, its own row plus the system name.
    """

    study: Study
    qps: Optional[float]
    summaries: Dict[Row, Dict[str, float]]
    specs: Dict[Row, ExperimentSpec] = field(default_factory=dict)

    def summary(self, *row: str) -> Dict[str, float]:
        """The summary of one row."""
        return self.summaries[row]

    def system(self, row: Row) -> str:
        """The system that produced ``row``."""
        systems = self.specs[row].systems
        return systems[0] if len(systems) == 1 else row[-1]

    def holds(self, claim: str, group: Optional[str] = None) -> bool:
        """Whether the study's named claim holds (for ``group``, if per group)."""
        return self.study.claims[claim].holds(self, group)

    def groups(self) -> List[str]:
        """First row keys, in arm order."""
        return list(dict.fromkeys(row[0] for row in self.summaries))

    def _group(self, group: str) -> Dict[str, Dict[str, float]]:
        return {row[-1]: s for row, s in self.summaries.items() if row[0] == group}

    def reference(self, group: str) -> str:
        """The group's first arm: what its other arms are compared against."""
        return next(iter(self._group(group)))

    def winners(self, group: str) -> List[str]:
        """Other arms of ``group`` matching or dominating its reference on the plane."""
        (_, reference), *others = self._group(group).items()
        return [
            name
            for name, summary in others
            if matches_or_dominates(summary, reference, self.study.plane)
        ]

    def front(self, group: str) -> List[str]:
        """Arms of ``group`` on the Pareto front of the plane."""
        x, y = self.study.plane
        points = [
            ParetoPoint(summary[x], summary[y], payload=name)
            for name, summary in self._group(group).items()
        ]
        return [point.payload for point in pareto_frontier(points)]

    def saving(self, *row: str) -> float:
        """Fractional ``fleet_cost`` saving of ``row`` vs. its group's reference."""
        reference = self.summary(row[0], self.reference(row[0]))["fleet_cost"]
        if reference <= 0:
            return 0.0
        return 1.0 - self.summary(*row)["fleet_cost"] / reference

    def verdict_fields(self, group: str) -> Dict[str, object]:
        """Template fields of a per-group verdict line."""
        return {
            "group": group,
            "reference": self.reference(group),
            "winners": ", ".join(self.winners(group)),
            "front": ", ".join(self.front(group)),
            "saving": {name: self.saving(group, name) for name in self._group(group)},
        }


def check_equal_cost(arms: Sequence[Arm], tolerance: float) -> None:
    """Fail unless every arm's fleet costs within ``tolerance`` of the first's.

    An unequal-cost comparison would be meaningless, so a drifting fleet
    fails with a one-line error naming it.
    """
    (ref_name, ref), *others = [
        (arm.row[-1], fleet_from_counts(dict(arm.fields["fleet"]))) for arm in arms
    ]
    for name, fleet in others:
        drift = abs(fleet.total_cost - ref.total_cost) / ref.total_cost
        if drift > tolerance:
            raise ValueError(
                f"fleet {name!r}: cost {fleet.total_cost:.1f} is {drift:.0%} from the "
                f"reference {ref_name!r} ({ref.total_cost:.1f}); "
                f"equal-cost comparison requires <= {tolerance:.0%}"
            )


def run_study(
    study: Study,
    cascade_name: str = "sdturbo",
    scale: ExperimentScale = BENCH_SCALE,
    *,
    jobs: int = 1,
    use_cache: bool = True,
) -> StudyResult:
    """Serve every arm of ``study`` through one cached parallel grid run.

    ``cascade_name`` is the cascade of every arm that does not set its own.
    """
    from repro.workloads import cascade_qps_range, scale_to_cluster

    if study.cost_tolerance is not None:
        check_equal_cost(study.arms, study.cost_tolerance)
    if study.workers is not None:
        scale = replace(scale, num_workers=study.workers)
    cells = [{"cascade": cascade_name, **study.spec, **arm.fields} for arm in study.arms]
    qps = None
    if study.qps_fraction is not None:
        fleet = cells[0].get("fleet")
        workers = fleet_from_counts(dict(fleet)).total_workers if fleet else scale.num_workers
        qps = study.qps_fraction * cascade_qps_range(cells[0]["cascade"], workers)[1]
    specs = []
    for cell in cells:
        rate = cell.pop("qps", None)
        trace = TraceSpec(
            kind=cell.pop("workload", TraceSpec.kind),
            qps=qps if rate is None else scale_to_cluster(rate, scale.num_workers),
        )
        specs.append(ExperimentSpec(scale=scale, trace=trace, **cell))
    report = executor.run_grid(ExperimentGrid.of(specs), jobs=jobs, use_cache=use_cache)
    if report.failed:
        details = "; ".join(f"{cell.spec.label}: {cell.status}" for cell in report.failed)
        raise RuntimeError(f"{study.name} study cells failed: {details}")
    result = StudyResult(study=study, qps=qps, summaries={})
    for arm, spec, cell in zip(study.arms, specs, report.cells):
        for system in spec.systems:
            row = arm.row if len(spec.systems) == 1 else (*arm.row, system)
            result.summaries[row] = dict(cell.summaries[system])
            result.specs[row] = spec
    return result


def main(name: str, scale: ExperimentScale = BENCH_SCALE) -> str:
    """Run study ``name`` and print its title, per-arm table and verdicts."""
    study = STUDIES[name]
    result = run_study(study, scale=scale)
    verdicts = []
    for claim in study.claims.values():
        for group in result.groups() if claim.per_group else [None]:
            line = claim.yes if claim.holds(result, group) else claim.no
            verdicts.append(
                line.format(**result.verdict_fields(group)) if claim.per_group else line
            )
    sections = [
        study.title.format(qps=result.qps),
        format_table(
            [header for header, _ in study.columns],
            [[value(result, row) for _, value in study.columns] for row in result.summaries],
        ),
        *verdicts,
    ]
    if study.appendix is not None:
        sections += ["", study.appendix(scale)]
    output = "\n".join(sections)
    print(output)
    return output


def shard_timing_report(
    cascade_name: str = "sdturbo",
    scale: ExperimentScale = BENCH_SCALE,
    *,
    topology: str = "us-eu",
    workload: str = "diurnal",
    shards: int = 1,
    duration: float = 60.0,
) -> str:
    """Per-shard event-loop timing table from one direct (uncached) run.

    Wall-clock telemetry must never enter the runner's cached summaries — a
    cache hit would replay a stale machine's timings and break byte-identity
    — so this report drives a :class:`~repro.core.sharding.ShardSupervisor`
    directly and reads its :attr:`shard_timing` / :attr:`barrier_seconds`,
    which exist only on the live supervisor object.
    """
    from repro.core.config import FleetSpec
    from repro.core.sharding import ShardSupervisor
    from repro.baselines.registry import build_system
    from repro.runner.dimensions import DIMENSIONS
    from repro.workloads import cascade_qps_range, make_workload

    topo = DIMENSIONS["geo"].lookup(topology)
    template = build_system(
        cascade_name,
        fleet=FleetSpec.homogeneous(scale.num_workers),
        dataset_size=scale.dataset_size,
        seed=scale.seed,
    )
    # Arm the per-region event-loop profiler: summaries are byte-identical
    # with profiling on or off, and this report is never cached.
    template.profile = True
    trace = make_workload(
        workload,
        duration=min(duration, scale.trace_duration),
        qps_range=cascade_qps_range(cascade_name, topo.total_workers),
        seed=scale.seed,
    )
    supervisor = ShardSupervisor(template=template, topology=topo, shards=shards)
    supervisor.run(trace)
    rows: List[list] = []
    for region, timing in supervisor.shard_timing.items():
        events = timing["events_fired"]
        seconds = timing["advance_seconds"]
        rows.append(
            [
                region,
                int(events),
                seconds,
                events / seconds if seconds > 0 else float("inf"),
            ]
        )
    from repro.simulator.profiling import format_profile_table

    sections = [
        f"Shard event-loop timing — topology={topology} shards={shards} "
        f"(barrier wait {supervisor.barrier_seconds:.3f}s; "
        "wall-clock telemetry only, never cached)",
        format_table(["region", "events", "advance (s)", "events/s"], rows),
    ]
    for region in sorted(supervisor.shard_profiles):
        sections.append("")
        sections.append(
            format_profile_table(
                supervisor.shard_profiles[region],
                top=8,
                title=f"region {region} event-loop profile",
            )
        )
    return "\n".join(sections)


# --------------------------------------------------------------- the studies
def _key(index: int) -> Callable[[StudyResult, Row], object]:
    return lambda result, row: row[index]


def _metric(name: str) -> Callable[[StudyResult, Row], object]:
    return lambda result, row: result.summaries[row][name]


def _count(name: str) -> Callable[[StudyResult, Row], object]:
    return lambda result, row: int(result.summaries[row][name])


def _over_provision(result: StudyResult, row: Row) -> str:
    factor = result.specs[row].params_dict().get("over_provision")
    return "-" if factor is None else f"{factor:g}"


def _devices(counts: Mapping[str, int]) -> str:
    return "+".join(f"{cls}x{count}" for cls, count in counts.items())


_VIOLATION = ("SLO viol", _metric("slo_violation_ratio"))
_P99 = ("p99 (s)", _metric("p99_latency"))
_MEAN = ("mean (s)", _metric("mean_latency"))
_FID = ("FID", _metric("fid"))
_DONE = ("done", _count("completed"))
_DROP = ("drop", _count("dropped"))

#: Adaptive re-planning every 3 s: short enough that a flash crowd triggers
#: several pool flips, and the cadence of fault repair and scale decisions.
EPOCH = 3.0
_ADAPTIVE = (("replan_epoch", EPOCH), ("replan_policy", "adaptive"))

#: Candidate fleets at (approximately) equal aggregate cost.  The first is
#: the homogeneous reference every mixed fleet is compared against.
FLEETS: Tuple[Tuple[str, Dict[str, int]], ...] = (
    ("a100x16", {"a100": 16}),              # 16.0 A100-h: the paper's testbed
    ("h100+l4", {"h100": 7, "l4": 11}),     # 15.9 A100-h: fast tier + cheap bulk
    ("a100+l4", {"a100": 10, "l4": 20}),    # 16.0 A100-h: mid tier + cheap bulk
)

#: Relative cost slack allowed between the reference and any candidate fleet.
FLEET_COST_TOLERANCE = 0.07

#: Checkpoint pair for the contended scenario: together they exceed an 80 GB
#: device, so light and heavy can never be co-resident and every pool flip
#: pays a transfer (30/16 = 1.9 s, 60/16 = 3.75 s on the baseline class).
CONTENDED_WEIGHTS: Dict[str, float] = {"sd-turbo": 30.0, "sd-v1.5": 60.0}

#: Tolerance for the "co-placement neutralizes reloads" check: the co-fit
#: arms may differ only by float noise.
NEUTRAL_TOL = 1e-6

#: Cluster size the storm scenario is designed against: the catalog ``storm``
#: crashes workers 1 and 3 and slows workers 0 and 2, so a 6-worker fleet
#: loses a third of its capacity outright and another third to stragglers —
#: large enough to survive with recovery, small enough that the faults bite.
STORM_NUM_WORKERS = 6

#: Mixed fleet the autoscale study scales: an on-demand A100 anchor plus a
#: cheap L4 spot tier the cost-aware policy can actually evict.  Small enough
#: that scale decisions bite, heterogeneous so the MILP's price tie-break
#: engages.
AUTOSCALE_FLEET: Tuple[Tuple[str, int], ...] = (("a100", 2), ("l4", 4))

#: (workload kind, ``--prices`` spelling) market scenarios.  The diurnal
#: workload rides the calm diurnal spot market; the flash crowd hits the same
#: market with two price surges (a "spot storm") overlapping the crowd.
MARKETS: Tuple[Tuple[str, str], ...] = (
    ("diurnal", "spot-diurnal"),
    ("flash-crowd", "spot-storm"),
)

#: (arm name, ``--autoscale`` spelling): no autoscaler (the equal-peak-cost
#: fleet held all run), price-blind scaling on load and violations, and
#: scaling that weights device classes by effective spot price.
POLICIES: Tuple[Tuple[str, Optional[str]], ...] = (
    ("fixed", None),
    ("reactive", "reactive"),
    ("cost-aware", "cost-aware"),
)


#: Figure 4's (load level, QPS) pairs for Cascade 1 on the 16-worker testbed.
LOAD_LEVELS: Tuple[Tuple[str, float], ...] = (("low", 8.0), ("medium", 16.0), ("high", 26.0))

#: Over-provisioning factors Figure 4 sweeps for the dynamic systems.
OVER_PROVISION: Tuple[float, ...] = (1.0, 1.2, 1.5, 2.0)

#: SLO values (seconds) Figure 9 sweeps for Cascade 1.
SLOS: Tuple[float, ...] = (2.0, 3.0, 4.0, 5.0, 7.0, 10.0)


def load_arms(factors: Sequence[float] = OVER_PROVISION) -> Tuple[Arm, ...]:
    """Figure 4's arms: per load level, both Clipper baselines in one cell,
    then Proteus and DiffServe at each over-provisioning factor."""
    arms = []
    for load, qps in LOAD_LEVELS:
        arms.append(Arm((load,), {"qps": qps, "systems": ("clipper-light", "clipper-heavy")}))
        arms.extend(
            Arm(
                (load, f"{system} x{factor:g}"),
                {
                    "qps": qps,
                    "systems": (system,),
                    "params": (("over_provision", float(factor)),),
                },
            )
            for factor in factors
            for system in ("proteus", "diffserve")
        )
    return tuple(arms)


def slo_arms(slos: Sequence[float] = SLOS) -> Tuple[Arm, ...]:
    """Figure 9's arms: one DiffServe cell per SLO."""
    return tuple(Arm((f"{slo:.1f}",), {"params": (("slo", float(slo)),)}) for slo in slos)


def _diffserve_pareto_optimal(result: StudyResult, group: Optional[str]) -> bool:
    # At least one DiffServe point is not dominated by any baseline point.
    x, y = result.study.plane
    ours, others = [], []
    for row, summary in result.summaries.items():
        if row[0] == group:
            point = ParetoPoint(summary[x], summary[y])
            (ours if result.system(row) == "diffserve" else others).append(point)
    return any(not is_pareto_dominated(point, others) for point in ours)


def _reload_aware_dominates(result: StudyResult, group: Optional[str]) -> bool:
    return matches_or_dominates(
        result.summary("contended", "aware"), result.summary("contended", "oblivious"), SLO_PLANE
    )


def _coplacement_neutralizes(result: StudyResult, group: Optional[str]) -> bool:
    # With both checkpoints pinned co-resident (or simply never evicted),
    # reload awareness has nothing left to optimise: each arm matches the other.
    aware = result.summary("cofit", "aware")
    oblivious = result.summary("cofit", "oblivious")
    return matches_or_dominates(aware, oblivious, SLO_PLANE, NEUTRAL_TOL) and (
        matches_or_dominates(oblivious, aware, SLO_PLANE, NEUTRAL_TOL)
    )


def _recovery_dominates(result: StudyResult, group: Optional[str]) -> bool:
    return matches_or_dominates(
        result.summary("recovery"), result.summary("norecovery"), SLO_PLANE
    )


def _degrades_gracefully(result: StudyResult, group: Optional[str]) -> bool:
    norecovery = result.summary("norecovery")
    return norecovery["completed"] > 0 and norecovery["dropped"] > 0


def _cost_aware_dominates(result: StudyResult, group: Optional[str]) -> bool:
    fixed = result.summary(group, "fixed")
    aware = result.summary(group, "cost-aware")
    return aware["fleet_cost"] < fixed["fleet_cost"] and matches_or_dominates(
        aware, fixed, result.study.plane
    )


STUDIES: Dict[str, Study] = {
    study.name: study
    for study in (
        Study(
            name="fleet",
            description="Heterogeneous fleets: homogeneous vs. mixed at equal aggregate cost",
            title="Heterogeneous fleets at equal cost — DiffServe @ {qps:g} qps nominal",
            spec={"systems": ("diffserve",)},
            # Near the top of the default range for a cluster the size of
            # the reference fleet: heterogeneity only pays off when capacity
            # binds and the allocator must trade threshold for throughput.
            qps_fraction=0.75,
            arms=tuple(
                Arm((kind, name), {"workload": kind, "fleet": tuple(counts.items())})
                for kind in ("mmpp", "diurnal")
                for name, counts in FLEETS
            ),
            cost_tolerance=FLEET_COST_TOLERANCE,
            plane=("slo_violation_ratio", "fid"),
            columns=(
                ("workload", _key(0)),
                ("fleet", _key(1)),
                ("devices", lambda r, row: _devices(r.specs[row].resolve_fleet().as_counts())),
                # The controller's time-integrated cost ledger (A100-hours):
                # what the run actually held, transitions included.
                ("cost", _metric("fleet_cost")),
                ("workers", lambda r, row: r.specs[row].resolve_fleet().total_workers),
                _FID,
                _VIOLATION,
                _P99,
                ("front", lambda r, row: "yes" if row[1] in r.front(row[0]) else ""),
            ),
            claims={
                "mixed-fleet": Claim(
                    lambda r, group: bool(r.winners(group)),
                    yes="{group}: mixed fleet(s) {winners} match or Pareto-dominate "
                    "{reference} at equal aggregate cost",
                    no="{group}: no mixed fleet dominates {reference}; front = {front}",
                    per_group=True,
                ),
            },
        ),
        Study(
            name="geo",
            description="Geo-scale serving: multi-region topologies through the shard supervisor",
            title="Geo-scale serving — shards=1 (summaries are shard-count-invariant)",
            spec={"systems": ("diffserve",), "workload": "diurnal"},
            arms=tuple(Arm((name,), {"geo": name}) for name in ("single", "us-eu", "global-4")),
            columns=(
                ("topology", _key(0)),
                ("regions", lambda r, row: len(r.specs[row].resolve("geo"))),
                ("workers", lambda r, row: r.specs[row].resolve("geo").total_workers),
                ("system", StudyResult.system),
                ("queries", _count("total_queries")),
                _FID,
                _VIOLATION,
                _P99,
            ),
            appendix=lambda scale: shard_timing_report(scale=scale),
        ),
        Study(
            name="contention",
            description="Reload/inference contention: reload-aware vs. reload-oblivious plans",
            title="Reload/inference contention — DiffServe flash-crowd @ {qps:g} qps "
            "nominal, adaptive re-planning, pinned threshold",
            spec={
                "systems": ("diffserve",),
                "workload": "flash-crowd",
                "params": (("policy_variant", "static-threshold"), *_ADAPTIVE),
            },
            # High enough that the burst forces heavy workers back to the
            # light pool (and back again afterwards): the flips at stake.
            qps_fraction=0.6,
            # ``legacy`` keeps the pre-resource execution model as the
            # reference point; ``cofit`` uses the catalog footprints, which
            # co-reside in an 80 GB device.
            arms=(
                Arm(("legacy", "legacy")),
                Arm(("cofit", "oblivious"), {"resources": "oblivious"}),
                Arm(("cofit", "aware"), {"resources": "default"}),
                Arm(
                    ("contended", "oblivious"),
                    {
                        "resources": json.dumps(
                            {**CONTENDED_WEIGHTS, "reload_aware": False}, sort_keys=True
                        )
                    },
                ),
                Arm(
                    ("contended", "aware"),
                    {"resources": json.dumps(CONTENDED_WEIGHTS, sort_keys=True)},
                ),
            ),
            columns=(
                ("scenario", _key(0)),
                ("arm", _key(1)),
                _VIOLATION,
                _P99,
                _MEAN,
                _FID,
                _DONE,
                _DROP,
            ),
            claims={
                "co-placement": Claim(
                    _coplacement_neutralizes,
                    yes="co-fit: co-placement pinning neutralizes reloads (aware == oblivious)",
                    no="co-fit: arms UNEXPECTEDLY diverge despite co-placement",
                ),
                "reload-aware": Claim(
                    _reload_aware_dominates,
                    yes="contended: reload-aware plans Pareto-dominate reload-oblivious plans "
                    "on (SLO violation, p99 latency)",
                    no="contended: reload-aware plans do NOT dominate in this configuration",
                ),
            },
        ),
        Study(
            name="chaos",
            description="Fault injection: self-healing recovery vs. unmitigated faults",
            title="Fault injection — DiffServe flash-crowd @ {qps:g} qps nominal, "
            f"{STORM_NUM_WORKERS} workers, adaptive re-planning",
            spec={"systems": ("diffserve",), "workload": "flash-crowd", "params": _ADAPTIVE},
            workers=STORM_NUM_WORKERS,
            qps_fraction=0.6,
            arms=(
                Arm(("baseline",)),
                Arm(("recovery",), {"faults": "storm"}),
                Arm(("norecovery",), {"faults": "storm-norecovery"}),
            ),
            columns=(
                ("arm", _key(0)),
                ("faults", lambda r, row: r.specs[row].faults or "-"),
                _VIOLATION,
                _P99,
                _MEAN,
                _DONE,
                _DROP,
            ),
            claims={
                "recovery": Claim(
                    _recovery_dominates,
                    yes="storm: recovery Pareto-dominates no-recovery on "
                    "(SLO violation, p99 latency)",
                    no="storm: recovery does NOT dominate in this configuration",
                ),
                "graceful": Claim(
                    _degrades_gracefully,
                    yes="storm: unmitigated faults degrade gracefully "
                    "(drops, completes, no crash)",
                    no="storm: unmitigated arm FAILED to degrade gracefully",
                ),
            },
        ),
        Study(
            name="autoscale",
            description="Elastic fleets: fixed vs. reactive vs. cost-aware autoscaling "
            "on spot markets",
            title="Elastic fleets — DiffServe @ {qps:g} qps nominal, "
            f"fleet {_devices(dict(AUTOSCALE_FLEET))}, adaptive re-planning every {EPOCH:g}s",
            spec={"systems": ("diffserve",), "params": _ADAPTIVE, "fleet": AUTOSCALE_FLEET},
            # The scale names the cluster the fleet runs.
            workers=sum(count for _, count in AUTOSCALE_FLEET),
            # Sized so the diurnal trough leaves real slack for scale-in
            # while the peak binds.
            qps_fraction=0.45,
            arms=tuple(
                Arm((kind, name), {"workload": kind, "prices": prices, "autoscale": policy})
                for kind, prices in MARKETS
                for name, policy in POLICIES
            ),
            plane=("fleet_cost", "slo_violation_ratio"),
            columns=(
                ("workload", _key(0)),
                ("policy", _key(1)),
                ("market", lambda r, row: r.specs[row].prices),
                ("cost (A100-h)", _metric("fleet_cost")),
                ("saving", lambda r, row: f"{r.saving(*row):.0%}"),
                _VIOLATION,
                _FID,
                _P99,
            ),
            claims={
                "cost-aware": Claim(
                    _cost_aware_dominates,
                    yes="{group}: cost-aware autoscaling strictly dominates the fixed "
                    "equal-peak-cost fleet on (cost, SLO violation)",
                    no="{group}: cost-aware does NOT dominate the fixed fleet here "
                    "(saving {saving[cost-aware]:.0%})",
                    per_group=True,
                ),
            },
        ),
        Study(
            name="fig4",
            description="Figure 4 static-trace comparison",
            title="Figure 4 — static-trace comparison (Cascade 1) per load level",
            spec={"workload": "static"},
            arms=load_arms(),
            plane=("slo_violation_ratio", "fid"),
            columns=(
                ("load", _key(0)),
                ("QPS", lambda r, row: f"{r.specs[row].trace.qps:g}"),
                ("system", StudyResult.system),
                ("over-provision", _over_provision),
                ("SLO violation", _metric("slo_violation_ratio")),
                _FID,
            ),
            claims={
                "pareto": Claim(
                    _diffserve_pareto_optimal,
                    yes="{group} load: DiffServe is Pareto-optimal on (SLO violation, FID)",
                    no="{group} load: DiffServe is NOT Pareto-optimal; front = {front}",
                    per_group=True,
                ),
            },
        ),
        Study(
            name="fig6",
            description="Figure 6 Cascades 2 & 3 comparison",
            title="Figure 6 — Cascades 2 and 3 on the Azure-like trace",
            arms=tuple(Arm((cascade,), {"cascade": cascade}) for cascade in ("sdxs", "sdxlltn")),
            columns=(
                ("cascade", _key(0)),
                ("system", StudyResult.system),
                ("avg FID", _metric("fid")),
                ("avg SLO violation", _metric("slo_violation_ratio")),
            ),
        ),
        Study(
            name="fig8",
            description="Figure 8 resource-allocation ablation",
            title="Figure 8 — resource-allocation ablation (Cascade 1, Azure-like trace)",
            spec={"systems": ("diffserve",)},
            arms=(
                Arm(("diffserve",), {"params": (("policy_variant", "full"),)}),
                Arm(
                    ("static-threshold",),
                    {"params": (("policy_variant", "static-threshold"), ("static_threshold", 0.5))},
                ),
                Arm(("aimd",), {"params": (("policy_variant", "aimd"),)}),
                Arm(("no-queuing-model",), {"params": (("policy_variant", "no-queueing"),)}),
            ),
            columns=(
                ("allocation", _key(0)),
                _FID,
                ("SLO violation", _metric("slo_violation_ratio")),
                ("deferral", _metric("deferral_rate")),
            ),
        ),
        Study(
            name="fig9",
            description="Figure 9 SLO sensitivity",
            title="Figure 9 — SLO sensitivity (Cascade 1)",
            spec={"systems": ("diffserve",)},
            arms=slo_arms(),
            columns=(
                ("SLO (s)", _key(0)),
                ("avg FID", _metric("fid")),
                ("avg SLO violation", _metric("slo_violation_ratio")),
            ),
        ),
    )
}
