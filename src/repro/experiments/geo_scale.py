"""Geo-scale study: multi-region serving through the shard supervisor.

The paper evaluates DiffServe on one 16-GPU cluster; production text-to-image
services run fleets of regional clusters behind latency-aware routing.  This
study serves the same cascade over a geo topology
(:data:`repro.core.geo.GEO_TOPOLOGIES`) and reports, per topology: the merged
headline metrics (computed exactly as serial — the shard supervisor's
determinism contract), the per-region breakdown, and the number of queries
the router spilled to remote regions.

Every arm is one grid cell of the parallel runner with ``geo``/``shards`` as
cached dimensions, so ``repro geo`` inherits the runner's cache and the
``--shards N`` byte-identity guarantee: re-running with a different shard
count changes wall-clock, never a number in the tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.harness import BENCH_SCALE, ExperimentScale, format_table

#: Topologies compared by default, smallest to largest.
DEFAULT_TOPOLOGIES: Tuple[str, ...] = ("single", "us-eu", "global-4")


@dataclass
class GeoArm:
    """Outcome of one (topology, system) arm."""

    topology: str
    regions: int
    workers: int
    summary: Dict[str, float]


@dataclass
class GeoScaleResult:
    """All arms, keyed by topology then system name."""

    shards: int
    arms: Dict[str, Dict[str, GeoArm]] = field(default_factory=dict)

    def arm(self, topology: str, system: str) -> GeoArm:
        """The arm for one (topology, system) pair."""
        return self.arms[topology][system]


def run_geo_scale(
    cascade_name: str = "sdturbo",
    scale: ExperimentScale = BENCH_SCALE,
    *,
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    systems: Sequence[str] = ("diffserve",),
    workload: str = "diurnal",
    qps: Optional[float] = None,
    shards: int = 1,
    jobs: int = 1,
    use_cache: bool = True,
) -> GeoScaleResult:
    """Sweep geo topologies through the cached parallel grid runner.

    The nominal rate scales with each topology's total device count (set by
    the runner's workload resolution), so every topology is stressed
    comparably rather than the large fleets coasting.
    """
    from repro.runner.dimensions import DIMENSIONS
    from repro.runner.executor import run_grid
    from repro.runner.spec import ExperimentGrid, ExperimentSpec, TraceSpec

    resolved = [(name, DIMENSIONS["geo"].lookup(name)) for name in topologies]
    specs = [
        ExperimentSpec(
            cascade=cascade_name,
            scale=scale,
            systems=tuple(systems),
            trace=TraceSpec(kind=workload, qps=qps),
            geo=name,
            shards=shards,
        )
        for name, _ in resolved
    ]
    report = run_grid(ExperimentGrid.of(specs), jobs=jobs, use_cache=use_cache)
    failed = [cell for cell in report.cells if not cell.ok]
    if failed:
        details = "; ".join(f"{cell.spec.label}: {cell.status}" for cell in failed)
        raise RuntimeError(f"geo study cells failed: {details}")

    result = GeoScaleResult(shards=shards)
    for (name, topology), cell in zip(resolved, report.cells):
        result.arms[name] = {
            system: GeoArm(
                topology=name,
                regions=len(topology),
                workers=topology.total_workers,
                summary=dict(summary),
            )
            for system, summary in cell.summaries.items()
        }
    return result


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
    from repro.core.system import build_diffserve_system
    from repro.runner.dimensions import DIMENSIONS
    from repro.workloads import cascade_qps_range, make_workload

    topo = DIMENSIONS["geo"].lookup(topology)
    template = build_diffserve_system(
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


def main(scale: ExperimentScale = BENCH_SCALE) -> str:
    """Run the geo-scale study and print the per-topology table."""
    result = run_geo_scale(scale=scale)
    rows: List[list] = []
    for topology, arms in result.arms.items():
        for system, arm in arms.items():
            rows.append(
                [
                    topology,
                    arm.regions,
                    arm.workers,
                    system,
                    int(arm.summary["total_queries"]),
                    arm.summary["fid"],
                    arm.summary["slo_violation_ratio"],
                    arm.summary["p99_latency"],
                ]
            )
    output = "\n".join(
        [
            f"Geo-scale serving — shards={result.shards} "
            "(summaries are shard-count-invariant)",
            format_table(
                [
                    "topology",
                    "regions",
                    "workers",
                    "system",
                    "queries",
                    "FID",
                    "SLO viol",
                    "p99 (s)",
                ],
                rows,
            ),
            "",
            shard_timing_report(scale=scale),
        ]
    )
    print(output)
    return output


if __name__ == "__main__":
    main()
