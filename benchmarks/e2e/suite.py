"""The benchmark's workloads: what each pass runs and what it must produce.

Every workload is a batch job: a fixed input, derived from the seed, runs to
completion.  The simulated arrivals inside a cell are open-loop (Poisson or
trace replay); the benchmark itself never throttles on completions.

The seed picks the arrival realisation only (``TraceSpec.seed``).  The
dataset, the discriminator and every system's own random streams stay on
seed 0, so the seed varies the queries a system is asked to serve, not the
system.

Calls into ``repro`` go through module attributes (``executor.run_grid``,
not a ``from`` import of the function) so that the wrappers
``spans.instrument`` installs on those attributes see them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Tuple

from repro.core import sharding
from repro.experiments import harness
from repro.experiments.harness import ExperimentScale
from repro.runner import executor
from repro.runner.cache import ArtifactCache
from repro.runner.spec import ExperimentGrid, ExperimentSpec, TraceSpec
from repro.simulator.profiling import merge_profiles


@dataclass
class PassResult:
    """What one pass of a workload produced."""

    wall: float
    #: Canonical JSON of every summary the pass computed (all cells, all
    #: systems); byte-identical across passes of one seed.
    summaries: str
    #: Simulated queries across every system and cell.
    queries: int
    #: System runs (or grid cells) the pass executed.
    operations: int
    checks: List[Tuple[str, bool]]
    #: Summary of the arm the ``sim_*`` metrics report, per cell.
    arm: List[Dict[str, float]]
    #: Inputs of the per-layer metrics (profiles, supervisor, results, ...).
    detail: dict = field(default_factory=dict)


def _summaries(results) -> Dict[str, Dict[str, float]]:
    return {name: {k: float(v) for k, v in r.summary().items()} for name, r in results.items()}


def _build_systems(spec: ExperimentSpec, dataset, discriminator, curve):
    """The spec's systems, built exactly as :func:`executor.run_cell_results` does."""
    return harness.build_comparison_systems(
        spec.cascade,
        spec.scale,
        anticipated_peak_qps=spec.peak_provision_factor * curve.peak,
        dataset=dataset,
        discriminator=discriminator,
        systems=spec.systems,
        fleet=spec.resolve_fleet(),
        resources=spec.resolve_resources(),
        faults=spec.resolve_faults(),
        autoscale=spec.resolve_autoscale(),
        prices=spec.resolve_prices(),
        **spec.params_dict(),
    )


def _accounting_checks(label: str, summaries, trace_len: int) -> List[Tuple[str, bool]]:
    """``completed + dropped == total_queries ==`` the trace length, per system."""
    return [
        (
            f"{label}/{name}: completed + dropped == total == {trace_len}",
            s["completed"] + s["dropped"] == s["total_queries"] == trace_len,
        )
        for name, s in summaries.items()
    ]


class Workload:
    """One named workload: its cells, cold set-up and one pass."""

    name = ""
    #: System whose summary the ``sim_*`` metrics report.
    arm = "diffserve"
    #: Cores a pass keeps busy; the reference kernel runs on as many.
    cores = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.specs = self.make_specs(seed)
        self.trace_lengths: List[int] = []

    def make_specs(self, seed: int) -> List[ExperimentSpec]:
        raise NotImplementedError

    def setup(self, cache: ArtifactCache) -> None:
        """Shared components, traces and systems of every cell, from ``cache``.

        Run against an empty cache this is the cold set-up the ``setup_s``
        metric times; it leaves the artifacts the passes read behind.
        """
        self.trace_lengths = []
        for spec in self.specs:
            _, dataset, discriminator = harness.shared_components(
                spec.cascade, spec.scale, cache=cache
            )
            curve, trace = executor.resolve_trace(spec)
            _build_systems(spec, dataset, discriminator, curve)
            self.trace_lengths.append(len(trace.arrival_times))

    def run_pass(self, cache: ArtifactCache, traced: bool) -> PassResult:
        """One timed pass; ``traced`` also arms the event-loop profiler."""
        raise NotImplementedError

    def after_pass(
        self, cache: ArtifactCache, result: PassResult, traced: bool
    ) -> List[Tuple[str, bool]]:
        """Untimed work and checks after a pass (none by default)."""
        return []


class CellWorkload(Workload):
    """One grid cell run inline through :func:`executor.run_cell_results`."""

    def run_pass(self, cache: ArtifactCache, traced: bool) -> PassResult:
        (spec,) = self.specs
        sink = {} if traced else None
        start = perf_counter()
        _, results = executor.run_cell_results(spec, cache=cache, profile_sink=sink)
        summaries = _summaries(results)
        wall = perf_counter() - start
        return PassResult(
            wall=wall,
            summaries=executor.canonical_summaries_json(summaries),
            queries=int(sum(s["total_queries"] for s in summaries.values())),
            operations=len(results),
            checks=_accounting_checks(self.name, summaries, self.trace_lengths[0]),
            arm=[summaries[self.arm]],
            detail={
                "profile": merge_profiles((sink or {}).values()),
                "results": list(results.values()),
                "cache_stats": cache.stats.as_dict(),
            },
        )


class FigCell(CellWorkload):
    name = "fig-cell"

    def make_specs(self, seed):
        return [
            ExperimentSpec(
                cascade="sdturbo",
                scale=ExperimentScale(dataset_size=300, trace_duration=180.0, num_workers=16),
                trace=TraceSpec(seed=seed),
            )
        ]


class SteadyStream(CellWorkload):
    name = "steady-stream"
    arm = "diffserve-static"

    def make_specs(self, seed):
        # DiffServe-Static solves the MILP once, for the provisioned peak,
        # and then serves with that plan: the light model, the discriminator
        # and deferral run on every query while the allocator stays idle.
        # Its work is a function of the arrivals alone, unlike an adaptive
        # re-planner whose plan sequence (and so its batch mix) changes from
        # one arrival realisation to the next.
        return [
            ExperimentSpec(
                cascade="sdturbo",
                scale=ExperimentScale(dataset_size=300, trace_duration=600.0, num_workers=16),
                systems=("diffserve-static",),
                trace=TraceSpec(kind="static", qps=24.0, seed=seed),
                peak_provision_factor=1.0,
            )
        ]


class GeoSharded(Workload):
    name = "geo-sharded"
    cores = 2

    def make_specs(self, seed):
        return [
            ExperimentSpec(
                cascade="sdturbo",
                scale=ExperimentScale(dataset_size=300, trace_duration=25.0, num_workers=8),
                systems=("diffserve",),
                trace=TraceSpec(kind="static", qps=240.0, seed=seed),
                geo="global-8",
                shards=2,
            )
        ]

    def run_pass(self, cache: ArtifactCache, traced: bool) -> PassResult:
        (spec,) = self.specs
        start = perf_counter()
        _, dataset, discriminator = harness.shared_components(spec.cascade, spec.scale, cache=cache)
        curve, trace = executor.resolve_trace(spec)
        template = _build_systems(spec, dataset, discriminator, curve)[self.arm]
        template.profile = traced
        supervisor = sharding.ShardSupervisor(
            template=template, topology=spec.resolve_geo(), shards=spec.shards
        )
        result = supervisor.run(trace)
        summaries = _summaries({self.arm: result})
        wall = perf_counter() - start
        merged = summaries[self.arm]
        regions = supervisor.region_results
        checks = _accounting_checks(self.name, summaries, self.trace_lengths[0]) + [
            (f"{self.name}: 8 region results", len(regions) == 8),
            (
                f"{self.name}: region totals sum to the merged total",
                sum(r.total_queries for r in regions.values()) == merged["total_queries"],
            ),
        ]
        return PassResult(
            wall=wall,
            summaries=executor.canonical_summaries_json(summaries),
            queries=int(merged["total_queries"]),
            operations=1,
            checks=checks,
            arm=[merged],
            detail={
                "profile": merge_profiles(supervisor.shard_profiles.values()),
                "results": [result],
                "supervisor": supervisor,
                "cache_stats": cache.stats.as_dict(),
            },
        )


class GridFeatures(Workload):
    name = "grid-features"
    jobs = 2
    cores = 2

    def make_specs(self, seed):
        scale = ExperimentScale(dataset_size=300, trace_duration=90.0, num_workers=16)
        # Periodic (not adaptive) re-planning: every epoch re-solves warm, so
        # the plan sequence follows the demand curve.  Adaptive triggers have
        # hysteresis, which makes the plan sequence -- and with it the work
        # of a cell -- differ by ~10% from one arrival realisation to the
        # next.  For the same reason the mixed-fleet cell replays the azure
        # curve rather than sampling MMPP regime switches.
        replan = (("replan_epoch", 3.0), ("replan_policy", "periodic"))

        def cell(kind, systems=("diffserve",), params=replan, **dims):
            return ExperimentSpec(
                cascade="sdturbo",
                scale=scale,
                systems=systems,
                trace=TraceSpec(kind=kind, seed=seed),
                params=params,
                **dims,
            )

        # Longest cell first, so the two pool workers finish together
        # whichever of them starts first.
        return [
            cell("flash-crowd", faults="storm"),
            cell("flash-crowd", resources="default"),
            cell(
                "azure",
                systems=("proteus", "diffserve"),
                params=(),
                fleet=(("a100", 8), ("l4", 16)),
            ),
            cell(
                "diurnal",
                fleet=(("a100", 2), ("l4", 4)),
                autoscale="cost-aware",
                prices="spot-diurnal",
            ),
        ]

    def run_pass(self, cache: ArtifactCache, traced: bool) -> PassResult:
        # Every pass starts from an empty summary cache with the artifacts
        # (dataset, discriminator) already warm.
        cache.clear(executor.SUMMARY_KIND)
        start = perf_counter()
        cold = executor.run_grid(ExperimentGrid.of(self.specs), jobs=self.jobs, cache=cache)
        wall = perf_counter() - start
        cells = cold.summaries_list()
        checks = [
            (f"{self.name}: every cold cell computed", all(c.status == "ok" for c in cold.cells))
        ]
        for index, (summaries, length) in enumerate(zip(cells, self.trace_lengths)):
            checks += _accounting_checks(f"{self.name}/cell{index}", summaries, length)
        return PassResult(
            wall=wall,
            summaries=executor.canonical_summaries_json(cells),
            queries=int(sum(s["total_queries"] for c in cells for s in c.values())),
            operations=len(cells),
            checks=checks,
            arm=[c[self.arm] for c in cells if self.arm in c],
            detail={"cache_stats": cold.cache_stats},
        )

    def after_pass(
        self, cache: ArtifactCache, result: PassResult, traced: bool
    ) -> List[Tuple[str, bool]]:
        """Read the grid back from the summary cache; when traced, rerun it inline.

        The warm re-run must simulate nothing and return the cold pass's
        summaries.  The cells of the cold pass ran in pool workers, which
        the span wrappers and the profiler cannot reach, so a traced pass
        also runs every cell again in this process, profiled: that is where
        the per-layer numbers of the cells (re-planner, autoscaler, faults,
        resources) come from.  Inline and pooled summaries must agree.
        """
        start = perf_counter()
        warm = executor.run_grid(ExperimentGrid.of(self.specs), jobs=self.jobs, cache=cache)
        result.detail["warm_wall"] = perf_counter() - start
        checks = [
            (
                f"{self.name}: warm pass reads all {len(self.specs)} cells back, simulating none",
                warm.cached_count == len(self.specs)
                and all(c.status == "cached" for c in warm.cells),
            ),
            (
                f"{self.name}: warm summaries equal cold summaries",
                executor.canonical_summaries_json(warm.summaries_list()) == result.summaries,
            ),
        ]
        if traced:
            sinks, results, cells = [], [], []
            for spec in self.specs:
                sink: dict = {}
                _, cell = executor.run_cell_results(spec, cache=cache, profile_sink=sink)
                sinks.extend(sink.values())
                results.extend(cell.values())
                cells.append(_summaries(cell))
            result.detail["profile"] = merge_profiles(sinks)
            result.detail["results"] = results
            checks.append(
                (
                    f"{self.name}: inline summaries equal pooled summaries",
                    executor.canonical_summaries_json(cells) == result.summaries,
                )
            )
        return checks


WORKLOADS = {cls.name: cls for cls in (FigCell, SteadyStream, GeoSharded, GridFeatures)}

