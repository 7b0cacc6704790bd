"""Shared experiment harness.

Builds the five systems compared throughout the evaluation (Clipper-Light,
Clipper-Heavy, Proteus, DiffServe-Static, DiffServe) with a shared dataset and
discriminator, runs them on a common trace, and renders plain-text tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.baselines import (
    build_clipper_system,
    build_diffserve_static_system,
    build_proteus_system,
)
from repro.core.config import FleetSpec
from repro.core.results import SimulationResult
from repro.core.system import ServingSimulation, build_diffserve_system
from repro.discriminators.base import Discriminator
from repro.models.dataset import QueryDataset
from repro.models.generation import ImageGenerator
from repro.models.zoo import get_cascade
from repro.traces.base import RateCurve

#: Re-exported from the workload catalog for backwards compatibility.
from repro.workloads import DEFAULT_QPS_RANGE  # noqa: F401


@dataclass(frozen=True)
class ExperimentScale:
    """Controls the cost of an experiment run.

    The paper evaluates with 5K prompts and 6-minute traces on 16 workers;
    benchmarks shrink these knobs to keep CI runs fast while preserving the
    qualitative behaviour.
    """

    dataset_size: int = 1000
    trace_duration: float = 360.0
    num_workers: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dataset_size < 50:
            raise ValueError("dataset_size must be >= 50")
        if self.trace_duration <= 0:
            raise ValueError("trace_duration must be positive")
        if self.num_workers < 2:
            raise ValueError("num_workers must be >= 2")


#: Reduced scale used by the pytest benchmarks.
BENCH_SCALE = ExperimentScale(dataset_size=300, trace_duration=180.0, num_workers=16)

#: Full scale approximating the paper's setup.
PAPER_SCALE = ExperimentScale(dataset_size=5000, trace_duration=360.0, num_workers=16)


@dataclass
class SystemComparison:
    """Results of running several systems on the same trace."""

    cascade_name: str
    trace_curve: RateCurve
    results: Dict[str, SimulationResult] = field(default_factory=dict)


def shared_components(cascade_name: str, scale: ExperimentScale, *, cache=None) -> tuple:
    """(cascade, dataset, discriminator) shared by all systems in a comparison.

    The dataset and the trained discriminator are memoized in the runner's
    artifact cache (see :mod:`repro.runner.cache`), keyed by the cascade, the
    scale knobs that affect them, and a fingerprint of the model-zoo
    calibration — repeated figure runs and CI re-runs skip dataset synthesis
    and discriminator training entirely.
    """
    from repro.runner.artifacts import cached_dataset, cached_default_discriminator

    cascade = get_cascade(cascade_name)
    dataset = cached_dataset(cascade.dataset, scale.dataset_size, scale.seed, cache=cache)
    discriminator = cached_default_discriminator(
        dataset, cascade.light, cascade.heavy, seed=scale.seed, cache=cache
    )
    return cascade, dataset, discriminator


def default_trace(
    cascade_name: str, scale: ExperimentScale, *, seed: Optional[int] = None
) -> tuple:
    """(rate curve, arrival trace) for a cascade at the default QPS range.

    This is the ``azure`` workload of the scenario catalog: a scaled replay
    of the Azure-Functions-like production trace, sampled deterministically
    from :class:`~repro.simulator.rng.RandomStreams`.
    """
    from repro.simulator.rng import RandomStreams
    from repro.workloads import cascade_qps_range, make_workload

    # The curve shape comes from the scale's seed; ``seed`` only re-rolls the
    # arrival realisation of that same shape.
    process = make_workload(
        "azure",
        duration=scale.trace_duration,
        qps_range=cascade_qps_range(cascade_name, scale.num_workers),
        seed=scale.seed,
    )
    arrival_seed = scale.seed if seed is None else seed
    return process.rate_curve(), process.sample(RandomStreams(arrival_seed))


def build_comparison_systems(
    cascade_name: str,
    scale: ExperimentScale,
    *,
    anticipated_peak_qps: float,
    dataset: Optional[QueryDataset] = None,
    discriminator: Optional[Discriminator] = None,
    systems: Sequence[str] = (
        "clipper-light",
        "clipper-heavy",
        "proteus",
        "diffserve-static",
        "diffserve",
    ),
    slo: Optional[float] = None,
    over_provision: Optional[float] = None,
    policy_variant: str = "full",
    static_threshold: float = 0.5,
    replan_epoch: Optional[float] = None,
    replan_policy: Optional[str] = None,
    fleet=None,
    resources=None,
    faults=None,
    autoscale=None,
    prices=None,
) -> Dict[str, ServingSimulation]:
    """Instantiate the requested systems with shared dataset/discriminator.

    ``slo``/``over_provision`` override the per-system defaults (``None``
    keeps each builder's own default); ``policy_variant``/``static_threshold``
    select the Section 4.5 DiffServe allocation ablations;
    ``replan_epoch``/``replan_policy`` attach the online re-planning control
    plane to the DiffServe system (see
    :class:`~repro.core.replanner.ReplanConfig`).  ``fleet`` (a
    :class:`~repro.core.config.FleetSpec`) replaces the homogeneous
    ``scale.num_workers`` cluster for every system in the cell, so all
    systems compete on identical hardware.  ``resources`` (a
    :class:`~repro.core.config.ResourceConfig`) attaches the multi-resource
    worker model — memory residency, transfer bandwidth, result egress — to
    every system; ``None`` keeps the legacy compute-only execution model.
    ``faults`` (a :class:`~repro.faults.plan.FaultPlan`) injects the same
    deterministic fault scenario into every system; ``None`` keeps runs
    fault-free and bit-for-bit legacy.  ``prices`` (a
    :class:`~repro.core.pricing.PriceTrace`) meters every system's cost
    ledger at spot-market rates; ``autoscale`` (a
    :class:`~repro.core.autoscaler.ScalePolicy`) attaches the
    epoch-synchronous autoscaler to the DiffServe system only — baselines
    have no re-planning loop to evaluate it on, so they keep their fixed
    fleet (and remain the fixed-provisioning comparison arms).

    Every system shares one :class:`~repro.models.generation.ImageGenerator`
    opened for as many turns as there are systems, so a query outcome is
    drawn once per cell; the table lives and dies with the returned systems.
    """
    if dataset is None or discriminator is None:
        _, dataset, discriminator = shared_components(cascade_name, scale)
    over = {} if over_provision is None else {"over_provision": over_provision}
    cluster = {
        "fleet": fleet or FleetSpec.homogeneous(scale.num_workers),
        "resources": resources,
        "faults": faults,
        "prices": prices,
    }
    built: Dict[str, ServingSimulation] = {}
    for name in systems:
        if name == "clipper-light":
            built[name] = build_clipper_system(
                cascade_name,
                "light",
                slo=slo,
                dataset=dataset,
                seed=scale.seed,
                **cluster,
            )
        elif name == "clipper-heavy":
            built[name] = build_clipper_system(
                cascade_name,
                "heavy",
                slo=slo,
                dataset=dataset,
                seed=scale.seed,
                **cluster,
            )
        elif name == "proteus":
            built[name] = build_proteus_system(
                cascade_name,
                slo=slo,
                dataset=dataset,
                seed=scale.seed,
                **cluster,
                **over,
            )
        elif name == "diffserve-static":
            built[name] = build_diffserve_static_system(
                cascade_name,
                anticipated_peak_qps=anticipated_peak_qps,
                slo=slo,
                dataset=dataset,
                discriminator=discriminator,
                seed=scale.seed,
                **cluster,
                **over,
            )
        elif name == "diffserve":
            built[name] = build_diffserve_system(
                cascade_name,
                slo=slo,
                dataset=dataset,
                discriminator=discriminator,
                seed=scale.seed,
                policy_variant=policy_variant,
                static_threshold=static_threshold,
                replan_epoch=replan_epoch,
                replan_policy=replan_policy,
                autoscale=autoscale,
                **cluster,
                **over,
            )
        else:
            raise KeyError(f"unknown system {name!r}")
    generator = ImageGenerator(seed=scale.seed)
    generator.share(len(built))
    for system in built.values():
        system.generator = generator
    return built


def run_comparison(
    cascade_name: str,
    scale: ExperimentScale = BENCH_SCALE,
    *,
    systems: Sequence[str] = (
        "clipper-light",
        "clipper-heavy",
        "proteus",
        "diffserve-static",
        "diffserve",
    ),
    peak_provision_factor: float = 0.8,
    trace=None,
) -> SystemComparison:
    """Run the standard five-system comparison on the cascade's default trace.

    ``peak_provision_factor`` scales the trace peak into the *anticipated*
    peak DiffServe-Static is provisioned for (operators under-estimate bursts).
    ``trace`` selects a workload scenario other than the default Azure-like
    replay (a :class:`~repro.runner.spec.TraceSpec`).

    This is a thin wrapper over the runner subsystem: the comparison is one
    grid cell whose shared components come from the artifact cache.
    """
    from repro.runner.executor import run_cell_results
    from repro.runner.spec import ExperimentSpec, TraceSpec

    spec = ExperimentSpec(
        cascade=cascade_name,
        scale=scale,
        systems=tuple(systems),
        trace=trace if trace is not None else TraceSpec(),
        peak_provision_factor=peak_provision_factor,
    )
    curve, results = run_cell_results(spec)
    comparison = SystemComparison(cascade_name=cascade_name, trace_curve=curve)
    comparison.results.update(results)
    return comparison


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a plain-text table with left-aligned columns."""
    str_rows = [[f"{v:.3f}" if isinstance(v, float) else str(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(headers[i].ljust(widths[i]) for i in range(len(headers))),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in str_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)
