"""No definition in ``src/repro`` may go unused without a stated reason.

The scan parses every module of the package and collects each function,
method and class definition.  A definition is *referenced* when its bare name
appears anywhere in ``src/repro`` as a variable, an attribute or an imported
name, other than in the definition itself.  Package ``__init__`` modules do
not count: a re-export is not a use.  String constants do not count either,
so a name that only appears in a summary key or a label is still an orphan.

Every definition the scan finds unreferenced must be listed in ``ALLOWED``
with a one-line reason, such as the component it is a test oracle for, and
every listed name must still be unreferenced.  A new orphan therefore fails
this test until it is deleted or its reason is written down.

The scan matches names, not bindings, so a name shared across classes can
hide an orphan: ``Worker.collect_stats`` went unused for a long time because
``LoadBalancer.collect_stats`` is called.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Unreferenced definitions that stay, by qualified name, with the reason.
ALLOWED = {
    "repro.baselines.registry.render_baseline_table": "renders Table 1 for its golden pin "
    "(tests/test_systems.py) and the table1 benchmark",
    "repro.core.geo.GeoTopology.total_capacity_units": "topology property checked by the "
    "sharding tests",
    "repro.core.resources.BandwidthChannel.active_count": "channel state the "
    "resource-conservation tests inspect",
    "repro.core.resources.BandwidthChannel.total_rate_gbps": "channel state the "
    "resource-conservation tests inspect",
    "repro.core.resources.ResidencySet.resident_names": "LRU order the residency tests inspect",
    "repro.core.results.SimulationResult.total_queries": "result accessor read by the "
    "serial == sharded tests",
    "repro.core.system.ClientSource.total_queries": "arrival count the fault tests check "
    "query conservation against",
    "repro.discriminators.base.Discriminator.accepts": "threshold rule stated as a method; "
    "the discriminator tests pin it to confidence()",
    "repro.discriminators.deferral.DeferralProfile.threshold_for_fraction": "scalar "
    "oracle the property tests check thresholds_for_fractions and the allocator's grid "
    "against",
    "repro.discriminators.heuristics.RandomDiscriminator": "Figure 1a's random-routing "
    "design, covered by the discriminator tests",
    "repro.discriminators.heuristics.OracleDiscriminator": "test oracle for DeferralProfile "
    "and a known-confidence discriminator for worker/load-balancer tests",
    "repro.experiments.offline.CascadeCurve.fid_at_latency": "curve reader used by "
    "examples/motivation_study.py",
    "repro.experiments.offline.Fig1bResult.cdf": "Figure 1b's CDF, read by its "
    "benchmark and examples/motivation_study.py",
    "repro.experiments.fig5_real_trace.Fig5Result.timeseries": "Figure 5's series, read by "
    "examples/serve_azure_trace.py",
    "repro.experiments.harness.default_trace": "the Table 1 benchmark's trace; "
    "tests/test_experiments.py checks it",
    "repro.faults.plan_store.PlanStore.last_known_good": "fallback plan the fault tests "
    "inspect",
    "repro.metrics.fid.fid_from_images": "test oracle for the image quality model and "
    "discriminator routing",
    "repro.metrics.fid.windowed_fid_reference": "test oracle for windowed_fid and "
    "SimulationResult.fid_timeseries",
    "repro.models.dataset.QueryDataset.subset": "builds the small datasets of the "
    "generation and columnar tests",
    "repro.models.difficulty.DifficultyModel.quantile": "difficulty quantiles the "
    "generation tests check",
    "repro.models.generation.ImageGenerator.sample_real_features": "real-feature sampler "
    "the generation tests check",
    "repro.models.scores.pick_score_difference": "the PickScore difference of Figure 1a, "
    "checked by the generation tests",
    "repro.models.zoo.variant_footprint": "catalog lookup the resource tests compare "
    "ResourceConfig against",
    "repro.runner.executor.GridReport.summaries_list": "read by the runner tests and "
    "benchmarks/e2e",
    "repro.runner.spec.ExperimentSpec.with_params": "derives a spec with extra params for "
    "the determinism and runner tests",
    "repro.simulator.events.Event.fire": "fires a popped event; the event-queue tests and "
    "the simulator benchmark drive the queue by hand",
    "repro.simulator.rng.standard_normal_rows": "the bit-exact draw SeedTable.normals "
    "counts; the rng tests check it against default_rng",
    "repro.simulator.simulation.Simulator.stop": "ends a run from inside a callback; the "
    "simulator tests use it",
    "repro.traces.azure.trace_4to32qps": "the paper's named trace for Cascades 1-2, checked "
    "by the trace tests",
    "repro.traces.azure.trace_1to8qps": "the paper's named trace for Cascade 3, checked by "
    "the trace tests",
    "repro.traces.base.ArrivalTrace.constant_rate": "trace constructor the trace tests use",
    "repro.traces.base.ArrivalTrace.observed_rate": "empirical rate the trace and workload "
    "tests check samples against",
    "repro.traces.synthetic.step_rate": "step-change rate curve, checked by the trace tests",
    "repro.traces.synthetic.burst_rate": "burst rate curve, used by "
    "examples/custom_cascade.py",
    "repro.workloads.base.ArrivalProcess.peak_rate": "workload property the workload tests "
    "check",
    "repro.workloads.base.ArrivalProcess.then": "splice composition the workload tests "
    "check",
    "repro.workloads.processes.MMPPProcess.stationary_rate": "closed-form rate the MMPP "
    "tests check samples against",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _scan(tree: ast.AST, module: str):
    """One pass over a module: its ``(qualified name, name)`` definitions,
    nested ones too, and every name it references."""
    definitions, references = [], []
    stack = [(tree, module)]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            prefix = f"{prefix}.{node.name}"
            definitions.append((prefix, node.name))
        elif isinstance(node, ast.Name):
            references.append(node.id)
        elif isinstance(node, ast.Attribute):
            references.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            references.extend(alias.name for alias in node.names)
        stack.extend((child, prefix) for child in ast.iter_child_nodes(node))
    return definitions, references


def orphans():
    """Qualified names of the definitions no module of the package references."""
    definitions = []
    referenced = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined, references = _scan(tree, _module_name(path))
        definitions.extend(defined)
        if path.name != "__init__.py":
            referenced.update(references)
    return sorted(
        qualname
        for qualname, name in definitions
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_unreferenced_definition_is_allowed_with_a_reason():
    found = orphans()
    unexplained = [name for name in found if name not in ALLOWED]
    assert not unexplained, f"delete these or list them in ALLOWED with a reason: {unexplained}"
    stale = sorted(set(ALLOWED) - set(found))
    assert not stale, f"these ALLOWED entries are referenced or gone: {stale}"
    assert all(reason.strip() and "\n" not in reason for reason in ALLOWED.values())
