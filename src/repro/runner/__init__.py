"""Parallel experiment runner with content-addressed artifact caching.

The runner turns every figure/table experiment into one or more declarative
:class:`~repro.runner.spec.ExperimentSpec` grid cells, executes them serially
or across a forked process pool, and memoizes the expensive artifacts
(loaded datasets, trained discriminators, per-cell result summaries) in a
disk cache keyed by a deterministic content hash.  Re-running a figure or a
CI job therefore skips every simulation whose spec has not changed.
"""

from repro.runner.artifacts import (
    cached_dataset,
    cached_default_discriminator,
    cached_training_result,
    dataset_digest,
)
from repro.runner.cache import ArtifactCache, CacheStats, default_cache, default_cache_dir
from repro.runner.executor import (
    CellResult,
    GridReport,
    canonical_summaries_json,
    run_cell,
    run_cell_results,
    run_grid,
)
from repro.runner.spec import (
    ExperimentGrid,
    ExperimentSpec,
    TraceSpec,
    substrate_fingerprint,
    variants_fingerprint,
)

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "CellResult",
    "ExperimentGrid",
    "ExperimentSpec",
    "GridReport",
    "TraceSpec",
    "cached_dataset",
    "cached_default_discriminator",
    "cached_training_result",
    "canonical_summaries_json",
    "dataset_digest",
    "default_cache",
    "default_cache_dir",
    "run_cell",
    "run_cell_results",
    "run_grid",
    "substrate_fingerprint",
    "variants_fingerprint",
]
