"""End-to-end determinism regression: the guarantee PRs 1-2 claim.

The same grid cell must produce byte-identical summary dicts whether it runs
inline or in a spawned worker process, and across repeat runs with the same
seed — with and without the online re-planning control plane attached.  Cells
are executed with fresh cache roots so every run actually simulates (a cache
hit would make the comparison vacuous).  The control plane's own records —
every applied plan and every re-plan epoch — repeat whole, field for field:
no wall-clock value is recorded in them.
"""

import dataclasses

from repro.experiments.harness import ExperimentScale
from repro.runner.cache import ArtifactCache
from repro.runner.executor import canonical_summaries_json, run_cell_results, run_grid
from repro.runner.spec import ExperimentGrid, ExperimentSpec, TraceSpec

#: Smallest scale the harness accepts; keeps three full simulations per run
#: affordable while still exercising every layer.
TINY = ExperimentScale(dataset_size=60, trace_duration=10.0, num_workers=2, seed=0)


def _grid() -> ExperimentGrid:
    base = ExperimentSpec(
        cascade="sdturbo",
        scale=TINY,
        systems=("diffserve",),
        trace=TraceSpec(kind="flash-crowd"),
    )
    return ExperimentGrid.of(
        [
            base,  # legacy fixed-period control loop
            base.with_params(replan_epoch=2.0, replan_policy="periodic"),
            base.with_params(replan_epoch=2.0, replan_policy="adaptive"),
        ]
    )


def test_serial_pool_and_repeat_runs_are_byte_identical(tmp_path):
    grid = _grid()
    serial = run_grid(grid, jobs=1, cache=ArtifactCache(root=tmp_path / "serial"))
    pooled = run_grid(grid, jobs=2, cache=ArtifactCache(root=tmp_path / "pooled"))
    repeat = run_grid(grid, jobs=1, cache=ArtifactCache(root=tmp_path / "repeat"))

    for report in (serial, pooled, repeat):
        assert report.ok
        assert report.cached_count == 0  # every run really simulated

    for s_cell, p_cell, r_cell in zip(serial.cells, pooled.cells, repeat.cells):
        expected = canonical_summaries_json(s_cell.summaries)
        assert canonical_summaries_json(p_cell.summaries) == expected, s_cell.spec.label
        assert canonical_summaries_json(r_cell.summaries) == expected, s_cell.spec.label

    # Re-planning changes the system's behaviour: the periodic cell differs
    # from the legacy control loop.  (The adaptive arm may legitimately
    # coincide with either — skipping unnecessary re-solves is its point.)
    legacy, periodic, _adaptive = (
        canonical_summaries_json(cell.summaries) for cell in serial.cells
    )
    assert legacy != periodic


def test_replan_dimensions_are_part_of_the_cache_key():
    base, periodic, adaptive = _grid()
    assert len({base.cache_key, periodic.cache_key, adaptive.cache_key}) == 3
    # And the params survive the round trip into builder kwargs.
    assert periodic.params_dict() == {"replan_epoch": 2.0, "replan_policy": "periodic"}


def _records(history):
    """Every field of every snapshot, as one comparable value.

    ``repr`` spells floats exactly and makes a running FID sampled before two
    completions (NaN) equal to itself, which dataclass ``==`` would not.
    """
    assert all(dataclasses.is_dataclass(snap) for snap in history)
    return repr(history)


def test_repeat_replanned_cell_returns_identical_control_records(tmp_path):
    # Eight workers put the re-solves on HiGHS, so epochs record non-zero
    # solve counts (smaller fleets solve in closed form, with no LP).
    _, _, adaptive = _grid()
    adaptive = dataclasses.replace(adaptive, scale=dataclasses.replace(TINY, num_workers=8))
    _, first = run_cell_results(adaptive, cache=ArtifactCache(root=tmp_path / "first"))
    _, second = run_cell_results(adaptive, cache=ArtifactCache(root=tmp_path / "second"))
    first, second = first["diffserve"], second["diffserve"]
    assert any(snap.lp_solves for snap in first.replan_history)
    assert first.control_history
    assert _records(first.replan_history) == _records(second.replan_history)
    assert first.control_history == second.control_history


def test_shard_count_leaves_the_merged_replan_history_unchanged():
    spec = ExperimentSpec(
        cascade="sdturbo",
        scale=TINY,
        systems=("diffserve",),
        trace=TraceSpec(kind="static", qps=40.0),
        geo="global-8",
    ).with_params(replan_epoch=2.0, replan_policy="periodic")
    _, one = run_cell_results(dataclasses.replace(spec, shards=1))
    _, two = run_cell_results(dataclasses.replace(spec, shards=2))
    one, two = one["diffserve"], two["diffserve"]
    assert len(one.replan_history) > 8  # eight regions, several epochs each
    assert _records(one.replan_history) == _records(two.replan_history)
