"""Tests for the parallel experiment runner and its artifact cache."""

import json
import multiprocessing
import pickle
import signal
import sys
import time

import pytest

from repro.experiments.harness import ExperimentScale
from repro.runner import executor
from repro.runner.cache import ArtifactCache
from repro.runner.executor import SUMMARY_KIND, canonical_summaries_json, run_grid
from repro.runner.spec import ExperimentGrid, ExperimentSpec, TraceSpec, substrate_fingerprint

#: Cheapest legal scale: every runner test simulates at most a few seconds.
TINY = ExperimentScale(dataset_size=60, trace_duration=10.0, num_workers=2, seed=0)


def tiny_spec(**overrides):
    defaults = dict(
        cascade="sdturbo",
        scale=TINY,
        systems=("diffserve",),
        trace=TraceSpec(kind="static", qps=4.0),
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


# ------------------------------------------------------------------- spec hash
def test_spec_hash_is_deterministic_and_sensitive():
    a = tiny_spec()
    b = tiny_spec()
    assert a.content_hash == b.content_hash
    assert a.cache_key == b.cache_key

    changed_seed = tiny_spec(scale=ExperimentScale(60, 10.0, 2, seed=1))
    changed_size = tiny_spec(scale=ExperimentScale(80, 10.0, 2, seed=0))
    changed_qps = tiny_spec(trace=TraceSpec(kind="static", qps=8.0))
    changed_params = tiny_spec().with_params(slo=3.0)
    hashes = {s.content_hash for s in (a, changed_seed, changed_size, changed_qps, changed_params)}
    assert len(hashes) == 5


def test_spec_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        tiny_spec(systems=())
    with pytest.raises(ValueError):
        tiny_spec(params=(("not-a-knob", 1),))
    with pytest.raises(ValueError):
        TraceSpec(kind="static", qps=None)
    with pytest.raises(ValueError):
        TraceSpec(kind="weird")


def test_substrate_fingerprint_tracks_zoo_calibration():
    before = substrate_fingerprint("sdturbo")
    assert before == substrate_fingerprint("sdturbo")
    assert before != substrate_fingerprint("sdxs")


def test_grid_product_and_hash():
    grid = ExperimentGrid.product(
        cascades=("sdturbo",),
        base_scale=TINY,
        seeds=(0, 1),
        systems=("diffserve",),
        traces=(TraceSpec(kind="static", qps=4.0), TraceSpec(kind="static", qps=8.0)),
    )
    assert len(grid) == 4
    assert len({spec.content_hash for spec in grid}) == 4
    assert grid.content_hash == ExperimentGrid.of(list(grid)).content_hash


# ----------------------------------------------------------------------- cache
def test_cache_put_get_roundtrip_and_stats(tmp_path):
    cache = ArtifactCache(root=tmp_path)
    assert cache.get("kind", "k") is None
    cache.put("kind", "k", {"x": 1.5})
    assert cache.get("kind", "k") == {"x": 1.5}
    assert cache.stats.hits == 1 and cache.stats.misses == 1 and cache.stats.puts == 1


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = ArtifactCache(root=tmp_path)
    cache.put("kind", "k", [1, 2, 3])
    cache.path_for("kind", "k").write_bytes(b"not a pickle")
    assert cache.get("kind", "k", default="fallback") == "fallback"
    assert cache.stats.errors == 1
    # memoize recomputes and repairs the entry
    assert cache.memoize("kind", "k", lambda: [4, 5]) == [4, 5]
    with open(cache.path_for("kind", "k"), "rb") as handle:
        assert pickle.load(handle) == [4, 5]


def test_cache_disabled_never_touches_disk(tmp_path):
    cache = ArtifactCache(root=tmp_path, enabled=False)
    cache.put("kind", "k", 1)
    assert cache.get("kind", "k") is None
    assert list(cache.entries()) == []


def test_cache_rejects_path_traversal_keys(tmp_path):
    cache = ArtifactCache(root=tmp_path)
    for bad in ("", "a/b", ".sneaky"):
        with pytest.raises(ValueError):
            cache.path_for("kind", bad)


def test_cache_clear_by_kind(tmp_path):
    cache = ArtifactCache(root=tmp_path)
    cache.put("a", "k1", 1)
    cache.put("a", "k2", 2)
    cache.put("b", "k1", 3)
    assert cache.clear("a") == 2
    assert cache.get("b", "k1") == 3
    assert cache.clear() == 1


# ------------------------------------------------------------------- execution
def grid_2x2():
    return ExperimentGrid.product(
        cascades=("sdturbo",),
        base_scale=TINY,
        seeds=(0, 1),
        systems=("diffserve",),
        traces=(TraceSpec(kind="static", qps=4.0), TraceSpec(kind="static", qps=8.0)),
    )


def test_parallel_equals_serial_byte_identical(tmp_path):
    grid = grid_2x2()
    serial = run_grid(grid, jobs=1, cache=ArtifactCache(root=tmp_path / "serial"))
    parallel = run_grid(grid, jobs=2, cache=ArtifactCache(root=tmp_path / "parallel"))
    assert serial.ok and parallel.ok
    assert parallel.cached_count == 0
    for s_cell, p_cell in zip(serial.cells, parallel.cells):
        assert s_cell.status == "ok" and p_cell.status == "ok"
        assert canonical_summaries_json(s_cell.summaries) == canonical_summaries_json(
            p_cell.summaries
        )


def test_second_run_is_fully_cached_without_simulation(tmp_path, monkeypatch):
    grid = ExperimentGrid.of([tiny_spec()])
    cache = ArtifactCache(root=tmp_path)
    first = run_grid(grid, jobs=1, cache=cache)
    assert first.ok and first.cached_count == 0

    # A cache hit must never reach the simulation layer.
    import repro.runner.executor as executor

    def boom(*args, **kwargs):
        raise AssertionError("simulation ran despite a cached summary")

    monkeypatch.setattr(executor, "run_cell", boom)
    second = run_grid(grid, jobs=1, cache=ArtifactCache(root=tmp_path))
    assert second.ok
    assert second.cached_count == len(grid)
    assert canonical_summaries_json(second.cells[0].summaries) == canonical_summaries_json(
        first.cells[0].summaries
    )


def test_cache_key_misses_on_changed_seed_or_scale(tmp_path):
    cache = ArtifactCache(root=tmp_path)
    run_grid(ExperimentGrid.of([tiny_spec()]), jobs=1, cache=cache)
    changed = ExperimentGrid.of([tiny_spec(scale=ExperimentScale(60, 10.0, 2, seed=7))])
    report = run_grid(changed, jobs=1, cache=ArtifactCache(root=tmp_path))
    assert report.cached_count == 0 and report.ok


def test_failing_cell_is_isolated_serial_and_parallel(tmp_path):
    good = tiny_spec()
    # An unknown cascade passes spec construction and fails inside the cell.
    bad_cascade = tiny_spec(cascade="not-a-cascade")
    grid = ExperimentGrid.of([bad_cascade, good])
    for jobs in (1, 2):
        report = run_grid(grid, jobs=jobs, cache=ArtifactCache(root=tmp_path / f"j{jobs}"))
        assert not report.ok
        assert report.cells[0].status == "error"
        assert "not-a-cascade" in report.cells[0].error
        assert report.cells[1].ok


def test_unknown_cascade_fails_without_crashing_the_grid(tmp_path):
    grid = ExperimentGrid.of([tiny_spec(cascade="not-a-cascade"), tiny_spec()])
    report = run_grid(grid, jobs=1, cache=ArtifactCache(root=tmp_path))
    assert report.cells[0].status == "error"
    assert report.cells[1].ok


def test_use_cache_false_bypasses_existing_entries(tmp_path):
    cache = ArtifactCache(root=tmp_path)
    spec = tiny_spec()
    cache.put(SUMMARY_KIND, spec.cache_key, {"diffserve": {"fid": -1.0}})
    report = run_grid(ExperimentGrid.of([spec]), jobs=1, cache=cache, use_cache=False)
    assert report.ok
    assert report.cells[0].status == "ok"
    assert report.cells[0].summaries["diffserve"]["fid"] != -1.0


def test_cell_timeout_reports_timeout_cells(tmp_path):
    report = run_grid(
        ExperimentGrid.of([tiny_spec()]),
        jobs=2,
        cache=ArtifactCache(root=tmp_path),
        cell_timeout=0.01,
    )
    assert not report.ok
    assert report.cells[0].status == "timeout"


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="the deadline needs setitimer")
def test_cell_deadline_holds_when_the_interrupted_code_swallows_it():
    """The alarm can land in code that swallows the exception (a C
    extension's module initialisation, when the cell's first import runs
    late); the expired deadline must still end the cell as a timeout."""
    with pytest.raises(executor._CellTimeout):
        with executor._cell_deadline(0.01):
            try:
                time.sleep(5.0)
            except executor._CellTimeout:
                pass


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool workers inherit their parent's modules only where they fork",
)
def test_pool_worker_imports_no_module_before_its_first_cell(tmp_path, monkeypatch):
    """A forked pool worker reaches its first cell with no import of its own.
    (A spawned worker imported the whole package first.)  The forked worker
    inherits this test's patch, which records its ``sys.modules`` in place
    of simulating the cell."""
    import repro.runner.executor as executor

    seen = tmp_path / "modules.json"

    def recording_cell(spec, cache):
        seen.write_text(json.dumps(sorted(sys.modules)))
        return {}

    monkeypatch.setattr(executor, "run_cell", recording_cell)
    report = run_grid(
        ExperimentGrid.of([tiny_spec()]),
        jobs=2,
        cache=ArtifactCache(root=tmp_path),
        use_cache=False,
    )
    assert report.cells[0].status == "ok"
    assert sorted(set(json.loads(seen.read_text())) - set(sys.modules)) == []


# ------------------------------------------------------------------ workloads
def test_trace_spec_workload_kinds_and_params_hash():
    base = tiny_spec(trace=TraceSpec(kind="mmpp", qps=4.0))
    same = tiny_spec(trace=TraceSpec(kind="mmpp", qps=4.0))
    other_kind = tiny_spec(trace=TraceSpec(kind="diurnal", qps=4.0))
    other_params = tiny_spec(trace=TraceSpec(kind="mmpp", qps=4.0, params=(("burst_factor", 6.0),)))
    assert base.content_hash == same.content_hash
    assert len({base.content_hash, other_kind.content_hash, other_params.content_hash}) == 3
    # Params are order-insensitive (sorted into canonical form).
    a = TraceSpec(kind="mmpp", params=(("burst_factor", 6.0), ("dwell_burst", 5.0)))
    b = TraceSpec(kind="mmpp", params=(("dwell_burst", 5.0), ("burst_factor", 6.0)))
    assert a.token() == b.token()


def test_trace_spec_rejects_bad_workload_params():
    with pytest.raises(ValueError):
        TraceSpec(kind="mmpp", params=(("nope", 1.0),))
    with pytest.raises(ValueError):
        TraceSpec(kind="mmpp", params=(("burst_factor", 2.0), ("burst_factor", 3.0)))
    with pytest.raises(ValueError):
        TraceSpec(kind="nonsense")


def test_workload_cells_are_byte_deterministic(tmp_path):
    """Same seed -> byte-identical summaries for every arrival process."""
    from repro.runner.executor import run_cell

    for kind in ("static", "mmpp", "flash-crowd"):
        spec = tiny_spec(
            trace=TraceSpec(kind=kind, qps=4.0 if kind == "static" else None)
        )
        runs = [
            run_cell(spec, cache=ArtifactCache(root=tmp_path / f"{kind}-{i}"))
            for i in range(2)
        ]
        assert canonical_summaries_json(runs[0]) == canonical_summaries_json(runs[1])


def test_workload_grid_sweep_runs_and_caches(tmp_path):
    """A fig4-style sweep over two workloads flows through the cached runner."""
    traces = (TraceSpec(kind="static", qps=4.0), TraceSpec(kind="mmpp", qps=4.0))
    grid = ExperimentGrid.product(
        cascades=("sdturbo",), base_scale=TINY, systems=("diffserve",), traces=traces
    )
    cache = ArtifactCache(root=tmp_path)
    cold = run_grid(grid, jobs=1, cache=cache)
    assert cold.ok and cold.cached_count == 0
    warm = run_grid(grid, jobs=1, cache=cache)
    assert warm.ok and warm.cached_count == len(grid)
    assert warm.summaries_list() == cold.summaries_list()


def test_trace_seed_rerolls_arrivals_but_not_the_azure_shape():
    """TraceSpec.seed overrides arrival sampling only — the curve is stable."""
    from repro.runner.executor import resolve_trace

    base = tiny_spec(trace=TraceSpec(kind="azure"))
    rerolled = tiny_spec(trace=TraceSpec(kind="azure", seed=1))
    curve_a, trace_a = resolve_trace(base)
    curve_b, trace_b = resolve_trace(rerolled)
    import numpy as np

    assert np.allclose(curve_a.rates, curve_b.rates)  # same shape
    assert not np.array_equal(trace_a.arrival_times, trace_b.arrival_times)


# ------------------------------------------------------------ geo/shards axis
def test_geo_and_shards_are_cached_dimensions():
    plain = tiny_spec()
    geo = tiny_spec(geo="us-eu")
    geo4 = tiny_spec(geo="us-eu", shards=4)
    sharded = tiny_spec(shards=4)
    assert len({s.cache_key for s in (plain, geo, geo4, sharded)}) == 4
    assert "us-eu" in geo.label
    assert geo4.label.endswith("shards4")
    # JSON topologies hash by resolved canonical token, not source text.
    json_a = tiny_spec(geo='{"us": {"fleet": {"a100": 2}}, "eu": {"fleet": {"a100": 2}}}')
    json_b = tiny_spec(geo='{"eu": {"fleet": {"a100": 2}}, "us": {"fleet": {"a100": 2}}}')
    assert json_a.cache_key == json_b.cache_key
    assert "geo-json" in json_a.label


def test_spec_rejects_bad_geo_and_shards():
    with pytest.raises(ValueError):
        tiny_spec(shards=0)
    with pytest.raises(ValueError):
        tiny_spec(shards=True)
    with pytest.raises(ValueError):
        tiny_spec(geo="atlantis")
    with pytest.raises(ValueError):
        tiny_spec(geo="{bad json")


def test_grid_product_fans_out_geos_and_applies_shards():
    grid = ExperimentGrid.product(
        cascades=("sdturbo",),
        scales=(TINY,),
        systems=("diffserve",),
        traces=(TraceSpec(kind="static", qps=4.0),),
        geos=(None, "us-eu"),
        shards=2,
    )
    assert len(grid) == 2
    assert [spec.geo for spec in grid] == [None, "us-eu"]
    assert all(spec.shards == 2 for spec in grid)


def test_geo_cell_runs_sharded_and_matches_shard_counts(tmp_path):
    """One grid cell, geo topology, shards=1 vs shards=2: byte-identical."""
    from repro.runner.executor import run_cell

    cache = ArtifactCache(root=tmp_path)
    spec1 = tiny_spec(geo="us-eu", trace=TraceSpec(kind="static", qps=6.0))
    spec2 = tiny_spec(geo="us-eu", shards=2, trace=TraceSpec(kind="static", qps=6.0))
    a = canonical_summaries_json(run_cell(spec1, cache=cache))
    b = canonical_summaries_json(run_cell(spec2, cache=cache))
    assert a == b
