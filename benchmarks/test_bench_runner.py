"""Benchmark — cold vs. warm execution of an experiment grid through the runner.

Runs the same two-cell grid twice against one cache directory: the *cold* pass
builds datasets, trains the discriminator and simulates every cell; the *warm*
pass must be served entirely from the artifact cache without firing a single
simulation event.  Tracking both in ``BENCH_*.json`` makes the caching win a
first-class number; the warm/cold wall-clock ratio is reported as extra info,
not asserted, because one timing sample on a shared host is not a verdict.
"""

import time

from repro.runner.cache import ArtifactCache
from repro.runner.executor import run_grid
from repro.runner.spec import ExperimentGrid, TraceSpec


def runner_grid(bench_scale):
    return ExperimentGrid.product(
        cascades=("sdturbo",),
        base_scale=bench_scale,
        seeds=(0, 1),
        systems=("diffserve",),
        traces=(TraceSpec(kind="static", qps=8.0),),
    )


def test_bench_runner_cold(benchmark, bench_scale, tmp_path):
    grid = runner_grid(bench_scale)
    rounds = {"n": 0}

    def cold():
        rounds["n"] += 1
        cache = ArtifactCache(root=tmp_path / f"cold-{rounds['n']}")
        return run_grid(grid, jobs=1, cache=cache)

    report = benchmark.pedantic(cold, iterations=1, rounds=1)
    assert report.ok
    assert report.cached_count == 0


def test_bench_runner_warm(benchmark, bench_scale, tmp_path):
    grid = runner_grid(bench_scale)
    cache_root = tmp_path / "shared"

    start = time.perf_counter()
    cold_report = run_grid(grid, jobs=1, cache=ArtifactCache(root=cache_root))
    cold_seconds = time.perf_counter() - start
    assert cold_report.ok and cold_report.cached_count == 0

    def warm():
        return run_grid(grid, jobs=1, cache=ArtifactCache(root=cache_root))

    start = time.perf_counter()
    report = benchmark.pedantic(warm, iterations=1, rounds=1)
    warm_seconds = time.perf_counter() - start
    benchmark.extra_info["warm_over_cold"] = warm_seconds / cold_seconds
    assert report.ok
    # Every cell is a cache hit: nothing is re-simulated.
    assert report.cached_count == len(grid)
