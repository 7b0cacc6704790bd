"""Benchmark E3 — Figure 1c: FID vs. serving throughput Pareto frontier.

Paper shape asserted: sweeping (threshold, batch sizes, placement) on a
10-worker cluster produces a broad configuration cloud whose Pareto frontier
trades response quality for serving throughput — the highest-throughput
frontier point has a (weakly) worse FID than the lowest-throughput one.
"""

import numpy as np

from repro.experiments.offline import run_fig1c


def test_bench_fig1c(benchmark, bench_scale):
    result = benchmark.pedantic(
        run_fig1c,
        kwargs={"scale": bench_scale, "num_workers": 10, "n_thresholds": 9},
        iterations=1,
        rounds=1,
    )

    # A substantial configuration space was evaluated (paper: ~9K configs).
    assert result.num_configurations > 500

    xs, ys = result.frontier_arrays()
    assert len(xs) >= 2
    # Frontier is a genuine trade-off: throughput strictly increases and FID
    # weakly increases along it.
    assert np.all(np.diff(xs) > 0)
    assert np.all(np.diff(ys) >= -1e-9)
    assert ys[-1] >= ys[0]
    # Quality-throughput span is non-trivial.
    assert xs[-1] > 2 * xs[0]
