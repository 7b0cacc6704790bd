"""Benchmark E1 — Figure 1a: FID vs. latency for cascades with different routers.

Paper shape asserted: the trained discriminator's cascade dominates the
PickScore / CLIPScore / Random cascades, and the metric-threshold cascades are
no better than random routing.
"""

import pytest

from repro.experiments.offline import run_fig1a


@pytest.mark.parametrize("cascade_name", ["sdturbo", "sdxs"])
def test_bench_fig1a(benchmark, bench_scale, cascade_name):
    result = benchmark.pedantic(
        run_fig1a, args=(cascade_name, bench_scale), kwargs={"n_thresholds": 9},
        iterations=1, rounds=1,
    )

    disc = result.curves["discriminator"].best_fid()
    random_fid = result.curves["random"].best_fid()
    pick_fid = result.curves["pickscore"].best_fid()
    clip_fid = result.curves["clipscore"].best_fid()

    # The trained discriminator wins.
    assert disc < random_fid + 0.2
    assert disc < pick_fid + 0.2
    assert disc < clip_fid + 0.2
    # PickScore / CLIPScore cascades are no better than random routing
    # (allowing a small tolerance for the reduced scale).
    assert pick_fid > random_fid - 1.0
    assert clip_fid > random_fid - 1.0

    # Independent variants: the heavy model (sd-v1.5) is slower but better
    # than the light distilled models.
    points = result.variant_points
    assert points["sd-v1.5"].fid < points["sd-turbo"].fid
    assert points["sd-v1.5"].mean_latency > points["sd-turbo"].mean_latency
