"""Benchmark E7 — Figure 7: discriminator architecture / training-data ablation.

Paper shape asserted: EfficientNet-V2 trained with ground-truth real images
achieves the lowest FID of the four discriminator configurations on both
cascades (it is the configuration DiffServe ships with).
"""

from repro.experiments.offline import run_fig7


def test_bench_fig7(benchmark, bench_scale):
    result = benchmark.pedantic(
        run_fig7,
        kwargs={"cascades": ("sdturbo", "sdxs"), "scale": bench_scale, "n_thresholds": 9},
        iterations=1,
        rounds=1,
    )

    for cascade in ("sdturbo", "sdxs"):
        best = {
            variant: result.best_fid(cascade, variant) for variant in result.curves[cascade]
        }
        # EfficientNet + ground truth is (at worst, nearly) the best option.
        target = best["efficientnet-gt"]
        assert target <= best["resnet-gt"] + 0.3
        assert target <= best["vit-gt"] + 0.3
        assert target <= best["efficientnet-fake"] + 0.3
        # And it clearly beats the weakest configuration.
        assert target < max(best.values())
