"""Reproduce the motivation study (Figures 1a and 1b).

Shows (i) that cascades routed by PickScore / CLIPScore thresholds are no
better than random routing while the trained discriminator clearly wins, and
(ii) that a sizeable fraction of queries are "easy" — the lightweight model
matches or beats the heavyweight model on them.

Run with:  python examples/motivation_study.py [--fast]
"""

import argparse

from repro.experiments.harness import ExperimentScale, format_table
from repro.experiments.offline import run_fig1a, run_fig1b


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="use a smaller prompt set")
    args = parser.parse_args()
    scale = (
        ExperimentScale(dataset_size=400, trace_duration=120.0)
        if args.fast
        else ExperimentScale(dataset_size=3000, trace_duration=360.0)
    )

    for cascade_name in ("sdturbo", "sdxs"):
        print(f"=== Cascade {cascade_name} (heavy model: SDv1.5) ===")
        fig1a = run_fig1a(cascade_name, scale)

        print("Independent model variants (FID vs latency):")
        rows = [
            [name, point.fid, point.mean_latency]
            for name, point in fig1a.variant_points.items()
        ]
        print(format_table(["variant", "FID", "latency (s)"], rows))

        print("\nCascade routing strategies (best FID over threshold sweep):")
        rows = [
            [label, curve.best_fid(), curve.fid_at_latency(1.0)]
            for label, curve in fig1a.curves.items()
        ]
        print(format_table(["routing", "best FID", "best FID @ <=1s"], rows))

        fig1b = run_fig1b(cascade_name, scale)
        print(
            f"\nEasy-query fraction: {fig1b.easy_fraction_confidence * 100:.0f}% by "
            f"discriminator confidence, {fig1b.easy_fraction_pickscore * 100:.0f}% by PickScore"
        )
        xs, ys = fig1b.cdf("confidence", n_points=9)
        print("CDF of confidence difference (light - heavy):")
        print(format_table(["difference", "CDF"], [[float(x), float(y)] for x, y in zip(xs, ys)]))
        print()


if __name__ == "__main__":
    main()
