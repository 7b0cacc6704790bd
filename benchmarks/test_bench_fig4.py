"""Benchmark E4 — Figure 4: static-trace comparison at low/medium/high load.

Paper shape asserted: DiffServe offers the Pareto-optimal trade-off between
FID and SLO violations at every load level; Clipper-Light has (near) zero
violations but the worst FID; Clipper-Heavy has good FID but by far the most
violations at high load.
"""

from dataclasses import replace

from repro.experiments.studies import STUDIES, load_arms, run_study


def test_bench_fig4(benchmark, bench_scale):
    study = replace(STUDIES["fig4"], arms=load_arms(factors=(1.05, 1.5)))
    result = benchmark.pedantic(
        run_study, args=(study,), kwargs={"scale": bench_scale}, iterations=1, rounds=1
    )

    for load in result.groups():
        # DiffServe contributes a non-dominated point at every load level.
        assert result.holds("pareto", load)

        clipper_light = result.summary(load, "clipper-light")
        diffserve = [
            summary
            for row, summary in result.summaries.items()
            if row[0] == load and result.system(row) == "diffserve"
        ]
        best_diffserve_fid = min(s["fid"] for s in diffserve)
        best_diffserve_viol = min(s["slo_violation_ratio"] for s in diffserve)

        # Clipper-Light: lowest violations, worst quality.
        assert clipper_light["slo_violation_ratio"] <= 0.05
        assert clipper_light["fid"] > best_diffserve_fid
        # DiffServe keeps violations low everywhere.
        assert best_diffserve_viol <= 0.15

    # Clipper-Heavy collapses under high load (paper: 45-75% violations).
    assert result.summary("high", "clipper-heavy")["slo_violation_ratio"] > 0.3
