"""Benchmark E10 — Table 1: qualitative comparison of serving approaches.

Regenerates the table and checks every row against the paper, then verifies
behaviourally (via short simulations) that the "query-aware" column is real:
the query-aware systems' deferral decisions correlate with query difficulty,
the query-agnostic ones don't.
"""

import numpy as np

from repro.baselines.registry import baseline_table_rows, render_baseline_table
from repro.core.query import QueryStage
from repro.experiments.harness import default_trace, shared_components
from repro.experiments.harness import build_comparison_systems


def test_bench_table1(benchmark, bench_scale):
    rows = benchmark.pedantic(baseline_table_rows, iterations=1, rounds=1)
    table = {name: (alloc, aware) for name, alloc, aware in rows}
    assert table == {
        "Clipper-Light": ("Static", "No"),
        "Clipper-Heavy": ("Static", "No"),
        "Proteus": ("Dynamic", "No"),
        "DiffServe-Static": ("Static", "Yes"),
        "DiffServe": ("Dynamic", "Yes"),
    }
    rendered = render_baseline_table()
    assert all(name in rendered for name in table)


def test_bench_table1_query_awareness_is_behavioural(bench_scale, row_recorder):
    """DiffServe defers hard queries; Proteus's routing ignores difficulty."""
    cascade, dataset, discriminator = shared_components("sdturbo", bench_scale)
    curve, trace = default_trace("sdturbo", bench_scale)
    systems = build_comparison_systems(
        "sdturbo",
        bench_scale,
        anticipated_peak_qps=0.8 * curve.peak,
        dataset=dataset,
        discriminator=discriminator,
        systems=("proteus", "diffserve"),
    )

    def difficulty_gap(system):
        """Mean difficulty of heavy- minus light-stage completions, from the
        rows recorded while ``system`` runs."""
        row_recorder.rows.clear()
        system.run(trace)
        heavy = [r.query.difficulty for r in row_recorder.rows if r.stage == QueryStage.HEAVY]
        light = [r.query.difficulty for r in row_recorder.rows if r.stage == QueryStage.LIGHT]
        if not heavy or not light:
            return 0.0
        return float(np.mean(heavy) - np.mean(light))

    diffserve_gap = difficulty_gap(systems["diffserve"])
    proteus_gap = difficulty_gap(systems["proteus"])
    # Query-aware routing sends clearly harder queries to the heavy model.
    assert diffserve_gap > 0.05
    # Query-agnostic routing shows no such separation.
    assert abs(proteus_gap) < 0.05
