"""Benchmark E9 — Figure 9: sensitivity of DiffServe to the SLO setting.

Paper shape asserted: across a broad range of SLO values DiffServe keeps the
SLO violation ratio low (a few percent) and the quality high; quality can only
improve (FID fall) as the SLO is relaxed, since the allocator gains latency
budget for the heavyweight model.
"""

from dataclasses import replace

import numpy as np

from repro.experiments.studies import STUDIES, run_study, slo_arms


def test_bench_fig9(benchmark, bench_scale):
    slos = (3.0, 5.0, 8.0)
    study = replace(STUDIES["fig9"], arms=slo_arms(slos))
    result = benchmark.pedantic(
        run_study, args=(study,), kwargs={"scale": bench_scale}, iterations=1, rounds=1
    )

    # Rows are in arm order, i.e. ascending SLO.
    violations = [s["slo_violation_ratio"] for s in result.summaries.values()]
    fids = [s["fid"] for s in result.summaries.values()]

    # Low violations across the whole SLO range (paper: < 5%).
    assert max(violations) < 0.08
    # Quality does not degrade as the SLO is relaxed (small tolerance).
    assert fids[-1] <= fids[0] + 0.5
    # All FIDs stay in a sane band.
    assert all(np.isfinite(f) and 12 < f < 26 for f in fids)
