"""Benchmark E8 — Figure 8: resource-allocation ablation.

Paper shape asserted: the full DiffServe allocation dominates the ablation
set — it has the best quality while keeping SLO violations low; pinning the
confidence threshold suffers elevated violations at the peak; AIMD batching
reacts only after violations occur and over-provisions, paying in quality;
and the "no queueing model" variant loses significant quality because the
2x-execution heuristic rules the heavyweight model out of the latency budget.
"""

from repro.experiments.studies import STUDIES, run_study


def test_bench_fig8(benchmark, bench_scale):
    result = benchmark.pedantic(
        run_study, args=(STUDIES["fig8"], "sdturbo", bench_scale), iterations=1, rounds=1
    )
    fid = {name: s["fid"] for (name,), s in result.summaries.items()}
    viol = {name: s["slo_violation_ratio"] for (name,), s in result.summaries.items()}

    # Full DiffServe keeps violations low with the best quality of the set.
    assert viol["diffserve"] < 0.05
    assert fid["diffserve"] == min(fid.values())

    # The pinned threshold cannot adapt and violates its SLO far more often.
    assert viol["static-threshold"] > 2.0 * viol["diffserve"]

    # AIMD batching over-provisions conservatively and pays for it in quality.
    assert fid["aimd"] > fid["diffserve"] + 0.5

    # Dropping the queueing model costs quality (paper: up to 12% worse FID).
    assert fid["no-queuing-model"] > fid["diffserve"] + 0.5

    # The full system is on the quality Pareto frontier of the ablation:
    # nothing both improves FID and reduces violations.
    for other in ("static-threshold", "aimd", "no-queuing-model"):
        assert not (
            fid[other] < fid["diffserve"] - 0.2 and viol[other] < viol["diffserve"] - 0.005
        )
