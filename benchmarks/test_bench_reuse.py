"""Benchmark E12 — Section 5 reuse study.

Paper shape asserted: reusing SD-Turbo outputs inside SDv1.5 leaves FID
essentially unchanged, while reusing SDXS outputs degrades FID noticeably
(paper: 18.55 -> 19.75 on MS-COCO).
"""

from repro.experiments.offline import run_reuse_study


def test_bench_reuse(benchmark, bench_scale):
    result = benchmark.pedantic(
        run_reuse_study, kwargs={"cascades": ("sdturbo", "sdxs"), "scale": bench_scale},
        iterations=1, rounds=1,
    )

    # Compatible pair: no significant change.
    assert abs(result.fid_change("sdturbo")) < 0.3
    # Incompatible pair: FID increases by roughly one point.
    assert 0.3 < result.fid_change("sdxs") < 3.0
    # Baseline (fresh) FIDs in the paper's ballpark.
    assert 14 < result.fid_without_reuse["sdturbo"] < 22
    assert 14 < result.fid_without_reuse["sdxs"] < 22
