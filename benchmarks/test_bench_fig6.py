"""Benchmark E6 — Figure 6: average FID / SLO violation for Cascades 2 and 3.

Paper shape asserted: across both cascades DiffServe reduces average FID
relative to every baseline except Clipper-Heavy, and its SLO violation ratio
is dramatically lower than Clipper-Heavy's and no worse than the other
quality-preserving baselines (within a small tolerance at reduced scale).
"""

from repro.experiments.studies import STUDIES, run_study


def test_bench_fig6(benchmark, bench_scale):
    result = benchmark.pedantic(
        run_study, args=(STUDIES["fig6"],), kwargs={"scale": bench_scale}, iterations=1, rounds=1
    )
    assert result.groups() == ["sdxs", "sdxlltn"]

    for cascade in ("sdxs", "sdxlltn"):
        rows = [row for row in result.summaries if row[0] == cascade]
        fid = {row[1]: result.summaries[row]["fid"] for row in rows}
        viol = {row[1]: result.summaries[row]["slo_violation_ratio"] for row in rows}

        # DiffServe beats the query-agnostic baselines on quality.
        assert fid["diffserve"] < fid["clipper-light"]
        assert fid["diffserve"] < fid["proteus"]
        # And is at least competitive with the query-aware static system.
        assert fid["diffserve"] < fid["diffserve-static"] + 1.0
        # Paper: 6-24% FID reduction vs Clipper-Light / Proteus.
        assert (fid["clipper-light"] - fid["diffserve"]) / fid["clipper-light"] > 0.05

        # Clipper-Heavy pays with massive SLO violations.
        assert viol["clipper-heavy"] > 0.25
        assert viol["diffserve"] < 0.10
        assert viol["diffserve"] < viol["clipper-heavy"] / 3
        assert viol["diffserve"] <= viol["proteus"] + 0.03
        assert viol["diffserve"] <= viol["diffserve-static"] + 0.03
