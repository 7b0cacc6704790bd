"""Smoke + shape tests for the experiment runners (small scales).

Heavier, paper-facing assertions live in the benchmark harness; these tests
check that each experiment runs, produces sane structures, and preserves the
headline qualitative findings at reduced scale.
"""

import numpy as np
import pytest

from repro.experiments import drift_adaptation, milp_overhead, offline
from repro.experiments.harness import (
    DEFAULT_QPS_RANGE,
    ExperimentScale,
    default_trace,
    format_table,
    shared_components,
)
from repro.experiments.offline import CascadeEvaluator

SMALL = ExperimentScale(dataset_size=200, trace_duration=90.0, num_workers=16)


def test_experiment_scale_validation():
    with pytest.raises(ValueError):
        ExperimentScale(dataset_size=10)
    with pytest.raises(ValueError):
        ExperimentScale(trace_duration=0.0)
    with pytest.raises(ValueError):
        ExperimentScale(num_workers=1)


def test_shared_components_and_default_trace():
    cascade, dataset, discriminator = shared_components("sdturbo", SMALL)
    assert cascade.name == "sdturbo"
    assert len(dataset) == SMALL.dataset_size
    assert discriminator.latency_s > 0
    curve, trace = default_trace("sdturbo", SMALL)
    lo, hi = DEFAULT_QPS_RANGE["sdturbo"]
    assert curve.peak == pytest.approx(hi, abs=1e-6)
    assert len(trace) > 100


def test_format_table_renders_all_rows():
    text = format_table(["a", "b"], [["x", 1.0], ["longer", 2.5]])
    assert "longer" in text and "2.500" in text
    assert len(text.splitlines()) == 4


# --------------------------------------------------------------- cascade eval
def test_cascade_evaluator_single_model_points(coco_dataset, cascade1):
    evaluator = CascadeEvaluator(coco_dataset, cascade1.light, cascade1.heavy, n_queries=200)
    light = evaluator.single_model_point("light")
    heavy = evaluator.single_model_point("heavy")
    assert heavy.fid < light.fid
    assert heavy.mean_latency > light.mean_latency


def test_cascade_sweep_monotone_deferral(coco_dataset, cascade1, trained_discriminator):
    evaluator = CascadeEvaluator(coco_dataset, cascade1.light, cascade1.heavy, n_queries=200)
    curve = evaluator.sweep(trained_discriminator, np.linspace(0, 1, 6))
    fractions = [p.deferral_fraction for p in curve.points]
    assert all(b >= a - 1e-9 for a, b in zip(fractions, fractions[1:]))
    latencies = [p.mean_latency for p in curve.points]
    assert all(b >= a - 1e-9 for a, b in zip(latencies, latencies[1:]))


# --------------------------------------------------------------------- fig 1a
def test_fig1a_discriminator_beats_metric_thresholds():
    result = offline.run_fig1a("sdturbo", SMALL, n_thresholds=7)
    disc = result.curves["discriminator"].best_fid()
    assert disc < result.curves["pickscore"].best_fid() + 0.2
    assert disc < result.curves["clipscore"].best_fid() + 0.2
    assert disc < result.curves["random"].best_fid() + 0.2
    # PickScore / CLIPScore are no better than random (within tolerance).
    assert result.curves["pickscore"].best_fid() > result.curves["random"].best_fid() - 1.0
    assert len(result.variant_points) >= 3


# --------------------------------------------------------------------- fig 1b
def test_fig1b_easy_fraction_in_paper_band():
    result = offline.run_fig1b("sdturbo", SMALL)
    assert 0.1 <= result.easy_fraction_confidence <= 0.6
    assert 0.1 <= result.easy_fraction_pickscore <= 0.6
    xs, ys = result.cdf("confidence")
    assert np.all(np.diff(ys) >= 0)
    assert ys[-1] == pytest.approx(1.0)


# --------------------------------------------------------------------- fig 1c
def test_fig1c_pareto_frontier_properties():
    result = offline.run_fig1c(scale=SMALL, n_thresholds=5, num_workers=10)
    assert result.num_configurations > 100
    xs, ys = result.frontier_arrays()
    assert len(xs) >= 2
    # Along the frontier, higher throughput must cost (weakly) higher FID.
    assert np.all(np.diff(xs) > 0)
    assert np.all(np.diff(ys) >= -1e-9)


# -------------------------------------------------------------- MILP overhead
def test_milp_overhead_fast_and_consistent():
    result = milp_overhead.run_milp_overhead(scale=SMALL, demands=(4.0, 16.0, 28.0))
    assert result.mean_time_ms < 500.0
    assert all(1 <= n <= milp_overhead.MAX_LPS_PER_PLAN for n in result.lp_solves)
    assert result.always_agrees
    assert len(result.thresholds) == 3
    # Threshold falls (weakly) as demand rises.
    assert result.thresholds[0] >= result.thresholds[-1] - 1e-9


# ------------------------------------------------------------ drift adaptation
def test_drift_table_reproduces_byte_for_byte():
    # Eight workers keep the re-solves on HiGHS (non-zero solve counts).
    scale = ExperimentScale(dataset_size=60, trace_duration=30.0, num_workers=8)
    first = drift_adaptation.main(scale)
    assert drift_adaptation.main(scale) == first
    assert "solves/replan" in first.splitlines()[1]
    result = drift_adaptation.run_drift_adaptation(scale=scale, workloads=("flash-crowd",))
    assert result.arm("flash-crowd", "static").lps_per_replan == 0.0
    assert result.arm("flash-crowd", "periodic").lps_per_replan > 0.0


# ----------------------------------------------------------------- reuse study
def test_reuse_study_matches_paper_direction():
    result = offline.run_reuse_study(("sdturbo", "sdxs"), SMALL)
    # SD-Turbo latents are compatible: no significant FID change.
    assert abs(result.fid_change("sdturbo")) < 0.3
    # SDXS latents are not: FID increases noticeably (paper: 18.55 -> 19.75).
    assert result.fid_change("sdxs") > 0.3


def _fake_grid(monkeypatch, summaries, status="ok"):
    """Serve ``run_grid`` from canned per-cell summaries, in grid order."""
    from repro.runner import executor

    def run_grid(grid, **kwargs):
        cells = [
            executor.CellResult(spec=spec, status=status, summaries={"diffserve": summary})
            for spec, summary in zip(grid, summaries)
        ]
        return executor.GridReport(cells=cells)

    monkeypatch.setattr(executor, "run_grid", run_grid)


def test_study_with_failed_cells_raises_one_error(monkeypatch):
    from repro.experiments.studies import STUDIES, run_study

    _fake_grid(monkeypatch, [{}] * 3, status="error")
    with pytest.raises(RuntimeError, match=r"^chaos study cells failed: .*: error; .*: error"):
        run_study(STUDIES["chaos"])


def test_fleet_study_verdicts_name_winners_and_front(monkeypatch, capsys):
    from repro.experiments import studies

    def arm(violation, fid):
        return {
            "slo_violation_ratio": violation,
            "fid": fid,
            "p99_latency": 4.0,
            "fleet_cost": 1.0,
        }

    # mmpp: h100+l4 ties the reference on violation and wins on FID; diurnal:
    # every mixed fleet trades one objective for the other.
    _fake_grid(
        monkeypatch,
        [arm(0.02, 20.0), arm(0.02, 19.0), arm(0.03, 21.0)]
        + [arm(0.02, 20.0), arm(0.03, 19.0), arm(0.01, 21.0)],
    )
    output = studies.main("fleet")
    capsys.readouterr()
    assert output.splitlines()[-2:] == [
        "mmpp: mixed fleet(s) h100+l4 match or Pareto-dominate a100x16 at equal aggregate cost",
        "diurnal: no mixed fleet dominates a100x16; front = a100+l4, a100x16, h100+l4",
    ]
