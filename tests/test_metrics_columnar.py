"""Equivalence tests for the columnar/streaming metrics pipeline.

Every vectorized path (columnar ``summary()``, ``violation_timeseries``,
streaming ``windowed_fid``, moments-cached FID) is pinned against a
brute-force per-row reimplementation of the legacy computation on
randomized runs, to ~1e-9.  The rows and the columns built from them come
from the root ``conftest.py``'s ``row_recorder``.
"""

import numpy as np
import pytest

from repro.core.query import Query, QueryStage
from repro.core.results import ColumnStore, ResultCollector, SimulationResult
from repro.metrics.accumulators import GaussianStats
from repro.metrics.fid import (
    RealMoments,
    fid_score,
    frechet_distance,
    frechet_from_moments,
    windowed_fid,
    windowed_fid_reference,
)
from repro.models.dataset import make_coco_like
from repro.models.generation import GeneratedImage

DIM = 8
SLO = 2.0
DURATION = 120.0


# --------------------------------------------------------------------------
# Synthetic runs
# --------------------------------------------------------------------------


def _random_rows(Row, seed: int, n: int = 400):
    """A randomized row list with drops, violations, and both stages."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        arrival = float(rng.uniform(0.0, DURATION))
        query = Query(query_id=i, arrival_time=arrival, prompt="p", difficulty=0.5, slo=SLO)
        if rng.random() < 0.15:
            rows.append(Row(query=query, stage=QueryStage.DROPPED))
            continue
        stage = QueryStage.HEAVY if rng.random() < 0.4 else QueryStage.LIGHT
        rows.append(
            Row(
                query=query,
                stage=stage,
                completion_time=arrival + float(rng.exponential(1.2)),
                model_used="m",
                quality=float(rng.uniform(0.0, 1.0)),
                features=rng.normal(size=DIM),
                confidence=float(rng.uniform()) if rng.random() < 0.8 else None,
                deferred=stage == QueryStage.HEAVY,
            )
        )
    return rows


def _result(recorder, seed: int, n: int = 400):
    """A result built by hand from random rows, and the rows."""
    rows = _random_rows(recorder.Row, seed, n)
    dataset = make_coco_like(200, seed=seed, feature_dim=DIM)
    cols = recorder.columns_from_rows(rows, DIM)
    return SimulationResult(cols=cols, dataset=dataset, slo=SLO, duration=DURATION), rows


def _write_rows(collector: ResultCollector, rows) -> None:
    """Hand every row to the collector's data path."""
    for r in rows:
        if r.dropped:
            collector.drop(r.query)
        else:
            image = GeneratedImage(
                query_id=r.query.query_id,
                variant_name=r.model_used,
                quality=r.quality,
                features=r.features,
            )
            collector.complete(r.query, image, r.stage, r.confidence, r.deferred, r.completion_time)


# --------------------------------------------------------------------------
# Brute-force references (the legacy per-record computations, verbatim)
# --------------------------------------------------------------------------


def _ref_summary(result: SimulationResult, records) -> dict:
    completed = [r for r in records if not r.dropped]
    dropped = sum(1 for r in records if r.dropped)
    violated = sum(1 for r in completed if r.slo_violated)
    latencies = np.array([r.latency for r in completed if r.latency is not None])
    feats = np.stack([r.features for r in completed if r.features is not None])
    qualities = [r.quality for r in completed if r.quality is not None]
    return {
        "total_queries": float(len(records)),
        "completed": float(len(completed)),
        "fid": fid_score(feats, result.dataset.real_features),
        "slo_violation_ratio": (violated + dropped) / len(records),
        "deferral_rate": sum(1 for r in completed if r.stage == QueryStage.HEAVY)
        / len(completed),
        "dropped": float(dropped),
        "mean_quality": float(np.mean(qualities)),
        "mean_latency": float(latencies.mean()),
        "p50_latency": float(np.percentile(latencies, 50)),
        "p99_latency": float(np.percentile(latencies, 99)),
        # Carried verbatim from the result, not derived from records: the
        # cost ledger's time-integrated total (A100-hours).
        "fleet_cost": result.fleet_cost,
    }


def _ref_violation_timeseries(result: SimulationResult, records, window: float):
    edges = np.arange(0.0, result.duration + window, window)
    centers = (edges[:-1] + edges[1:]) / 2.0
    ratios = np.zeros(len(centers))
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        in_window = [r for r in records if lo <= r.query.arrival_time < hi]
        if not in_window:
            continue
        ratios[i] = sum(1 for r in in_window if r.slo_violated) / len(in_window)
    return centers, ratios


# --------------------------------------------------------------------------
# Columnar result equivalence
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_columnar_summary_matches_brute_force(row_recorder, seed):
    result, rows = _result(row_recorder, seed)
    summary = result.summary()
    reference = _ref_summary(result, rows)
    assert set(summary) == set(reference)
    for key in reference:
        assert summary[key] == pytest.approx(reference[key], rel=1e-9, abs=1e-9), key


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("window", [7.5, 20.0, 60.0])
def test_columnar_violation_timeseries_matches_brute_force(row_recorder, seed, window):
    result, rows = _result(row_recorder, seed)
    centers, ratios = result.violation_timeseries(window)
    ref_centers, ref_ratios = _ref_violation_timeseries(result, rows, window)
    np.testing.assert_allclose(centers, ref_centers)
    np.testing.assert_allclose(ratios, ref_ratios, atol=1e-12)


def test_columnar_demand_timeseries_matches_histogram(row_recorder):
    result, rows = _result(row_recorder, 0)
    centers, demand = result.demand_timeseries(20.0)
    arrivals = np.array([r.query.arrival_time for r in rows])
    edges = np.arange(0.0, result.duration + 20.0, 20.0)
    counts, _ = np.histogram(arrivals, bins=edges)
    np.testing.assert_allclose(demand, counts / 20.0)
    assert len(centers) == len(demand)


def test_columnar_latency_stats_match_per_record_scan(row_recorder):
    result, rows = _result(row_recorder, 1)
    stats = result.latency_stats()
    latencies = [r.latency for r in rows if r.latency is not None]
    assert stats.count == len(latencies)
    assert stats.mean == pytest.approx(np.mean(latencies), rel=1e-12)
    assert stats.p99 == pytest.approx(np.percentile(latencies, 99), rel=1e-12)
    assert stats.maximum == pytest.approx(np.max(latencies), rel=1e-12)


def test_column_store_from_records_handles_empty_and_all_dropped(row_recorder):
    dataset = make_coco_like(50, seed=0, feature_dim=DIM)
    empty = SimulationResult(cols=ColumnStore.empty(DIM), dataset=dataset, slo=SLO, duration=10.0)
    assert empty.total_queries == 0
    assert empty.dropped_count == 0
    assert empty.slo_violation_ratio == 0.0
    assert np.isnan(empty.fid())
    dropped = [
        row_recorder.Row(
            query=Query(query_id=i, arrival_time=1.0, prompt="p", difficulty=0.5, slo=SLO),
            stage=QueryStage.DROPPED,
        )
        for i in range(3)
    ]
    all_dropped = SimulationResult(
        cols=row_recorder.columns_from_rows(dropped, DIM),
        dataset=dataset,
        slo=SLO,
        duration=10.0,
    )
    assert all_dropped.slo_violation_ratio == 1.0
    assert all_dropped.deferral_rate == 0.0
    assert all_dropped.latency_stats().count == 0


# --------------------------------------------------------------------------
# Collector-driven runs
# --------------------------------------------------------------------------


def test_collector_driven_result_matches_brute_force(row_recorder):
    """Rows written through the collector's data path yield the same
    columnar metrics as the per-row reference over the input rows."""
    dataset = make_coco_like(200, seed=3, feature_dim=DIM)
    rows = _random_rows(row_recorder.Row, 3)
    collector = ResultCollector(dataset)
    _write_rows(collector, rows)
    result = SimulationResult(cols=collector.drain(), dataset=dataset, slo=SLO, duration=DURATION)
    summary = result.summary()
    reference = _ref_summary(result, rows)
    for key in reference:
        assert summary[key] == pytest.approx(reference[key], rel=1e-9, abs=1e-9), key


def test_collector_running_summary_tracks_final_summary(row_recorder):
    """The O(1) counters the control loop reads while a run is in flight
    agree with the summary computed from the drained columns."""
    dataset = make_coco_like(200, seed=4, feature_dim=DIM)
    collector = ResultCollector(dataset)
    _write_rows(collector, _random_rows(row_recorder.Row, 4))
    completed, dropped = collector.completed_count, collector.dropped_count
    late = collector.violated_count
    final = SimulationResult(
        cols=collector.drain(), dataset=dataset, slo=SLO, duration=DURATION
    ).summary()
    assert (completed, dropped) == (final["completed"], final["dropped"])
    assert completed + dropped == final["total_queries"]
    assert (late + dropped) / (completed + dropped) == final["slo_violation_ratio"]


# --------------------------------------------------------------------------
# Streaming windowed FID
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_streaming_windowed_fid_matches_reference(seed):
    rng = np.random.default_rng(seed)
    n = 600
    real = rng.normal(size=(400, DIM))
    times = np.sort(rng.uniform(0.0, 100.0, size=n))
    feats = rng.normal(size=(n, DIM)) + 0.3
    centers, values = windowed_fid(times, feats, real, window=10.0, horizon=100.0)
    ref_centers, ref_values = windowed_fid_reference(times, feats, real, window=10.0, horizon=100.0)
    np.testing.assert_allclose(centers, ref_centers)
    np.testing.assert_allclose(values, ref_values, rtol=1e-9, atol=1e-9)


def test_streaming_windowed_fid_nan_carry_matches_reference():
    rng = np.random.default_rng(7)
    real = rng.normal(size=(300, DIM))
    # All completions land in the middle windows: leading windows stay NaN,
    # trailing windows carry the last computed value.
    times = rng.uniform(40.0, 60.0, size=200)
    feats = rng.normal(size=(200, DIM))
    _, values = windowed_fid(times, feats, real, window=10.0, horizon=100.0)
    _, ref_values = windowed_fid_reference(times, feats, real, 10.0, 100.0)
    np.testing.assert_allclose(values, ref_values, rtol=1e-9, atol=1e-9, equal_nan=True)
    assert np.isnan(values[:4]).all()
    assert np.isfinite(values[-1])


def test_streaming_windowed_fid_accepts_unsorted_timestamps():
    rng = np.random.default_rng(11)
    real = rng.normal(size=(300, DIM))
    times = rng.uniform(0.0, 100.0, size=400)  # deliberately unsorted
    feats = rng.normal(size=(400, DIM))
    _, values = windowed_fid(times, feats, real, window=20.0, horizon=100.0)
    _, ref_values = windowed_fid_reference(times, feats, real, 20.0, 100.0)
    np.testing.assert_allclose(values, ref_values, rtol=1e-9, atol=1e-9)


def test_fid_timeseries_uses_cached_real_moments(row_recorder):
    result, rows = _result(row_recorder, 2)
    centers, values = result.fid_timeseries(window=20.0)
    completed = [r for r in rows if r.features is not None]
    times = np.array([r.completion_time for r in completed])
    feats = np.stack([r.features for r in completed])
    ref_centers, ref_values = windowed_fid_reference(
        times, feats, result.dataset.real_features, 20.0, result.duration
    )
    np.testing.assert_allclose(centers, ref_centers)
    np.testing.assert_allclose(values, ref_values, rtol=1e-9, atol=1e-9, equal_nan=True)


def test_frechet_from_moments_matches_sqrtm_path():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.normal(size=(500, DIM))
        b = rng.normal(size=(500, DIM)) * 1.3 + 0.5
        moments = RealMoments.fit(b)
        mu, sigma = a.mean(axis=0), np.cov(a, rowvar=False)
        fast = frechet_from_moments(mu, sigma, moments)
        slow = frechet_distance(mu, sigma, moments.mu, moments.sigma)
        assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)


def test_fid_score_with_moments_matches_plain():
    rng = np.random.default_rng(6)
    gen = rng.normal(size=(400, DIM)) + 0.2
    real = rng.normal(size=(400, DIM))
    assert fid_score(gen, real_moments=RealMoments.fit(real)) == pytest.approx(
        fid_score(gen, real), rel=1e-9, abs=1e-9
    )


def test_dataset_real_moments_cached_and_correct():
    dataset = make_coco_like(150, seed=0, feature_dim=DIM)
    moments = dataset.real_moments
    assert moments is dataset.real_moments  # cached instance
    np.testing.assert_allclose(moments.mu, dataset.real_features.mean(axis=0))
    np.testing.assert_allclose(moments.sigma, np.cov(dataset.real_features, rowvar=False))
    np.testing.assert_allclose(moments.sqrt_sigma @ moments.sqrt_sigma, moments.sigma, atol=1e-10)
    # subset() must not inherit the parent's cached moments.
    sub = dataset.subset(50)
    np.testing.assert_allclose(sub.real_moments.mu, sub.real_features.mean(axis=0))


# --------------------------------------------------------------------------
# Accumulators
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_gaussian_stats_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(257, DIM))
    stats = GaussianStats.from_features(x)
    np.testing.assert_allclose(stats.mean, x.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(stats.cov(), np.cov(x, rowvar=False), rtol=1e-9, atol=1e-12)


def test_gaussian_stats_validation():
    with pytest.raises(ValueError):
        GaussianStats(0)
    with pytest.raises(ValueError, match="dimensionality"):
        GaussianStats(2).add_batch(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        GaussianStats(2).cov()  # not enough samples


