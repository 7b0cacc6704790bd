"""Tests for SLO accounting and latency statistics."""

import numpy as np
import pytest

from repro.metrics.latency import LatencyStats, percentile
from repro.metrics.slo import SLOReport


def test_slo_report_validation():
    with pytest.raises(ValueError):
        SLOReport(total=1, completed=2, violated=0, dropped=0)
    with pytest.raises(ValueError):
        SLOReport(total=-1, completed=0, violated=0, dropped=0)
    empty = SLOReport(total=0, completed=0, violated=0, dropped=0)
    assert empty.violation_ratio == 0.0
    # One on time, one late, one dropped: late and dropped both violate.
    report = SLOReport(total=3, completed=2, violated=1, dropped=1)
    assert report.violation_ratio == pytest.approx(2 / 3)


def test_latency_stats_summary():
    stats = LatencyStats.from_latencies(np.linspace(0.1, 1.0, 100))
    assert stats.count == 100
    assert stats.p50 < stats.p95 < stats.p99 <= stats.maximum
    assert stats.mean == pytest.approx(0.55, abs=0.01)
    assert "p95" in str(stats)


def test_latency_stats_empty_and_invalid():
    empty = LatencyStats.from_latencies([])
    assert empty.count == 0 and np.isnan(empty.mean)
    assert str(empty) == "LatencyStats(empty)"
    with pytest.raises(ValueError):
        LatencyStats.from_latencies([-1.0])


def test_percentile_helper():
    assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)
    assert np.isnan(percentile([], 50))
    with pytest.raises(ValueError):
        percentile([1.0], 150)
