"""Tests for latency profiles."""

import numpy as np
import pytest

from repro.models.profiles import DEFAULT_BATCH_SIZES, LatencyProfile, ProfiledTable, merge_profiles


def test_latency_increases_with_batch_size():
    profile = LatencyProfile(per_image=0.5)
    latencies = [profile.latency(b) for b in DEFAULT_BATCH_SIZES]
    assert all(b > a for a, b in zip(latencies, latencies[1:]))


def test_throughput_increases_with_batch_size():
    profile = LatencyProfile(per_image=0.5, batching_gain=0.25)
    throughputs = [profile.throughput(b) for b in DEFAULT_BATCH_SIZES]
    assert all(b > a for a, b in zip(throughputs, throughputs[1:]))


def test_batching_efficiency_bounds():
    profile = LatencyProfile(per_image=1.0, batching_gain=0.3)
    assert profile.batching_efficiency(1) == pytest.approx(1.0)
    assert profile.batching_efficiency(1000) == pytest.approx(0.7, abs=1e-3)


def test_sample_latency_without_rng_is_deterministic():
    profile = LatencyProfile(per_image=1.0)
    assert profile.sample_latency(4) == profile.latency(4)


def test_sample_latency_jitter_is_bounded_and_positive():
    profile = LatencyProfile(per_image=1.0, jitter=0.05)
    rng = np.random.default_rng(0)
    samples = [profile.sample_latency(2, rng) for _ in range(200)]
    base = profile.latency(2)
    assert all(s > 0 for s in samples)
    assert np.mean(samples) == pytest.approx(base, rel=0.05)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        LatencyProfile(per_image=0.0)
    with pytest.raises(ValueError):
        LatencyProfile(per_image=1.0, batching_gain=1.0)
    with pytest.raises(ValueError):
        LatencyProfile(per_image=1.0, fixed_overhead=-0.1)
    with pytest.raises(ValueError):
        LatencyProfile(per_image=1.0, jitter=-0.1)
    with pytest.raises(ValueError):
        LatencyProfile(per_image=1.0).latency(0)


def test_profiled_table_blends_observations():
    table = ProfiledTable(profile=LatencyProfile(per_image=1.0), alpha=0.5)
    offline = table.latency(2)
    table.observe(2, offline * 2)
    blended = table.latency(2)
    assert offline < blended < offline * 2
    # Unobserved batch sizes still come from the offline profile.
    assert table.latency(4) == pytest.approx(table.profile.latency(4))


def test_profiled_table_rejects_nonpositive_latency():
    table = ProfiledTable(profile=LatencyProfile(per_image=1.0))
    with pytest.raises(ValueError):
        table.observe(1, 0.0)


def test_profiled_table_throughput_consistent():
    table = ProfiledTable(profile=LatencyProfile(per_image=1.0))
    assert table.throughput(4) == pytest.approx(4 / table.latency(4))


def test_merge_profiles_averages_fields():
    a = LatencyProfile(per_image=1.0, fixed_overhead=0.0)
    b = LatencyProfile(per_image=3.0, fixed_overhead=0.2)
    merged = merge_profiles([a, b])
    assert merged.per_image == pytest.approx(2.0)
    assert merged.fixed_overhead == pytest.approx(0.1)


def test_merge_profiles_empty_rejected():
    with pytest.raises(ValueError):
        merge_profiles([])
