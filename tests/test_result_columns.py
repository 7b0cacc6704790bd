"""The result collector as a column writer, checked against the record path.

* Differential oracle: on real cells, the drained columns equal what the
  per-completion ``QueryRecord`` path built, column by column, dtypes and
  NaN positions included.
* Fold on read: however a stream of completions is split by live-view
  reads, the lazily folded accumulators hold the same bits as one ``add``
  per completion.
* ``result()`` closes the collector: no buffered rows or pending
  completions outlive the run.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.registry import build_system
from repro.core.config import FleetSpec
from repro.core.query import Query, QueryRecord, QueryStage
from repro.core.results import ColumnStore, ResultCollector
from repro.core.system import ClientSource
from repro.metrics.accumulators import GaussianStats, P2Quantile, StreamingMoments
from repro.models.dataset import make_coco_like
from repro.models.generation import GeneratedImage
from repro.runner.dimensions import DIMENSIONS
from repro.workloads import make_workload

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

DIM = 8


def _assert_same_columns(expected: ColumnStore, actual: ColumnStore) -> None:
    for column in dataclasses.fields(ColumnStore):
        want, got = getattr(expected, column.name), getattr(actual, column.name)
        assert got.dtype == want.dtype, column.name
        assert got.shape == want.shape, column.name
        floats = want.dtype.kind == "f"
        assert np.array_equal(got, want, equal_nan=floats), column.name


class _RecordShadow:
    """Replays the collector's calls into ``QueryRecord`` objects, as the
    collector itself did before it wrote columns."""

    def __init__(self, monkeypatch) -> None:
        self.records = []
        self._retries = {}
        complete, drop, retry = (
            ResultCollector.complete,
            ResultCollector.drop,
            ResultCollector.record_retry,
        )

        def shadow_complete(collector, query, image, stage, confidence, deferred, now):
            self.records.append(
                QueryRecord(
                    query=query,
                    stage=stage,
                    completion_time=now,
                    model_used=image.variant_name,
                    quality=image.quality,
                    features=image.features,
                    confidence=confidence,
                    deferred=deferred,
                    retries=self._retries.pop(query.query_id, 0),
                )
            )
            complete(collector, query, image, stage, confidence, deferred, now)

        def shadow_drop(collector, query):
            self.records.append(
                QueryRecord(
                    query=query,
                    stage=QueryStage.DROPPED,
                    retries=self._retries.pop(query.query_id, 0),
                )
            )
            drop(collector, query)

        def shadow_retry(collector, query):
            self._retries[query.query_id] = self._retries.get(query.query_id, 0) + 1
            retry(collector, query)

        monkeypatch.setattr(ResultCollector, "complete", shadow_complete)
        monkeypatch.setattr(ResultCollector, "drop", shadow_drop)
        monkeypatch.setattr(ResultCollector, "record_retry", shadow_retry)


def _cascade_cell():
    system = build_system("sdturbo", fleet=FleetSpec.homogeneous(2), dataset_size=60, seed=0)
    return system, make_workload("static", duration=30.0, qps=20.0, seed=0)


def _storm_cell():
    system = build_system(
        "sdturbo",
        fleet=FleetSpec.homogeneous(4),
        dataset_size=100,
        seed=3,
        replan_epoch=3.0,
        replan_policy="adaptive",
        faults=DIMENSIONS["faults"].lookup("storm"),
    )
    return system, make_workload("static", duration=40.0, qps=6.0, seed=3)


@pytest.mark.parametrize("cell", [_cascade_cell, _storm_cell], ids=["cascade", "storm"])
def test_drained_columns_match_the_record_path(monkeypatch, cell):
    system, workload = cell()
    shadow = _RecordShadow(monkeypatch)
    result = system.run(workload)
    cols = result.cols
    dim = system.dataset.real_features.shape[1]

    assert len(shadow.records) == len(cols) > 0
    assert cols.dropped.any() and cols.deferred.any()
    if cell is _storm_cell:
        assert cols.retries.any()
    _assert_same_columns(ColumnStore.from_records(shadow.records, dim), cols)
    # The lazy record view round-trips to the same columns and carries the
    # objects the columns do not: the queries and the model names.
    _assert_same_columns(ColumnStore.from_records(result.records, dim), cols)
    for mine, theirs in zip(result.records, shadow.records):
        assert mine.query is theirs.query
        assert mine.model_used == theirs.model_used
    assert result.completed_records == [r for r in result.records if not r.dropped]


def test_result_closes_the_collector():
    system, workload = _cascade_cell()
    runtime = system.prepare()
    ClientSource(runtime.sim, workload, system.dataset, runtime.load_balancer, system.config.slo)
    horizon = system.horizon(workload)
    runtime.sim.run(until=horizon)
    collector = runtime.collector
    assert len(collector) > 0 and collector.pending_rows > 0

    result = runtime.result(horizon)

    assert len(collector) == 0
    assert collector.pending_rows == 0
    total = collector.completed_count + collector.dropped_count
    assert len(result.records) == len(result.cols) == total
    with pytest.raises(RuntimeError, match="closed"):
        collector.running_summary()


# --------------------------------------------------------------------------
# Fold on read
# --------------------------------------------------------------------------


def _stream(seed: int, n: int):
    """Feature rows over many magnitudes and latencies with frequent ties."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.integers(-6, 7, size=(n, 1))
    features = rng.normal(size=(n, DIM)) * scales
    latencies = np.where(
        rng.random(n) < 0.5, rng.choice([0.25, 0.5, 1.0, 2.0], size=n), rng.exponential(size=n)
    )
    return features, latencies


def _completions(collector, features, latencies, start):
    for i in range(start, start + len(features)):
        query = Query(query_id=i, arrival_time=float(i), prompt="p", difficulty=0.5, slo=2.0)
        image = GeneratedImage(
            query_id=i, variant_name="m", quality=0.5, features=features[i - start]
        )
        done = query.arrival_time + float(latencies[i - start])
        collector.complete(query, image, QueryStage.LIGHT, None, False, done)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 700),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
    drain_at=st.sampled_from([None, 0.5]),
)
@settings(max_examples=25, deadline=None)
def test_lazy_fold_equals_per_row_add(seed, n, cuts, drain_at):
    features, latencies = _stream(seed, n)
    collector = ResultCollector(make_coco_like(50, seed=0, feature_dim=DIM))
    bounds = sorted({0, n, *(int(c * n) for c in cuts)})
    for lo, hi in zip(bounds, bounds[1:]):
        _completions(collector, features[lo:hi], latencies[lo:hi], lo)
        if drain_at is not None and lo <= drain_at * n < hi:
            collector.drain()  # a drain folds the completions it takes
        collector.running_summary()  # a live read folds what is pending

    stats, moments, p99 = GaussianStats(DIM), StreamingMoments(), P2Quantile(0.99)
    for i, row in enumerate(features):
        stats.add(row)
        latency = (float(i) + float(latencies[i])) - float(i)
        moments.add(latency)
        p99.add(latency)

    assert collector.pending_rows == 0
    folded = collector.feature_stats
    assert folded.count == stats.count == n
    assert np.array_equal(folded.sum, stats.sum)
    assert np.array_equal(folded.outer, stats.outer)
    live = collector.latency_moments
    assert (live.count, live.mean, live._m2, live.minimum, live.maximum) == (
        moments.count,
        moments.mean,
        moments._m2,
        moments.minimum,
        moments.maximum,
    )
    live_p99 = collector.latency_p99
    assert live_p99.count == p99.count
    assert live_p99._heights == p99._heights
    assert live_p99._positions == p99._positions
    assert live_p99._desired == p99._desired


@pytest.mark.parametrize("n", [1, 63, 64, 65, 1000])
def test_add_rows_is_bitwise_the_per_row_loop(n):
    features, _ = _stream(n, n)
    start = np.random.default_rng(1).normal(size=(DIM, DIM))
    rows = GaussianStats(DIM, count=3, sum=start[0], outer=start)
    loop = GaussianStats(DIM, count=3, sum=start[0], outer=start)
    rows.add_rows(list(features))
    for row in features:
        loop.add(row)
    assert rows.count == loop.count
    assert np.array_equal(rows.sum, loop.sum)
    assert np.array_equal(rows.outer, loop.outer)


class _ScanP2(P2Quantile):
    """P² with the cell search it had before ``bisect``: a linear scan."""

    def _cell(self, value):
        h = self._heights
        return next(i for i in range(4) if h[i] <= value < h[i + 1])


@given(
    values=st.lists(
        st.one_of(st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0]), st.floats(-1e3, 1e3)),
        min_size=6,
        max_size=300,
    ),
    q=st.sampled_from([0.5, 0.9, 0.99]),
)
@settings(max_examples=60, deadline=None)
def test_p2_bisect_matches_the_linear_scan(values, q):
    """Ties included, the ``bisect`` cell search leaves P² in the same state
    as the linear scan after every observation."""
    fast, scan = P2Quantile(q), _ScanP2(q)
    for value in values:
        fast.add(value)
        scan.add(value)
        assert fast._heights == scan._heights
        assert fast._positions == scan._positions
        assert fast._heights == sorted(fast._heights)
    assert fast.value == scan.value
