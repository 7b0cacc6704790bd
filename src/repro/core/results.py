"""Result collection and post-run analysis.

The analytics path is columnar: :class:`ResultCollector` writes each
finished query straight into column buffers and keeps live accumulators that
fold only when read, and :class:`SimulationResult` reads every metric —
summary scalars, latency percentiles, the violation/demand/FID time series —
from the drained :class:`ColumnStore` of NumPy arrays.  ``QueryRecord``
objects exist only for hand-built results and for readers of
:attr:`SimulationResult.records`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.query import Query, QueryRecord, QueryStage
from repro.metrics.accumulators import GaussianStats, P2Quantile, StreamingMoments
from repro.metrics.fid import frechet_from_moments, windowed_fid
from repro.metrics.latency import LatencyStats
from repro.metrics.slo import SLOReport
from repro.models.dataset import QueryDataset
from repro.models.generation import GeneratedImage

#: Integer codes for :class:`QueryStage` in the column store.
STAGE_CODES = {QueryStage.LIGHT: 0, QueryStage.HEAVY: 1, QueryStage.DROPPED: 2}
_STAGES = {code: stage for stage, code in STAGE_CODES.items()}


@dataclass
class ControlSnapshot:
    """One Controller decision, recorded for the time-series figures."""

    time: float
    threshold: float
    num_light: int
    num_heavy: int
    light_batch: int
    heavy_batch: int
    demand_estimate: float
    feasible: bool


@dataclass(frozen=True)
class ColumnStore:
    """Per-query measurements as parallel NumPy columns.

    One row per query that entered the system, in record order.  Dropped
    queries carry NaN completion/latency/quality.  Feature vectors exist only
    for completed queries that returned an image; ``feature_index`` maps those
    rows of ``features`` back to record indices.
    """

    arrival: np.ndarray  # float, arrival time
    deadline: np.ndarray  # float, absolute SLO deadline
    completion: np.ndarray  # float, NaN for dropped queries
    stage: np.ndarray  # int8 STAGE_CODES
    quality: np.ndarray  # float, NaN where unknown
    confidence: np.ndarray  # float, NaN where absent
    deferred: np.ndarray  # bool
    retries: np.ndarray  # int32, requeues this query survived (0 = none)
    features: np.ndarray  # (n_feat, d) float
    feature_index: np.ndarray  # int, record index of each features row

    @classmethod
    def from_records(cls, records: List[QueryRecord], feature_dim: int) -> "ColumnStore":
        """Build the columns with one pass over a record list."""
        n = len(records)
        arrival = np.empty(n)
        deadline = np.empty(n)
        completion = np.full(n, np.nan)
        stage = np.empty(n, dtype=np.int8)
        quality = np.full(n, np.nan)
        confidence = np.full(n, np.nan)
        deferred = np.zeros(n, dtype=bool)
        retries = np.zeros(n, dtype=np.int32)
        feats: List[np.ndarray] = []
        feat_idx: List[int] = []
        for i, r in enumerate(records):
            arrival[i] = r.query.arrival_time
            deadline[i] = r.query.deadline
            stage[i] = STAGE_CODES[r.stage]
            retries[i] = r.retries
            if r.completion_time is not None:
                completion[i] = r.completion_time
            if r.quality is not None:
                quality[i] = r.quality
            if r.confidence is not None:
                confidence[i] = r.confidence
            deferred[i] = r.deferred
            if r.features is not None:
                feats.append(r.features)
                feat_idx.append(i)
        features = np.stack(feats) if feats else np.zeros((0, feature_dim))
        return cls(
            arrival=arrival,
            deadline=deadline,
            completion=completion,
            stage=stage,
            quality=quality,
            confidence=confidence,
            deferred=deferred,
            retries=retries,
            features=features,
            feature_index=np.asarray(feat_idx, dtype=np.int64),
        )

    @classmethod
    def concat(cls, stores: List["ColumnStore"], feature_dim: int) -> "ColumnStore":
        """Concatenate stores row-wise (shard merge).

        ``feature_index`` entries are shifted by the preceding stores' row
        counts so they keep addressing their own rows.  Concatenating the
        per-epoch / per-region chunks a sharded run drains reproduces the
        exact arrays a serial :meth:`from_records` pass would build — the
        values are copied, never recomputed — which is what lets sharded
        summaries stay byte-identical to serial ones.
        """
        if not stores:
            return cls.from_records([], feature_dim)
        if len(stores) == 1:
            return stores[0]
        offsets = np.cumsum([0] + [len(store) for store in stores[:-1]])
        features = [store.features for store in stores if len(store.features)]
        return cls(
            arrival=np.concatenate([store.arrival for store in stores]),
            deadline=np.concatenate([store.deadline for store in stores]),
            completion=np.concatenate([store.completion for store in stores]),
            stage=np.concatenate([store.stage for store in stores]),
            quality=np.concatenate([store.quality for store in stores]),
            confidence=np.concatenate([store.confidence for store in stores]),
            deferred=np.concatenate([store.deferred for store in stores]),
            retries=np.concatenate([store.retries for store in stores]),
            features=np.concatenate(features) if features else np.zeros((0, feature_dim)),
            feature_index=np.concatenate(
                [store.feature_index + offset for store, offset in zip(stores, offsets)]
            ),
        )

    def __len__(self) -> int:
        return len(self.arrival)

    # -------------------------------------------------------- derived masks
    @property
    def dropped(self) -> np.ndarray:
        """Boolean mask of dropped queries."""
        return self.stage == STAGE_CODES[QueryStage.DROPPED]

    @property
    def completed(self) -> np.ndarray:
        """Boolean mask of queries that received a response."""
        return ~self.dropped

    @property
    def latency(self) -> np.ndarray:
        """End-to-end latency per query (NaN for dropped queries)."""
        return self.completion - self.arrival

    @property
    def violated(self) -> np.ndarray:
        """Boolean mask of SLO violations (dropped or completed late)."""
        late = np.zeros(len(self), dtype=bool)
        done = self.completed
        late[done] = self.completion[done] > self.deadline[done]
        return late | self.dropped


def _nan_to_none(column: np.ndarray) -> List[Optional[float]]:
    return [None if math.isnan(value) else value for value in column.tolist()]


class RecordView(Sequence[QueryRecord]):
    """Drained rows as :class:`QueryRecord` objects, built on first access.

    Holds the :class:`ColumnStore` plus the per-row ``Query`` objects and
    model names the columns do not carry.  No metric reads records; tests
    do, and they pay for building them.
    """

    __slots__ = ("cols", "_queries", "_models", "_records")

    def __init__(
        self, cols: ColumnStore, queries: List[Query], models: List[Optional[str]]
    ) -> None:
        self.cols = cols
        self._queries = queries
        self._models = models
        self._records: Optional[List[QueryRecord]] = None

    def _built(self) -> List[QueryRecord]:
        if self._records is None:
            cols = self.cols
            features = dict(zip(cols.feature_index.tolist(), cols.features))
            stages = [_STAGES[code] for code in cols.stage.tolist()]
            completion = _nan_to_none(cols.completion)
            quality = _nan_to_none(cols.quality)
            confidence = _nan_to_none(cols.confidence)
            self._records = [
                QueryRecord(
                    query=query,
                    stage=stages[i],
                    completion_time=completion[i],
                    model_used=self._models[i],
                    quality=quality[i],
                    features=features.get(i),
                    confidence=confidence[i],
                    deferred=deferred,
                    retries=retries,
                )
                for i, (query, deferred, retries) in enumerate(
                    zip(self._queries, cols.deferred.tolist(), cols.retries.tolist())
                )
            ]
        return self._records

    def __len__(self) -> int:
        return len(self._queries)

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self) -> Iterator[QueryRecord]:
        return iter(self._built())


class ResultCollector:
    """Sink of the data path: a column writer with live views folded on read.

    ``complete``/``drop`` append each query's values to per-column buffers
    and bump O(1) counters; no per-query record object is built.
    :meth:`drain` hands the buffered rows over as a :class:`ColumnStore`.

    The live accumulators (:class:`~repro.metrics.accumulators.GaussianStats`
    over response features, :class:`~repro.metrics.accumulators.StreamingMoments`
    and :class:`~repro.metrics.accumulators.P2Quantile` over latency) are
    folded only when a live view is read, or when :meth:`drain` takes rows
    they have not seen.  The fold feeds the completions in completion order
    and gives the same bits as one ``add`` per completion, so a run that
    never reads them never pays for them.
    """

    def __init__(self, dataset: QueryDataset) -> None:
        self.dataset = dataset
        self._feature_dim = dataset.real_features.shape[1]
        self._violations_window = 0
        self._completions_window = 0
        self._completed = 0
        self._dropped = 0
        self._violated = 0
        self._heavy = 0
        #: query_id -> requeue count for queries currently being retried;
        #: popped into the query's row at completion/drop time.
        self._retries: Dict[int, int] = {}
        self._reset_buffers()
        self._feature_stats = GaussianStats(self._feature_dim)
        self._latency_moments = StreamingMoments()
        self._latency_p99 = P2Quantile(0.99)
        #: The last ``_unfolded`` completions in the buffers are not yet in
        #: the live accumulators.
        self._unfolded = 0
        self._closed = False

    # ------------------------------------------------------------- data path
    def complete(
        self,
        query: Query,
        image: GeneratedImage,
        stage: QueryStage,
        confidence: Optional[float],
        deferred: bool,
        completion_time: float,
    ) -> None:
        """Record a completed query."""
        self._feature_index.append(len(self._queries))
        self._features.append(image.features)
        self._append_row(
            query,
            image.variant_name,
            completion_time,
            STAGE_CODES[stage],
            image.quality,
            np.nan if confidence is None else confidence,
            deferred,
        )
        self._completions_window += 1
        self._completed += 1
        if stage == QueryStage.HEAVY:
            self._heavy += 1
        if completion_time > query.deadline:
            self._violations_window += 1
            self._violated += 1
        self._unfolded += 1

    def drop(self, query: Query) -> None:
        """Record a dropped query."""
        self._append_row(
            query, None, np.nan, STAGE_CODES[QueryStage.DROPPED], np.nan, np.nan, False
        )
        self._violations_window += 1
        self._dropped += 1

    def _append_row(
        self,
        query: Query,
        model: Optional[str],
        completion: float,
        stage: int,
        quality: float,
        confidence: float,
        deferred: bool,
    ) -> None:
        self._queries.append(query)
        self._models.append(model)
        self._arrival.append(query.arrival_time)
        self._slo.append(query.slo)
        self._completion.append(completion)
        self._stage.append(stage)
        self._quality.append(quality)
        self._confidence.append(confidence)
        self._deferred.append(deferred)
        self._retry_counts.append(self._retries.pop(query.query_id, 0))

    def record_retry(self, query: Query) -> None:
        """Count one recovery requeue for ``query`` (fault-injection path).

        The query stays *open* — exactly one terminal ``complete``/``drop``
        row is ever written for it, with the accumulated retry count, so
        retries never inflate query totals and latency spans first arrival to
        final completion.
        """
        self._retries[query.query_id] = self._retries.get(query.query_id, 0) + 1

    def __len__(self) -> int:
        """Rows buffered since the last drain."""
        return len(self._queries)

    def drain(self) -> RecordView:
        """Hand over the rows written since the last drain, and forget them.

        Completions no live view has read yet are folded first, so the live
        views keep covering every row.
        """
        self._fold()
        return self._take()

    def close(self) -> RecordView:
        """The final :meth:`drain`, without the fold: the completions no
        live view has read are never folded.  Reading a live view afterwards
        raises."""
        self._closed = True
        self._unfolded = 0
        return self._take()

    def _take(self) -> RecordView:
        """The buffered rows as a :class:`ColumnStore`, one ``np.array`` call
        per column (``deadline`` adds the ``slo`` column to ``arrival``, as
        :attr:`Query.deadline` does)."""
        arrival = np.array(self._arrival, dtype=float)
        cols = ColumnStore(
            arrival=arrival,
            deadline=arrival + np.array(self._slo, dtype=float),
            completion=np.array(self._completion, dtype=float),
            stage=np.array(self._stage, dtype=np.int8),
            quality=np.array(self._quality, dtype=float),
            confidence=np.array(self._confidence, dtype=float),
            deferred=np.array(self._deferred, dtype=bool),
            retries=np.array(self._retry_counts, dtype=np.int32),
            features=(
                np.array(self._features) if self._features else np.zeros((0, self._feature_dim))
            ),
            feature_index=np.array(self._feature_index, dtype=np.int64),
        )
        rows = RecordView(cols, self._queries, self._models)
        self._reset_buffers()
        return rows

    def _reset_buffers(self) -> None:
        """Empty column buffers: one entry per row since the last drain."""
        self._queries: List[Query] = []
        self._models: List[Optional[str]] = []
        self._arrival: List[float] = []
        self._slo: List[float] = []
        self._completion: List[float] = []
        self._stage: List[int] = []
        self._quality: List[float] = []
        self._confidence: List[float] = []
        self._deferred: List[bool] = []
        self._retry_counts: List[int] = []
        self._features: List[np.ndarray] = []
        self._feature_index: List[int] = []

    # ----------------------------------------------------------- control path
    @property
    def completed_count(self) -> int:
        """Cumulative completed queries (live view, O(1))."""
        return self._completed

    @property
    def dropped_count(self) -> int:
        """Cumulative dropped queries (live view, O(1))."""
        return self._dropped

    @property
    def violated_count(self) -> int:
        """Cumulative completed-but-late queries (live view, O(1))."""
        return self._violated

    @property
    def heavy_count(self) -> int:
        """Cumulative heavy-model completions (live view, O(1))."""
        return self._heavy

    def window_stats(self) -> Tuple[int, int]:
        """(violations, completions) since the last call; resets the counters."""
        stats = (self._violations_window, self._completions_window)
        self._violations_window = 0
        self._completions_window = 0
        return stats

    # ------------------------------------------------------------ live views
    @property
    def pending_rows(self) -> int:
        """Completions not yet folded into the live accumulators."""
        return self._unfolded

    def _fold(self) -> None:
        if self._closed:
            raise RuntimeError("the collector is closed: its live views are gone")
        if not self._unfolded:
            return
        for row in self._feature_index[-self._unfolded :]:
            latency = self._completion[row] - self._arrival[row]
            self._latency_moments.add(latency)
            self._latency_p99.add(latency)
        self._feature_stats.add_rows(self._features[-self._unfolded :])
        self._unfolded = 0

    @property
    def feature_stats(self) -> GaussianStats:
        """Response-feature statistics of every completion so far."""
        self._fold()
        return self._feature_stats

    @property
    def latency_moments(self) -> StreamingMoments:
        """Latency moments of every completion so far."""
        self._fold()
        return self._latency_moments

    @property
    def latency_p99(self) -> P2Quantile:
        """P² p99 latency estimate over every completion so far."""
        self._fold()
        return self._latency_p99

    def running_fid(self) -> float:
        """FID of all responses so far, from the streaming sufficient stats.

        O(d^2) plus the fold of the completions since the last read: the
        generated moments come from the online :class:`GaussianStats` and the
        reference moments are cached on the dataset.
        """
        stats = self.feature_stats
        if stats.count < 2:
            return float("nan")
        return frechet_from_moments(stats.mean, stats.cov(), self.dataset.real_moments)

    def running_summary(self) -> Dict[str, float]:
        """Live headline metrics (usable while the run is in flight)."""
        total = self._completed + self._dropped
        return {
            "total_queries": float(total),
            "completed": float(self._completed),
            "dropped": float(self._dropped),
            "slo_violation_ratio": (self._violated + self._dropped) / total if total else 0.0,
            "deferral_rate": self._heavy / self._completed if self._completed else 0.0,
            "mean_latency": self.latency_moments.mean if self._completed else float("nan"),
            "p99_latency": self.latency_p99.value,
            "fid": self.running_fid(),
        }


@dataclass
class SimulationResult:
    """Everything measured during one serving simulation run.

    All metrics read the column store: the one a run drained from its
    collector, or for a hand-built result one built from ``records`` in one
    pass on first access.  A run's ``records`` is a :class:`RecordView`
    that builds the per-query objects only if something reads them.
    """

    records: Sequence[QueryRecord]
    dataset: QueryDataset
    slo: float
    duration: float
    control_history: List[ControlSnapshot] = field(default_factory=list)
    system_name: str = "system"
    #: Epoch-by-epoch control-plane samples when an online re-planner was
    #: attached (:class:`~repro.core.replanner.EpochSnapshot` items); empty
    #: for runs without one.
    replan_history: List[object] = field(default_factory=list)
    #: Time-integrated cost of the fleet the run *actually held* (A100-hours,
    #: from the controller's :class:`~repro.core.pricing.CostLedger`) — not
    #: the construction-time ``FleetSpec.total_cost``, so mid-run revocations
    #: and autoscale transitions show up in the bill.
    fleet_cost: float = 0.0

    # ------------------------------------------------------------ column view
    @property
    def cols(self) -> ColumnStore:
        """The column store behind every metric (built once, lazily).

        A non-field cached attribute (like ``completed_records``) so it never
        participates in the dataclass constructor, ``replace()``, or ``__eq__``
        — a stale store can't be injected alongside fresh records.
        """
        cached = getattr(self, "_columns", None)
        if cached is None:
            cached = ColumnStore.from_records(self.records, self.dataset.real_features.shape[1])
            self._columns = cached
        return cached

    @classmethod
    def from_columns(
        cls,
        cols: ColumnStore,
        *,
        dataset: QueryDataset,
        slo: float,
        duration: float,
        control_history: Optional[List[ControlSnapshot]] = None,
        system_name: str = "system",
        replan_history: Optional[List[object]] = None,
        fleet_cost: float = 0.0,
        records: Sequence[QueryRecord] = (),
    ) -> "SimulationResult":
        """Build a result directly from a (merged) column store.

        Every metric reads the pre-built store.  ``records`` is the
        :class:`RecordView` of a serial run's drained rows; the sharded path
        ships columns, not ``QueryRecord`` objects, across process
        boundaries, so its ``records`` stays empty.
        """
        result = cls(
            records=records,
            dataset=dataset,
            slo=slo,
            duration=duration,
            control_history=list(control_history or []),
            system_name=system_name,
            replan_history=list(replan_history or []),
            fleet_cost=fleet_cost,
        )
        result._columns = cols
        return result

    # ------------------------------------------------------------ accounting
    @property
    def total_queries(self) -> int:
        """Number of queries that entered the system."""
        return len(self.cols)

    @property
    def completed_records(self) -> List[QueryRecord]:
        """Records of queries that received a response (cached)."""
        cached = getattr(self, "_completed_records", None)
        if cached is None:
            cached = [r for r in self.records if not r.dropped]
            self._completed_records = cached
        return cached

    @property
    def dropped_count(self) -> int:
        """Number of dropped queries."""
        return int(self.cols.dropped.sum())

    def slo_report(self) -> SLOReport:
        """Aggregate SLO accounting for the whole run."""
        cols = self.cols
        completed = int(cols.completed.sum())
        violated = int((cols.violated & cols.completed).sum())
        return SLOReport(
            total=len(cols),
            completed=completed,
            violated=violated,
            dropped=len(cols) - completed,
        )

    @property
    def slo_violation_ratio(self) -> float:
        """Fraction of queries that missed their SLO or were dropped."""
        return self.slo_report().violation_ratio

    @property
    def deferral_rate(self) -> float:
        """Fraction of completed queries answered by the heavy model."""
        cols = self.cols
        completed = int(cols.completed.sum())
        if not completed:
            return 0.0
        heavy = int((cols.stage == STAGE_CODES[QueryStage.HEAVY]).sum())
        return heavy / completed

    def latency_stats(self) -> LatencyStats:
        """Latency summary over completed queries (single-array, no copies)."""
        latencies = self.cols.latency
        return LatencyStats.from_latencies(latencies[np.isfinite(latencies)])

    # --------------------------------------------------------------- quality
    def response_features(self) -> np.ndarray:
        """Feature matrix of all returned images."""
        return self.cols.features

    def fid(self) -> float:
        """FID of the returned images against the dataset's real features."""
        feats = self.response_features()
        if len(feats) < 2:
            return float("nan")
        stats = GaussianStats.from_features(feats)
        return frechet_from_moments(stats.mean, stats.cov(), self.dataset.real_moments)

    def mean_quality(self) -> float:
        """Average latent quality of returned images (oracle view, for tests)."""
        quality = self.cols.quality
        known = np.isfinite(quality)
        return float(quality[known].mean()) if known.any() else float("nan")

    # ------------------------------------------------------------ timeseries
    def fid_timeseries(self, window: float = 20.0) -> Tuple[np.ndarray, np.ndarray]:
        """FID over completion-time windows (streaming, cached real moments)."""
        cols = self.cols
        if not len(cols.features):
            return np.zeros(0), np.zeros(0)
        times = cols.completion[cols.feature_index]
        return windowed_fid(
            times,
            cols.features,
            window=window,
            horizon=self.duration,
            real_moments=self.dataset.real_moments,
        )

    def violation_timeseries(self, window: float = 20.0) -> Tuple[np.ndarray, np.ndarray]:
        """SLO violation ratio over arrival-time windows."""
        cols = self.cols
        edges = np.arange(0.0, self.duration + window, window)
        centers = (edges[:-1] + edges[1:]) / 2.0
        idx = np.searchsorted(edges, cols.arrival, side="right") - 1
        in_range = (idx >= 0) & (idx < len(centers))
        totals = np.bincount(idx[in_range], minlength=len(centers)).astype(float)
        bad = np.bincount(idx[in_range & cols.violated], minlength=len(centers))
        ratios = np.where(totals > 0, bad / np.maximum(totals, 1.0), 0.0)
        return centers, ratios

    def demand_timeseries(self, window: float = 20.0) -> Tuple[np.ndarray, np.ndarray]:
        """Observed arrival rate over time."""
        edges = np.arange(0.0, self.duration + window, window)
        centers = (edges[:-1] + edges[1:]) / 2.0
        counts, _ = np.histogram(self.cols.arrival, bins=edges)
        return centers, counts / window

    def threshold_timeseries(self) -> Tuple[np.ndarray, np.ndarray]:
        """Confidence threshold chosen by the Controller over time."""
        if not self.control_history:
            return np.zeros(0), np.zeros(0)
        times = np.array([s.time for s in self.control_history])
        thresholds = np.array([s.threshold for s in self.control_history])
        return times, thresholds

    # --------------------------------------------------------------- summary
    def summary(self) -> Dict[str, float]:
        """Headline metrics as a flat dict (used by the benchmark harness)."""
        stats = self.latency_stats()
        report = self.slo_report()
        return {
            "total_queries": float(report.total),
            "completed": float(report.completed),
            "fid": self.fid(),
            "slo_violation_ratio": report.violation_ratio,
            "deferral_rate": self.deferral_rate,
            "dropped": float(report.dropped),
            "mean_quality": self.mean_quality(),
            "mean_latency": stats.mean,
            "p50_latency": stats.p50,
            "p99_latency": stats.p99,
            "fleet_cost": self.fleet_cost,
        }
