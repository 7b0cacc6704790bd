"""Result collection and post-run analysis.

A result's rows exist only as columns: :class:`ResultCollector` writes each
finished query straight into column buffers and keeps O(1) counters for the
control plane, and :class:`SimulationResult` reads every metric —
summary scalars, latency percentiles, the violation/demand/FID time series —
from the drained :class:`ColumnStore` of NumPy arrays.  No per-query object
outlives the collector's call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.query import Query, QueryStage
from repro.metrics.accumulators import GaussianStats
from repro.metrics.fid import frechet_from_moments, windowed_fid
from repro.metrics.latency import LatencyStats
from repro.metrics.slo import SLOReport
from repro.models.dataset import QueryDataset
from repro.models.generation import GeneratedImage

#: Integer codes for :class:`QueryStage` in the column store.
STAGE_CODES = {QueryStage.LIGHT: 0, QueryStage.HEAVY: 1, QueryStage.DROPPED: 2}


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


@dataclass(frozen=True, eq=False)
class ColumnStore:
    """Per-query measurements as parallel NumPy columns.

    One row per query that entered the system, in the order the collector
    wrote them.  Dropped queries carry NaN completion/latency/quality.
    Feature vectors exist only for completed queries that returned an image;
    ``feature_index`` maps those rows of ``features`` back to row indices.
    Stores compare by identity: no generated ``__eq__`` compares arrays.
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
    feature_index: np.ndarray  # int, row index of each features row

    @classmethod
    def empty(cls, feature_dim: int) -> "ColumnStore":
        """A store with no rows."""
        return cls(
            arrival=np.zeros(0),
            deadline=np.zeros(0),
            completion=np.zeros(0),
            stage=np.zeros(0, dtype=np.int8),
            quality=np.zeros(0),
            confidence=np.zeros(0),
            deferred=np.zeros(0, dtype=bool),
            retries=np.zeros(0, dtype=np.int32),
            features=np.zeros((0, feature_dim)),
            feature_index=np.zeros(0, dtype=np.int64),
        )

    @classmethod
    def concat(cls, stores: List["ColumnStore"], feature_dim: int) -> "ColumnStore":
        """Concatenate stores row-wise (shard merge).

        ``feature_index`` entries are shifted by the preceding stores' row
        counts so they keep addressing their own rows.  Concatenating the
        per-epoch / per-region chunks a sharded run drains reproduces the
        exact arrays a serial run drains — the values are copied, never
        recomputed — which is what lets sharded summaries stay byte-identical
        to serial ones.
        """
        if not stores:
            return cls.empty(feature_dim)
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


class ResultCollector:
    """Sink of the data path: a column writer with O(1) control counters.

    ``complete``/``drop`` append each query's values to per-column buffers
    and bump O(1) counters; no per-query object is built or kept.
    :meth:`drain` hands the buffered rows over as a :class:`ColumnStore`.
    The counters are all the control plane reads while a run is in flight;
    every metric is computed from the drained columns afterwards.
    """

    def __init__(self, dataset: QueryDataset) -> None:
        self._feature_dim = dataset.real_features.shape[1]
        self._violations_window = 0
        self._completions_window = 0
        self._completed = 0
        self._dropped = 0
        self._violated = 0
        #: query_id -> requeue count for queries currently being retried;
        #: popped into the query's row at completion/drop time.
        self._retries: Dict[int, int] = {}
        self._reset_buffers()

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
        self._feature_index.append(len(self._arrival))
        self._features.append(image.features)
        self._append_row(
            query,
            completion_time,
            STAGE_CODES[stage],
            image.quality,
            np.nan if confidence is None else confidence,
            deferred,
        )
        self._completions_window += 1
        self._completed += 1
        if completion_time > query.deadline:
            self._violations_window += 1
            self._violated += 1

    def drop(self, query: Query) -> None:
        """Record a dropped query."""
        self._append_row(query, np.nan, STAGE_CODES[QueryStage.DROPPED], np.nan, np.nan, False)
        self._violations_window += 1
        self._dropped += 1

    def _append_row(
        self,
        query: Query,
        completion: float,
        stage: int,
        quality: float,
        confidence: float,
        deferred: bool,
    ) -> None:
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
        return len(self._arrival)

    def drain(self) -> ColumnStore:
        """Hand over the rows written since the last drain, and forget them.

        One ``np.array`` call per column (``deadline`` adds the ``slo``
        column to ``arrival``, as :attr:`Query.deadline` does).
        """
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
        self._reset_buffers()
        return cols

    def _reset_buffers(self) -> None:
        """Empty column buffers: one entry per row since the last drain."""
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
        """Cumulative completed queries (O(1) counter)."""
        return self._completed

    @property
    def dropped_count(self) -> int:
        """Cumulative dropped queries (O(1) counter)."""
        return self._dropped

    @property
    def violated_count(self) -> int:
        """Cumulative completed-but-late queries (O(1) counter)."""
        return self._violated

    def window_stats(self) -> Tuple[int, int]:
        """(violations, completions) since the last call; resets the counters."""
        stats = (self._violations_window, self._completions_window)
        self._violations_window = 0
        self._completions_window = 0
        return stats


@dataclass(eq=False)
class SimulationResult:
    """Everything measured during one serving simulation run.

    Every metric reads ``cols``, the rows the run drained from its collector
    (merged across regions for a sharded run).  Results compare by identity:
    no generated ``__eq__`` compares their arrays.
    """

    cols: ColumnStore
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

    @classmethod
    def from_columns(cls, cols: ColumnStore, **fields) -> "SimulationResult":
        """The result of a run or of a shard merge: ``cols`` plus the other
        fields by keyword.  Its own step so that tracing can time the
        packaging of a result apart from the run."""
        return cls(cols=cols, **fields)

    # ------------------------------------------------------------ accounting
    @property
    def total_queries(self) -> int:
        """Number of queries that entered the system."""
        return len(self.cols)

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
