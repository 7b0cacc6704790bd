"""Pytest bootstrap: make ``src/`` importable without an installed package,
keep the artifact cache hermetic, and record result rows for the oracles."""

import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
import pytest

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.query import Query, QueryStage  # noqa: E402
from repro.core.results import STAGE_CODES, ColumnStore, ResultCollector  # noqa: E402


@pytest.fixture(autouse=True, scope="session")
def _hermetic_artifact_cache(tmp_path_factory):
    """Point the runner's artifact cache at a per-session temporary directory.

    Keeps test runs hermetic: nothing is read from or written to the user's
    ``~/.cache/repro``.  A caller that *wants* cache reuse across processes
    (the CI bench job, which downloads the cache artifact produced by the
    tests job) pins ``REPRO_CACHE_DIR`` explicitly, which takes precedence.
    """
    if os.environ.get("REPRO_CACHE_DIR"):
        yield
        return
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    try:
        yield
    finally:
        os.environ.pop("REPRO_CACHE_DIR", None)


# --------------------------------------------------------------------------
# The per-row oracle of the result columns
# --------------------------------------------------------------------------


@dataclass
class Row:
    """One query's outcome as the collector was told it: the per-row view
    the columnar metrics are checked against.  A dropped query has
    ``completion_time is None`` and ``stage == DROPPED``."""

    query: Query
    stage: QueryStage
    completion_time: Optional[float] = None
    model_used: Optional[str] = None
    quality: Optional[float] = None
    features: Optional[np.ndarray] = None
    confidence: Optional[float] = None
    deferred: bool = False
    retries: int = 0

    @property
    def dropped(self) -> bool:
        return self.stage == QueryStage.DROPPED

    @property
    def latency(self) -> Optional[float]:
        if self.completion_time is None:
            return None
        return self.completion_time - self.query.arrival_time

    @property
    def slo_violated(self) -> bool:
        return self.dropped or self.completion_time > self.query.deadline


def columns_from_rows(rows: List[Row], feature_dim: int) -> ColumnStore:
    """The columns of ``rows``, built with one pass over them."""
    n = len(rows)
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
    for i, r in enumerate(rows):
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
    return ColumnStore(
        arrival=arrival,
        deadline=deadline,
        completion=completion,
        stage=stage,
        quality=quality,
        confidence=confidence,
        deferred=deferred,
        retries=retries,
        features=np.stack(feats) if feats else np.zeros((0, feature_dim)),
        feature_index=np.asarray(feat_idx, dtype=np.int64),
    )


class RowRecorder:
    """Records every row any :class:`ResultCollector` writes, as a
    :class:`Row`, by wrapping the collector's ``complete``/``drop``/
    ``record_retry`` for the length of one test.

    ``Row`` and ``columns_from_rows`` ride along so that a test can build
    rows and their columns by hand: pytest imports every ``conftest.py``
    under the one module name ``conftest``, so a test module cannot import
    them from here.
    """

    Row = Row
    columns_from_rows = staticmethod(columns_from_rows)

    def __init__(self, monkeypatch) -> None:
        self.rows: List[Row] = []
        self._retries: Dict[int, int] = {}
        complete, drop, retry = (
            ResultCollector.complete,
            ResultCollector.drop,
            ResultCollector.record_retry,
        )

        def recorded_complete(collector, query, image, stage, confidence, deferred, now):
            self.rows.append(
                Row(
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

        def recorded_drop(collector, query):
            self.rows.append(
                Row(
                    query=query,
                    stage=QueryStage.DROPPED,
                    retries=self._retries.pop(query.query_id, 0),
                )
            )
            drop(collector, query)

        def recorded_retry(collector, query):
            self._retries[query.query_id] = self._retries.get(query.query_id, 0) + 1
            retry(collector, query)

        monkeypatch.setattr(ResultCollector, "complete", recorded_complete)
        monkeypatch.setattr(ResultCollector, "drop", recorded_drop)
        monkeypatch.setattr(ResultCollector, "record_retry", recorded_retry)

    def completed(self) -> List[Row]:
        """The recorded rows of queries that received a response."""
        return [row for row in self.rows if not row.dropped]

    def columns(self, feature_dim: int) -> ColumnStore:
        """The columns of every recorded row."""
        return columns_from_rows(self.rows, feature_dim)


@pytest.fixture()
def row_recorder(monkeypatch) -> RowRecorder:
    """A :class:`RowRecorder` active for the length of the test."""
    return RowRecorder(monkeypatch)
