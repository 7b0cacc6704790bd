"""Query and per-query result record types."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np


class QueryStage(enum.Enum):
    """Which stage of the cascade produced the final response."""

    LIGHT = "light"
    HEAVY = "heavy"
    DROPPED = "dropped"


@dataclass(frozen=True, slots=True)
class Query:
    """A client query (text prompt) entering the system.

    Queries are allocated once per arrival on the simulator hot path, so the
    class is slotted to keep long bursty traces cheap in time and memory.

    Attributes
    ----------
    query_id:
        Unique, monotonically increasing identifier.
    arrival_time:
        Simulation time at which the query arrived at the Load Balancer.
    prompt:
        Prompt text (used only for bookkeeping; the substrate works from the
        latent difficulty).
    difficulty:
        Latent difficulty in [0, 1].
    slo:
        Latency SLO of this query (seconds).
    """

    query_id: int
    arrival_time: float
    prompt: str
    difficulty: float
    slo: float

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be non-negative")
        if not 0.0 <= self.difficulty <= 1.0:
            raise ValueError("difficulty must lie in [0, 1]")
        if self.slo <= 0:
            raise ValueError("slo must be positive")

    @property
    def deadline(self) -> float:
        """Absolute completion deadline."""
        return self.arrival_time + self.slo


@dataclass(slots=True)
class QueryBatch:
    """A column-oriented batch of routed arrivals, pre-materialization.

    The lazy counterpart of a ``list[Query]``: three parallel NumPy arrays
    (query id, server-side arrival time, per-query SLO) that the
    :class:`~repro.core.system.ArrivalFeeder` expands into :class:`Query`
    objects one chunk at a time.  Prompt and difficulty are derivable from
    the id via the dataset, so they never travel with the batch — which is
    also what keeps the sharded pipe protocol's per-epoch payload at three
    arrays instead of one pickled object per query.

    ``times`` need not be sorted (network delays can locally reorder routed
    arrivals); the feeder orders delivery by scheduling each chunk at the
    chunk's earliest time and letting the event queue's total
    ``(time, priority, seq)`` order do the rest.
    """

    ids: np.ndarray
    times: np.ndarray
    slos: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.ids) == len(self.times) == len(self.slos)):
            raise ValueError(
                f"QueryBatch columns disagree: {len(self.ids)} ids, "
                f"{len(self.times)} times, {len(self.slos)} slos"
            )

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def empty(cls) -> "QueryBatch":
        return cls(
            ids=np.empty(0, dtype=np.int64),
            times=np.empty(0, dtype=float),
            slos=np.empty(0, dtype=float),
        )


@dataclass
class QueryRecord:
    """The outcome of one query, recorded by the result collector.

    A dropped query has ``completion_time is None`` and ``stage == DROPPED``.
    """

    query: Query
    stage: QueryStage
    completion_time: Optional[float] = None
    model_used: Optional[str] = None
    quality: Optional[float] = None
    features: Optional[np.ndarray] = None
    confidence: Optional[float] = None
    deferred: bool = False
    #: Recovery requeues this query survived before its terminal record
    #: (0 outside fault-injection runs).  Latency still spans the *first*
    #: arrival to the final completion.
    retries: int = 0

    @property
    def dropped(self) -> bool:
        """Whether the query was dropped before completion."""
        return self.stage == QueryStage.DROPPED

    @property
    def latency(self) -> Optional[float]:
        """End-to-end latency (None for dropped queries)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.query.arrival_time

    @property
    def slo_violated(self) -> bool:
        """True if the query was dropped or finished after its deadline."""
        if self.dropped:
            return True
        assert self.completion_time is not None
        return self.completion_time > self.query.deadline
