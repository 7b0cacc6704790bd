"""SLO-violation accounting.

The paper's second evaluation metric is the *SLO violation ratio*: the
proportion of queries that either exceed the latency SLO or are preemptively
dropped by the system because they are predicted to miss their deadline.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SLOReport:
    """Aggregate SLO statistics for a run or a window of a run."""

    total: int
    completed: int
    violated: int
    dropped: int

    def __post_init__(self) -> None:
        if min(self.total, self.completed, self.violated, self.dropped) < 0:
            raise ValueError("counts must be non-negative")
        if self.completed + self.dropped > self.total:
            raise ValueError("completed + dropped cannot exceed total")

    @property
    def violation_ratio(self) -> float:
        """(late + dropped) / total, 0.0 for an empty report."""
        if self.total == 0:
            return 0.0
        return (self.violated + self.dropped) / self.total
