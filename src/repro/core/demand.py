"""Query-demand estimation.

The Controller estimates the total demand ``D`` entering the system with an
exponentially weighted moving average over the demand history (Section 3.3,
"Solving the MILP").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class DemandEstimator:
    """EWMA estimator of the arrival rate (queries/second).

    Attributes
    ----------
    alpha:
        Smoothing factor; larger values react faster to demand changes.
    initial:
        Estimate returned before any observation.
    """

    alpha: float = 0.5
    initial: float = 0.0
    _estimate: Optional[float] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        if self.initial < 0:
            raise ValueError("initial must be non-negative")

    def observe(self, arrivals: int, window: float) -> float:
        """Record ``arrivals`` queries over ``window`` seconds; returns the new estimate."""
        if arrivals < 0:
            raise ValueError("arrivals must be non-negative")
        if window <= 0:
            raise ValueError("window must be positive")
        rate = arrivals / window
        if self._estimate is None:
            self._estimate = rate
        else:
            self._estimate = self.alpha * rate + (1 - self.alpha) * self._estimate
        return self._estimate

    @property
    def estimate(self) -> float:
        """Current demand estimate (queries/second)."""
        return self.initial if self._estimate is None else self._estimate
