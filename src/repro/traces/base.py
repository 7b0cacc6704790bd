"""Rate curves and arrival traces."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

#: ``np.trapz`` was renamed to ``np.trapezoid`` in NumPy 2.0.
_trapezoid = getattr(np, "trapezoid", getattr(np, "trapz", None))


@dataclass
class RateCurve:
    """A piecewise-linear query-arrival rate (QPS) over time.

    Attributes
    ----------
    times:
        Monotonically increasing time points (seconds).
    rates:
        Arrival rate (queries/second) at each time point; linearly
        interpolated between points, clamped at the ends.
    name:
        Label used in figures.
    """

    times: np.ndarray
    rates: np.ndarray
    name: str = "rate"

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.rates = np.asarray(self.rates, dtype=float)
        if self.times.ndim != 1 or self.rates.ndim != 1:
            raise ValueError("times and rates must be 1-D")
        if len(self.times) != len(self.rates):
            raise ValueError("times and rates must have the same length")
        if len(self.times) < 1:
            raise ValueError("rate curve needs at least one point")
        if np.any(np.diff(self.times) < 0):
            raise ValueError("times must be non-decreasing")
        if np.any(self.rates < 0):
            raise ValueError("rates must be non-negative")

    @property
    def duration(self) -> float:
        """Total duration covered by the curve (seconds)."""
        return float(self.times[-1])

    @property
    def peak(self) -> float:
        """Maximum rate."""
        return float(self.rates.max())

    @property
    def minimum(self) -> float:
        """Minimum rate."""
        return float(self.rates.min())

    def rate_at(self, t: float) -> float:
        """Arrival rate at time ``t`` (clamped outside the curve)."""
        return float(np.interp(t, self.times, self.rates))

    def mean_rate(self) -> float:
        """Time-averaged rate."""
        if len(self.times) == 1 or self.duration == 0:
            return float(self.rates[0])
        return float(_trapezoid(self.rates, self.times) / self.duration)

    def scaled(self, min_qps: float, max_qps: float) -> "RateCurve":
        """Shape-preserving rescale to the [min_qps, max_qps] range.

        This mirrors how the paper rescales the Azure Functions trace to match
        cluster capacity (trace files named ``trace_{A}to{B}qps``).
        """
        if min_qps < 0 or max_qps < min_qps:
            raise ValueError("require 0 <= min_qps <= max_qps")
        lo, hi = self.rates.min(), self.rates.max()
        if hi == lo:
            rates = np.full_like(self.rates, (min_qps + max_qps) / 2.0)
        else:
            rates = min_qps + (self.rates - lo) * (max_qps - min_qps) / (hi - lo)
        return RateCurve(times=self.times.copy(), rates=rates, name=f"{self.name}-scaled")


@dataclass
class ArrivalTrace:
    """Concrete query arrival times sampled from a rate curve."""

    arrival_times: np.ndarray
    curve: Optional[RateCurve] = None

    def __post_init__(self) -> None:
        self.arrival_times = np.asarray(self.arrival_times, dtype=float)
        if np.any(np.diff(self.arrival_times) < 0):
            raise ValueError("arrival times must be sorted")
        if self.arrival_times.size and self.arrival_times[0] < 0:
            raise ValueError("arrival times must be non-negative")

    def __len__(self) -> int:
        return int(self.arrival_times.size)

    @property
    def duration(self) -> float:
        """Time of the last arrival (0 for an empty trace)."""
        return float(self.arrival_times[-1]) if len(self) else 0.0

    @classmethod
    def from_rate_curve(
        cls, curve: RateCurve, rng: np.random.Generator, *, max_queries: Optional[int] = None
    ) -> "ArrivalTrace":
        """Sample a non-homogeneous Poisson process from ``curve`` by thinning."""
        peak = max(curve.peak, 1e-9)
        t = 0.0
        arrivals: List[float] = []
        horizon = curve.duration if curve.duration > 0 else 1.0
        while t < horizon:
            t += rng.exponential(1.0 / peak)
            if t >= horizon:
                break
            if rng.random() <= curve.rate_at(t) / peak:
                arrivals.append(t)
                if max_queries is not None and len(arrivals) >= max_queries:
                    break
        return cls(arrival_times=np.array(arrivals), curve=curve)

    @classmethod
    def constant_rate(
        cls, qps: float, duration: float, rng: np.random.Generator
    ) -> "ArrivalTrace":
        """Poisson arrivals at a constant rate."""
        from repro.traces.synthetic import static_rate

        return cls.from_rate_curve(static_rate(qps, duration), rng)

    def observed_rate(self, window: float) -> np.ndarray:
        """Empirical arrival rate per window (queries/second)."""
        if window <= 0:
            raise ValueError("window must be positive")
        if len(self) == 0:
            return np.zeros(0)
        edges = np.arange(0.0, self.duration + window, window)
        counts, _ = np.histogram(self.arrival_times, bins=edges)
        return counts / window
