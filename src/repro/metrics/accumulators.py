"""Streaming (online, mergeable) accumulators for the metrics pipeline.

Every figure in the paper is a reduction over per-query records, and the grid
runner executes hundreds of cells per suite — so the measurement layer must
scale with the simulated system.  The accumulators here let the result
collector keep live sufficient statistics *during* the run (folded in
bounded blocks whenever a live view is read) and let the windowed-FID path
compute per-window Gaussian fits from cumulative sums instead of re-scanning
records:

* :class:`GaussianStats` — count / feature-sum / outer-product-sum sufficient
  statistics of a multivariate Gaussian.  Mergeable and associative, so
  per-window stats can be combined into per-region or whole-run stats without
  touching the raw samples again.
* :class:`StreamingMoments` — scalar count / mean / variance / min / max via
  Welford's algorithm, merged with Chan's parallel update.
* :class:`P2Quantile` — the P-squared algorithm of Jain & Chlamtac (1985):
  a constant-memory running quantile estimate (used for live p50/p99 latency
  while a simulation is still running).
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional, Sequence

import numpy as np

#: Rows per block in :meth:`GaussianStats.add_rows`.  It bounds the block of
#: outer products held at once to ``64 * dim**2`` floats (128 KiB at
#: ``dim=16``), so a fold adds no more than that to peak memory.
FOLD_CHUNK = 64


def as_float_array(values: Iterable[float]) -> np.ndarray:
    """Coerce to a float ndarray, passing existing ndarrays through uncopied.

    Shared by every metrics entry point that accepts either a column from the
    result store (already an ndarray) or a plain Python sequence.
    """
    return np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=float)


class GaussianStats:
    """Sufficient statistics (n, sum x, sum x xᵀ) of a feature sample.

    The mean and covariance (``ddof=1``, matching :func:`numpy.cov`) are
    derived on demand, so adding a sample and merging two accumulators are
    both O(d²) with no per-sample storage.
    """

    __slots__ = ("count", "sum", "outer")

    def __init__(
        self,
        dim: int,
        *,
        count: int = 0,
        sum: Optional[np.ndarray] = None,
        outer: Optional[np.ndarray] = None,
    ) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.count = int(count)
        self.sum = np.zeros(dim) if sum is None else np.asarray(sum, dtype=float).copy()
        self.outer = (
            np.zeros((dim, dim)) if outer is None else np.asarray(outer, dtype=float).copy()
        )
        if self.sum.shape != (dim,) or self.outer.shape != (dim, dim):
            raise ValueError("sum/outer shapes do not match dim")

    # ------------------------------------------------------------ population
    @classmethod
    def from_features(cls, features: np.ndarray) -> "GaussianStats":
        """Accumulator over a whole feature matrix (n_samples, dim)."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        stats = cls(features.shape[1])
        stats.add_batch(features)
        return stats

    @property
    def dim(self) -> int:
        """Feature dimensionality."""
        return self.sum.shape[0]

    def add(self, x: np.ndarray) -> None:
        """Fold one feature vector into the statistics."""
        x = np.asarray(x, dtype=float)
        self.count += 1
        self.sum += x
        self.outer += np.outer(x, x)

    def add_rows(self, rows: Sequence[np.ndarray]) -> None:
        """Fold feature rows exactly as one :meth:`add` per row would.

        ``np.add.reduce`` along the leading axis adds the rows to the running
        sums one after another, left to right, so the result is the same bits
        as the per-row loop (unlike :meth:`add_batch`'s matrix product).  Rows
        go in blocks of :data:`FOLD_CHUNK`; the running outer sum is added
        into the block's first product (addition commutes bitwise), which
        spares a concatenated copy of the block.
        """
        for start in range(0, len(rows), FOLD_CHUNK):
            block = np.asarray(rows[start : start + FOLD_CHUNK], dtype=float)
            if block.ndim != 2 or block.shape[1] != self.dim:
                raise ValueError("feature dimensionality mismatch")
            self.count += block.shape[0]
            self.sum = np.add.reduce(np.concatenate([self.sum[None], block]), axis=0)
            products = block[:, :, None] * block[:, None, :]
            products[0] += self.outer
            self.outer = np.add.reduce(products, axis=0)

    def add_batch(self, features: np.ndarray) -> None:
        """Fold a feature matrix (n_samples, dim) into the statistics."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        if features.shape[1] != self.dim:
            raise ValueError("feature dimensionality mismatch")
        self.count += features.shape[0]
        self.sum += features.sum(axis=0)
        self.outer += features.T @ features

    def merge(self, other: "GaussianStats") -> "GaussianStats":
        """A new accumulator holding both samples (associative, commutative)."""
        if other.dim != self.dim:
            raise ValueError("cannot merge accumulators of different dims")
        return GaussianStats(
            self.dim,
            count=self.count + other.count,
            sum=self.sum + other.sum,
            outer=self.outer + other.outer,
        )

    def __add__(self, other: "GaussianStats") -> "GaussianStats":
        return self.merge(other)

    # ------------------------------------------------------------- estimates
    @property
    def mean(self) -> np.ndarray:
        """Sample mean (requires at least one sample)."""
        if self.count < 1:
            raise ValueError("need at least 1 sample for a mean")
        return self.sum / self.count

    def cov(self, ddof: int = 1) -> np.ndarray:
        """Sample covariance matrix (``ddof=1`` matches :func:`numpy.cov`).

        Computed from the sufficient statistics as
        ``(Σxxᵀ − n μμᵀ) / (n − ddof)`` and symmetrised to absorb the last
        bits of floating-point asymmetry.
        """
        if self.count <= ddof:
            raise ValueError(f"need more than {ddof} samples for a covariance")
        mu = self.mean
        cov = (self.outer - self.count * np.outer(mu, mu)) / (self.count - ddof)
        return (cov + cov.T) / 2.0


def merge_all(accumulators: Iterable):
    """Left-fold ``merge`` over mergeable accumulators (shard reduction).

    Works for any accumulator exposing ``merge`` (:class:`GaussianStats`,
    :class:`StreamingMoments`).  Both merges are associative and exact, so
    the fold result is independent of how the stream was partitioned across
    shards — the property the sharded-equals-serial live views rest on (and
    that the hypothesis partition-invariance tests pin).  Raises
    :class:`ValueError` on an empty iterable: the caller knows the right
    identity element (dimensionality, type), this function does not.
    """
    iterator = iter(accumulators)
    try:
        merged = next(iterator)
    except StopIteration:
        raise ValueError("merge_all needs at least one accumulator") from None
    for accumulator in iterator:
        merged = merged.merge(accumulator)
    return merged


class StreamingMoments:
    """Running count / mean / variance / extrema of a scalar stream.

    Welford's online update, with Chan et al.'s pairwise formula for
    :meth:`merge`, so per-worker accumulators can be combined exactly.
    """

    __slots__ = ("count", "mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def add(self, value: float) -> None:
        """Fold one observation into the moments."""
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def add_batch(self, values: Iterable[float]) -> None:
        """Fold a batch of observations into the moments."""
        arr = as_float_array(values)
        if arr.size == 0:
            return
        batch = StreamingMoments()
        batch.count = int(arr.size)
        batch.mean = float(arr.mean())
        batch._m2 = float(((arr - batch.mean) ** 2).sum())
        batch.minimum = float(arr.min())
        batch.maximum = float(arr.max())
        merged = self.merge(batch)
        self.count, self.mean, self._m2 = merged.count, merged.mean, merged._m2
        self.minimum, self.maximum = merged.minimum, merged.maximum

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """A new accumulator over both streams (exact, not approximate)."""
        merged = StreamingMoments()
        merged.count = self.count + other.count
        if merged.count == 0:
            return merged
        delta = other.mean - self.mean
        merged.mean = self.mean + delta * other.count / merged.count
        merged._m2 = self._m2 + other._m2 + delta**2 * self.count * other.count / merged.count
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        return merged

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); NaN with fewer than two observations."""
        if self.count < 2:
            return float("nan")
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation; NaN with fewer than two observations."""
        return float(np.sqrt(self.variance))


class P2Quantile:
    """Constant-memory running quantile estimate (the P² algorithm).

    Tracks five markers whose heights converge to the ``q``-quantile without
    storing the observations.  Exact for the first five samples; afterwards an
    estimate whose error shrinks as the stream grows.
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError("q must lie strictly between 0 and 1")
        self.q = float(q)
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self.count = 0

    def add(self, value: float) -> None:
        """Fold one observation into the estimate."""
        value = float(value)
        self.count += 1
        if len(self._heights) < 5:
            self._heights.append(value)
            self._heights.sort()
            return
        h, pos = self._heights, self._positions
        if value < h[0]:
            h[0] = value
            k = 0
        elif value >= h[4]:
            h[4] = value
            k = 3
        else:
            k = self._cell(value)
        for i in range(k + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        for i in (1, 2, 3):
            d = self._desired[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
                d <= -1.0 and pos[i - 1] - pos[i] < -1.0
            ):
                sign = 1.0 if d >= 0 else -1.0
                candidate = self._parabolic(i, sign)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:  # parabolic prediction left the bracket: fall back to linear
                    h[i] = h[i] + sign * (h[i + int(sign)] - h[i]) / (pos[i + int(sign)] - pos[i])
                pos[i] += sign

    def _cell(self, value: float) -> int:
        """The k with h[k] <= value < h[k + 1], for h[0] <= value < h[4].

        Heights never decrease, so that cell is unique.
        """
        return bisect.bisect_right(self._heights, value) - 1

    def _parabolic(self, i: int, sign: float) -> float:
        h, pos = self._heights, self._positions
        return h[i] + sign / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + sign) * (h[i + 1] - h[i]) / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - sign) * (h[i] - h[i - 1]) / (pos[i] - pos[i - 1])
        )

    @property
    def value(self) -> float:
        """Current quantile estimate; NaN before the first observation."""
        if not self._heights:
            return float("nan")
        if len(self._heights) < 5 or self.count <= 5:
            rank = self.q * (len(self._heights) - 1)
            lo = int(np.floor(rank))
            hi = min(lo + 1, len(self._heights) - 1)
            return self._heights[lo] + (rank - lo) * (self._heights[hi] - self._heights[lo])
        return self._heights[2]
