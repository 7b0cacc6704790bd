"""Gaussian sufficient statistics for the metrics pipeline.

Every FID in the paper's figures is a Fréchet distance between two Gaussian
fits.  :class:`GaussianStats` holds the count / feature-sum /
outer-product-sum sufficient statistics of one feature sample, so a fit is
O(d²) to read and the windowed-FID path can build per-window fits from
cumulative sums instead of re-scanning records.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def as_float_array(values: Iterable[float]) -> np.ndarray:
    """Coerce to a float ndarray, passing existing ndarrays through uncopied.

    Shared by every metrics entry point that accepts either a column from the
    result store (already an ndarray) or a plain Python sequence.
    """
    return np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=float)


class GaussianStats:
    """Sufficient statistics (n, sum x, sum x xᵀ) of a feature sample.

    The mean and covariance (``ddof=1``, matching :func:`numpy.cov`) are
    derived on demand, with no per-sample storage.
    """

    __slots__ = ("count", "sum", "outer")

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.count = 0
        self.sum = np.zeros(dim)
        self.outer = np.zeros((dim, dim))

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

    def add_batch(self, features: np.ndarray) -> None:
        """Fold a feature matrix (n_samples, dim) into the statistics."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        if features.shape[1] != self.dim:
            raise ValueError("feature dimensionality mismatch")
        self.count += features.shape[0]
        self.sum += features.sum(axis=0)
        self.outer += features.T @ features

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
