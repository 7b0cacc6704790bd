"""Frechet Inception Distance (FID) over feature sets.

FID fits a Gaussian to each of two feature sets (generated and real) and
computes the Frechet distance between the Gaussians::

    FID = ||mu_g - mu_r||^2 + Tr(S_g + S_r - 2 (S_g S_r)^{1/2})

This is exactly the metric from Heusel et al. (2017); the only substitution in
this reproduction is that the features come from the synthetic image model
rather than an Inception network.

Two evaluation paths are provided:

* the generic one (``fid_score`` with raw arrays), which calls
  ``scipy.linalg.sqrtm`` on the non-symmetric product ``S_g S_r``; and
* a streaming path built on cached :class:`RealMoments`: the real-feature
  Gaussian (and its symmetric square root) is fit **once** per dataset, after
  which every FID evaluation reduces to one symmetric eigendecomposition of
  ``S_r^{1/2} S_g S_r^{1/2}`` — the trace term identity
  ``Tr((S_g S_r)^{1/2}) = Tr((S_r^{1/2} S_g S_r^{1/2})^{1/2})`` holds for PSD
  matrices.  :func:`windowed_fid` uses it with cumulative per-window
  sufficient statistics, so a whole FID time series costs one pass over the
  features instead of one Gaussian fit + ``sqrtm`` per window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np


def _fit_gaussian(features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix of a feature set."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError("features must be a 2-D array (n_samples, dim)")
    if features.shape[0] < 2:
        raise ValueError("need at least 2 samples to estimate a covariance")
    mu = features.mean(axis=0)
    sigma = np.cov(features, rowvar=False)
    return mu, np.atleast_2d(sigma)


def _psd_sqrt(matrix: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Symmetric square root of a symmetric PSD matrix via eigendecomposition.

    Tiny negative eigenvalues from floating-point error are clipped to zero.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    eigvals, eigvecs = np.linalg.eigh((matrix + matrix.T) / 2.0)
    root = eigvecs * np.sqrt(np.clip(eigvals, eps, None)) @ eigvecs.T
    return (root + root.T) / 2.0


@dataclass(frozen=True)
class RealMoments:
    """Cached moments of a reference (real-image) feature distribution.

    Holds ``mu_r``, ``Sigma_r`` and the symmetric square root
    ``Sigma_r^{1/2}`` so repeated FID evaluations against the same reference
    set (every window of a time series, every threshold of a sweep, every
    system of a comparison) skip both the Gaussian fit and the ``sqrtm``.
    """

    mu: np.ndarray
    sigma: np.ndarray
    sqrt_sigma: np.ndarray = field(repr=False)

    @classmethod
    def fit(cls, real_features: np.ndarray) -> "RealMoments":
        """Fit the reference Gaussian and precompute its square root."""
        mu, sigma = _fit_gaussian(real_features)
        return cls(mu=mu, sigma=sigma, sqrt_sigma=_psd_sqrt(sigma))

    @property
    def trace(self) -> float:
        """``Tr(Sigma_r)`` (one term of every Frechet distance)."""
        return float(np.trace(self.sigma))


def frechet_distance(
    mu1: np.ndarray, sigma1: np.ndarray, mu2: np.ndarray, sigma2: np.ndarray, eps: float = 1e-6
) -> float:
    """Frechet distance between two Gaussians given their moments.

    Numerically robust: if the matrix square root fails to converge or comes
    back complex due to floating point error, a small diagonal offset is added
    (the standard trick used by reference FID implementations).
    """
    mu1 = np.asarray(mu1, dtype=float)
    mu2 = np.asarray(mu2, dtype=float)
    sigma1 = np.atleast_2d(np.asarray(sigma1, dtype=float))
    sigma2 = np.atleast_2d(np.asarray(sigma2, dtype=float))
    if mu1.shape != mu2.shape:
        raise ValueError("mean vectors have mismatched shapes")
    if sigma1.shape != sigma2.shape:
        raise ValueError("covariance matrices have mismatched shapes")

    # Imported here so that importing repro (every CLI start does) loads no
    # scipy subpackage; only this raw-array path needs it.
    from scipy import linalg

    def _sqrtm(matrix: np.ndarray) -> np.ndarray:
        # scipy < 1.18 returns (sqrtm, errest) when disp=False; newer versions
        # return just the matrix.  Handle both without tripping the
        # deprecation warning.
        result = linalg.sqrtm(matrix)
        return result[0] if isinstance(result, tuple) else result

    diff = mu1 - mu2
    covmean = _sqrtm(sigma1.dot(sigma2))
    if not np.isfinite(covmean).all():
        offset = np.eye(sigma1.shape[0]) * eps
        covmean = _sqrtm((sigma1 + offset).dot(sigma2 + offset))
    if np.iscomplexobj(covmean):
        covmean = covmean.real
    dist = float(diff.dot(diff) + np.trace(sigma1) + np.trace(sigma2) - 2.0 * np.trace(covmean))
    # Tiny negative values can appear from floating point error.
    return max(dist, 0.0)


def frechet_from_moments(
    mu_g: np.ndarray, sigma_g: np.ndarray, real: RealMoments
) -> float:
    """Frechet distance against cached reference moments — no ``sqrtm``.

    The trace term is evaluated as ``2 Σ sqrt(λ_i)`` over the eigenvalues of
    the *symmetric* matrix ``S_r^{1/2} S_g S_r^{1/2}``, which equals
    ``2 Tr((S_g S_r)^{1/2})`` for PSD inputs but needs only one
    ``eigvalsh`` per call (the reference square root is precomputed).
    """
    mu_g = np.asarray(mu_g, dtype=float)
    sigma_g = np.atleast_2d(np.asarray(sigma_g, dtype=float))
    if mu_g.shape != real.mu.shape:
        raise ValueError("mean vectors have mismatched shapes")
    if sigma_g.shape != real.sigma.shape:
        raise ValueError("covariance matrices have mismatched shapes")
    diff = mu_g - real.mu
    inner = real.sqrt_sigma @ sigma_g @ real.sqrt_sigma
    eigvals = np.linalg.eigvalsh((inner + inner.T) / 2.0)
    trace_term = 2.0 * np.sqrt(np.clip(eigvals, 0.0, None)).sum()
    dist = float(diff.dot(diff) + np.trace(sigma_g) + real.trace - trace_term)
    return max(dist, 0.0)


def fid_score(
    generated_features: np.ndarray,
    real_features: Optional[np.ndarray] = None,
    *,
    real_moments: Optional[RealMoments] = None,
) -> float:
    """FID between a set of generated features and a set of real features.

    Pass ``real_moments`` (see :meth:`RealMoments.fit`) instead of
    ``real_features`` to skip re-fitting the reference Gaussian — the hot
    path for threshold sweeps and per-system comparisons over one dataset.
    """
    mu_g, sigma_g = _fit_gaussian(np.asarray(generated_features, dtype=float))
    if real_moments is not None:
        return frechet_from_moments(mu_g, sigma_g, real_moments)
    if real_features is None:
        raise ValueError("provide real_features or real_moments")
    mu_r, sigma_r = _fit_gaussian(np.asarray(real_features, dtype=float))
    return frechet_distance(mu_g, sigma_g, mu_r, sigma_r)


def fid_from_images(images: Sequence, real_features: np.ndarray) -> float:
    """FID of a collection of :class:`~repro.models.generation.GeneratedImage`.

    Test oracle for the image quality model of
    :class:`~repro.models.generation.ImageGenerator` and for discriminator
    routing: it scores hand-picked image sets directly, with no simulation.
    """
    if len(images) < 2:
        raise ValueError("need at least 2 generated images to compute FID")
    feats = np.stack([img.features for img in images])
    return fid_score(feats, real_features)


def _windowed_edges(window: float, horizon: float) -> Tuple[np.ndarray, np.ndarray]:
    if window <= 0 or horizon <= 0:
        raise ValueError("window and horizon must be positive")
    edges = np.arange(0.0, horizon + window, window)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return edges, centers


def windowed_fid(
    timestamps: Sequence[float],
    features: np.ndarray,
    real_features: Optional[np.ndarray] = None,
    window: Optional[float] = None,
    horizon: Optional[float] = None,
    min_samples: int = 8,
    *,
    real_moments: Optional[RealMoments] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """FID time series over sliding windows (used for the Figure 5/8 time plots).

    Returns ``(window_centers, fid_values)``; windows with fewer than
    ``min_samples`` completions carry the previous window's value (or NaN if
    none exists yet).

    Streaming implementation: per-window sufficient statistics (the array
    form of :class:`~repro.metrics.accumulators.GaussianStats` — count,
    feature sum, Gram matrix per window, accumulated in one pass over the
    sorted features), then every occupied window's distance against the
    (cached or once-fit) reference moments in a single *batched* symmetric
    eigendecomposition — no per-window Gaussian re-fit, no per-window
    ``sqrtm``, no per-window Python-level call.
    """
    # Only real_features is optional (real_moments replaces it); window and
    # horizon are still required — defaulting them would silently produce a
    # series over a horizon unrelated to the run.
    if window is None or horizon is None:
        raise TypeError("windowed_fid requires explicit window and horizon")
    timestamps = np.asarray(timestamps, dtype=float)
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if len(timestamps) != len(features):
        raise ValueError("timestamps and features must align")
    edges, centers = _windowed_edges(window, horizon)
    if real_moments is None:
        if real_features is None:
            raise ValueError("provide real_features or real_moments")
        real_moments = RealMoments.fit(real_features)

    # Completion times arrive already sorted from the simulator (time only
    # moves forward); searchsorted needs them exactly sorted, so only pay for
    # the permutation when a caller hands in out-of-order data.
    if np.any(np.diff(timestamps) < 0):
        order = np.argsort(timestamps, kind="stable")
        ts, feats = timestamps[order], features[order]
    else:
        ts, feats = timestamps, features
    starts = np.searchsorted(ts, edges[:-1], side="left")
    stops = np.searchsorted(ts, edges[1:], side="left")
    counts = stops - starts
    occupied = np.flatnonzero(counts >= max(min_samples, 2))

    values = np.full(len(centers), np.nan)
    if len(occupied):
        dim = feats.shape[1]
        # Sufficient statistics per occupied window: one pass over the rows,
        # one small BLAS Gram per window.
        sums = np.empty((len(occupied), dim))
        grams = np.empty((len(occupied), dim, dim))
        for k, w in enumerate(occupied):
            segment = feats[starts[w] : stops[w]]
            sums[k] = segment.sum(axis=0)
            grams[k] = segment.T @ segment
        n = counts[occupied].astype(float)[:, None]
        mus = sums / n
        covs = (grams - n[:, :, None] * mus[:, :, None] * mus[:, None, :]) / (n[:, :, None] - 1.0)
        covs = (covs + covs.transpose(0, 2, 1)) / 2.0
        # Batched trace term: eigvalsh over all windows' S_r^{1/2} S_g S_r^{1/2}.
        root = real_moments.sqrt_sigma
        inner = root @ covs @ root
        inner = (inner + inner.transpose(0, 2, 1)) / 2.0
        eigvals = np.linalg.eigvalsh(inner)
        trace_term = 2.0 * np.sqrt(np.clip(eigvals, 0.0, None)).sum(axis=1)
        diff = mus - real_moments.mu
        dists = (
            (diff * diff).sum(axis=1)
            + np.trace(covs, axis1=1, axis2=2)
            + real_moments.trace
            - trace_term
        )
        values[occupied] = np.maximum(dists, 0.0)
        # Forward-fill: windows below min_samples carry the previous value.
        carry = np.maximum.accumulate(np.where(np.isfinite(values), np.arange(len(values)), -1))
        values = np.where(carry >= 0, values[np.maximum(carry, 0)], np.nan)
    return centers, values


def windowed_fid_reference(
    timestamps: Sequence[float],
    features: np.ndarray,
    real_features: np.ndarray,
    window: float,
    horizon: float,
    min_samples: int = 8,
) -> Tuple[np.ndarray, np.ndarray]:
    """Brute-force windowed FID: per-window mask, Gaussian fit, and ``sqrtm``.

    Test oracle for :func:`windowed_fid` and
    ``SimulationResult.fid_timeseries``, and the baseline of the windowed-FID
    benchmark.
    """
    timestamps = np.asarray(timestamps, dtype=float)
    features = np.asarray(features, dtype=float)
    if len(timestamps) != len(features):
        raise ValueError("timestamps and features must align")
    edges, centers = _windowed_edges(window, horizon)
    values = np.full(len(centers), np.nan)
    last = np.nan
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        mask = (timestamps >= lo) & (timestamps < hi)
        if mask.sum() >= min_samples:
            last = fid_score(features[mask], real_features)
        values[i] = last
    return centers, values
