"""Deferral profile ``f(t)``.

The MILP resource allocator needs to know which fraction of queries the
cascade defers to the heavyweight model at a given confidence threshold
``t`` (Equation 3 in the paper).  ``f(t)`` is initialised by offline
profiling on a calibration set and updated online as thresholds change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.discriminators.base import Discriminator
from repro.models.dataset import QueryDataset
from repro.models.generation import ImageGenerator
from repro.models.variants import ModelVariant

#: Weight of the newest observation in the online correction's EWMA.
EWMA_ALPHA = 0.3


@dataclass
class DeferralProfile:
    """Empirical mapping from confidence threshold to deferral fraction.

    The profile stores the sorted calibration confidences; ``fraction(t)`` is
    the empirical probability that a confidence falls below ``t`` (those
    queries defer to the heavy model), which is monotonically non-decreasing
    in ``t`` by construction.
    """

    confidences: np.ndarray
    _online_correction: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        conf = np.asarray(self.confidences, dtype=float)
        if conf.ndim != 1 or conf.size == 0:
            raise ValueError("confidences must be a non-empty 1-D array")
        if conf.min() < 0 or conf.max() > 1:
            raise ValueError("confidences must lie in [0, 1]")
        self.confidences = np.sort(conf)

    # ----------------------------------------------------------------- f(t)
    def fraction(self, threshold: float) -> float:
        """Fraction of queries deferred to the heavy model at ``threshold``."""
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        base = float(np.searchsorted(self.confidences, threshold, side="left")) / len(
            self.confidences
        )
        return float(np.clip(base + self._online_correction, 0.0, 1.0))

    def fractions(self, thresholds: Sequence[float]) -> np.ndarray:
        """:meth:`fraction` of every threshold, element for element, in one pass."""
        thresholds = np.asarray(thresholds, dtype=float)
        if not np.all((thresholds >= 0.0) & (thresholds <= 1.0)):
            raise ValueError("threshold must lie in [0, 1]")
        base = np.searchsorted(self.confidences, thresholds, side="left") / len(self.confidences)
        return np.clip(base + self._online_correction, 0.0, 1.0)

    def threshold_for_fraction(self, fraction: float) -> float:
        """Largest threshold whose deferral fraction does not exceed ``fraction``.

        This is the inverse map the allocator uses: given the heavy-model
        capacity that the cluster can afford, pick the most quality-demanding
        threshold that still fits.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        target = np.clip(fraction - self._online_correction, 0.0, 1.0)
        n = len(self.confidences)
        k = int(np.floor(target * n))
        if k >= n:
            return 1.0
        if k <= 0:
            # Even the lowest confidence would defer; only threshold 0 (or
            # anything below the minimum confidence) defers nothing.
            return float(self.confidences[0])
        return float(self.confidences[k])

    def thresholds_for_fractions(self, fractions: Sequence[float]) -> np.ndarray:
        """:meth:`threshold_for_fraction` of every fraction, element for element, in one pass."""
        fractions = np.asarray(fractions, dtype=float)
        if not np.all((fractions >= 0.0) & (fractions <= 1.0)):
            raise ValueError("fraction must lie in [0, 1]")
        target = np.clip(fractions - self._online_correction, 0.0, 1.0)
        n = len(self.confidences)
        k = np.floor(target * n).astype(np.intp)
        return np.where(k >= n, 1.0, self.confidences[np.clip(k, 0, n - 1)])

    # --------------------------------------------------------------- online
    def update_online(self, threshold: float, observed_fraction: float) -> None:
        """Blend an observed deferral fraction into the profile (EWMA).

        The Controller calls this with the deferral rate it actually measured
        at the currently deployed threshold, correcting for drift between the
        calibration prompts and the live workload.
        """
        if not 0.0 <= observed_fraction <= 1.0:
            raise ValueError("observed_fraction must lie in [0, 1]")
        predicted = self.fraction(threshold) - self._online_correction
        error = observed_fraction - predicted
        self._online_correction = (
            (1 - EWMA_ALPHA) * self._online_correction + EWMA_ALPHA * error
        )

    # ------------------------------------------------------------ profiling
    @classmethod
    def profile(
        cls,
        discriminator: Discriminator,
        dataset: QueryDataset,
        light: ModelVariant,
        *,
        generator: Optional[ImageGenerator] = None,
        n_calibration: int = 500,
        seed: int = 0,
    ) -> "DeferralProfile":
        """Build ``f(t)`` by scoring light-model outputs on calibration prompts.

        The calibration images and their observations are drawn in one
        vectorised pass (:meth:`ImageGenerator.seed_streams`).
        """
        generator = generator or ImageGenerator(seed=seed)
        rng = np.random.default_rng(seed)
        n = min(n_calibration, len(dataset))
        ids = rng.choice(len(dataset), size=n, replace=False).tolist()
        difficulties = [dataset.difficulty(i) for i in ids]
        generator.seed_streams(ids, difficulties, [(light, discriminator)])
        images = [generator.generate(i, d, light) for i, d in zip(ids, difficulties)]
        confidences = discriminator.confidence_batch(images)
        return cls(confidences=np.clip(confidences, 0.0, 1.0))
