"""Discriminator interface.

A discriminator scores generated images with a confidence.  One that draws
per-image randomness (a trained backbone's observation noise) names the
memo key its observations go under and derives their stream keys in one
method, so an :class:`~repro.models.generation.ImageGenerator` can draw a
chunk's observations in the vectorised pass that draws its images; each
image then carries its observation, and scoring it draws nothing.
"""

from __future__ import annotations

import abc
from typing import Hashable, List, Optional, Sequence

import numpy as np

from repro.models.generation import GeneratedImage


class Discriminator(abc.ABC):
    """Scores generated images with a confidence in [0, 1].

    A confidence close to 1 means the image is indistinguishable from a real
    high-quality image; close to 0 means it shows generation artifacts.  The
    cascade accepts an image when ``confidence >= threshold``.
    """

    #: Inference latency of the discriminator itself (seconds per image).
    latency_s: float = 0.0

    #: Human-readable name used in figures and logs.
    name: str = "discriminator"

    @abc.abstractmethod
    def confidence(self, image: GeneratedImage) -> float:
        """Confidence that ``image`` meets the quality bar (in [0, 1])."""

    def confidence_batch(self, images: Sequence[GeneratedImage]) -> np.ndarray:
        """Vectorised confidence for a batch of images.

        Computed afresh for every batch, never memoized per image: a
        vectorised scorer's per-row result may depend on the batch's row
        count (BLAS picks kernels by shape), so only a per-batch call
        reproduces a run bit for bit.
        """
        return np.array([self.confidence(img) for img in images], dtype=float)

    @property
    def memo_key(self) -> Optional[Hashable]:
        """The key an image memoizes this discriminator's observation under.

        ``None`` for a discriminator that draws no per-image randomness:
        there is nothing to draw ahead for it.  Otherwise
        :meth:`observation_keys` and :meth:`observe_rows` let an
        :class:`~repro.models.generation.ImageGenerator` draw the
        observations of a chunk's images in its one vectorised pass and
        hand each image its observation in
        :attr:`~repro.models.generation.GeneratedImage.observations`.
        """
        return None

    def observation_keys(self, variant_name: str, query_ids: Sequence[int]) -> List[int]:
        """Stream keys of the observations of ``variant_name``'s images of ``query_ids``."""
        raise NotImplementedError(f"{type(self).__name__} draws no observations")

    def observe_rows(self, features: np.ndarray, normals: np.ndarray) -> np.ndarray:
        """Observations of ``features`` rows, each from its stream's leading standard normals."""
        raise NotImplementedError(f"{type(self).__name__} draws no observations")

    def accepts(self, image: GeneratedImage, threshold: float) -> bool:
        """Whether the cascade should return ``image`` rather than defer."""
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        return self.confidence(image) >= threshold

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} latency={self.latency_s * 1e3:.1f}ms>"
