"""Discriminator interface."""

from __future__ import annotations

import abc
from typing import Sequence

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

    def seed_observations(
        self,
        variant_name: str,
        query_ids: Sequence[int],
        held: Sequence[GeneratedImage],
        width: int,
    ) -> None:
        """Precompute the per-image random draws scoring these images will use.

        Called once per chunk of arrivals for the ``variant_name`` images of
        ``query_ids`` plus the ``held`` images an outcome table already
        holds; ``width`` is the length of their feature vectors.  A
        discriminator that draws no per-image randomness ignores it.
        """

    def end_turn(self) -> None:
        """A system's run is over: drop what :meth:`seed_observations` prepared."""

    def accepts(self, image: GeneratedImage, threshold: float) -> bool:
        """Whether the cascade should return ``image`` rather than defer."""
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        return self.confidence(image) >= threshold

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} latency={self.latency_s * 1e3:.1f}ms>"
