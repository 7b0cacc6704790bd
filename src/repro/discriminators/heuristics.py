"""Baseline discriminators: metric thresholds, random routing, and an oracle.

These implement the alternative cascade designs compared in Figure 1a:

* ``PickScoreDiscriminator`` / ``ClipScoreDiscriminator`` threshold the
  respective quantitative metric — which the paper shows performs no better
  than random, because the scores are not comparable across prompts
  (PickScore) or barely reflect perceptual quality (CLIPScore);
* ``RandomDiscriminator`` accepts each image with a fixed probability
  regardless of content;
* ``OracleDiscriminator`` exposes the latent quality directly and provides an
  upper bound used in tests.
"""

from __future__ import annotations


import numpy as np

from repro.discriminators.base import Discriminator
from repro.models.generation import GeneratedImage
from repro.models.scores import clip_score, pick_score
from repro.simulator.rng import stable_hash


def _squash(value: float, center: float, scale: float) -> float:
    """Map an unbounded score onto (0, 1) so thresholds are comparable."""
    return float(1.0 / (1.0 + np.exp(-(value - center) / scale)))


class PickScoreDiscriminator(Discriminator):
    """Thresholds the PickScore analogue (poor across-prompt separability)."""

    name = "pickscore"
    latency_s = 0.030  # PickScore runs a CLIP-H backbone; slower than EfficientNet.

    def __init__(self, center: float = 20.6, scale: float = 0.5) -> None:
        self.center = center
        self.scale = scale

    def confidence(self, image: GeneratedImage) -> float:
        return _squash(pick_score(image), self.center, self.scale)


class ClipScoreDiscriminator(Discriminator):
    """Thresholds the CLIPScore analogue (weak quality correlation)."""

    name = "clipscore"
    latency_s = 0.015

    def __init__(self, center: float = 0.355, scale: float = 0.03) -> None:
        self.center = center
        self.scale = scale

    def confidence(self, image: GeneratedImage) -> float:
        return _squash(clip_score(image), self.center, self.scale)


class RandomDiscriminator(Discriminator):
    """Accepts images with content-independent uniform confidence.

    With a threshold ``t``, a fraction ``t`` of queries is deferred in
    expectation, matching the "Random" classifier of Figure 1a.
    """

    name = "random"
    latency_s = 0.0

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def confidence(self, image: GeneratedImage) -> float:
        rng = np.random.default_rng(stable_hash(self.seed, image.query_id, image.variant_name))
        return float(rng.random())


class OracleDiscriminator(Discriminator):
    """Exposes the latent image quality directly.

    Test oracle for :class:`~repro.discriminators.deferral.DeferralProfile`
    (its fractions must match the quality quantiles) and a discriminator
    with known confidences for the :class:`~repro.core.worker.Worker` and
    :class:`~repro.core.load_balancer.LoadBalancer` tests.
    """

    name = "oracle"
    latency_s = 0.0

    def confidence(self, image: GeneratedImage) -> float:
        return float(image.quality)
