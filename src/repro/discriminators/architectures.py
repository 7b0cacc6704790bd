"""Simulated discriminator architectures.

Figure 7 of the paper compares discriminator backbones (EfficientNet-V2,
ResNet-34, ViT-B-16) and training-data choices (ground-truth real images vs.
heavy-model outputs as the "real" class).  In this reproduction an
architecture is characterised by:

* its inference latency on an A100 (10 ms / 2 ms / 5 ms respectively),
* its *capacity*, modelled as the observation noise added to the image
  features before classification (a lower-capacity backbone extracts a
  noisier view of the quality-bearing features), and
* the classifier head (MLP for the high-capacity backbones, logistic for the
  small one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.discriminators.base import Discriminator
from repro.discriminators.classifiers import LogisticClassifier, MLPClassifier
from repro.models.generation import GeneratedImage
from repro.simulator.rng import stable_hashes

Classifier = Union[LogisticClassifier, MLPClassifier]


@dataclass(frozen=True)
class ArchitectureSpec:
    """Capacity/latency description of one discriminator backbone.

    Attributes
    ----------
    name:
        Architecture label ("efficientnet-v2", "resnet-34", "vit-b-16").
    latency_s:
        Inference latency per image (seconds).
    observation_noise:
        Standard deviation of the Gaussian noise applied to the image features
        before the classifier head — the proxy for backbone capacity.
    hidden_units:
        Hidden units of the MLP head (0 selects a plain logistic head).
    """

    name: str
    latency_s: float
    observation_noise: float
    hidden_units: int = 0

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        if self.observation_noise < 0:
            raise ValueError("observation_noise must be non-negative")
        if self.hidden_units < 0:
            raise ValueError("hidden_units must be non-negative")

    def __hash__(self) -> int:
        # Equal specs have equal names.  Hashing the name alone keeps specs
        # cheap as dict keys: every image memo is keyed by one.
        return hash(self.name)

    def make_classifier(self, seed: int = 0) -> Classifier:
        """Instantiate the classifier head for this backbone."""
        if self.hidden_units > 0:
            return MLPClassifier(hidden_units=self.hidden_units, seed=seed)
        return LogisticClassifier()


#: Architecture registry with the per-image latencies from Section 4.4.
ARCHITECTURES: Dict[str, ArchitectureSpec] = {
    "efficientnet-v2": ArchitectureSpec(
        name="efficientnet-v2", latency_s=0.010, observation_noise=0.15, hidden_units=16
    ),
    "vit-b-16": ArchitectureSpec(
        name="vit-b-16", latency_s=0.005, observation_noise=0.45, hidden_units=16
    ),
    "resnet-34": ArchitectureSpec(
        name="resnet-34", latency_s=0.002, observation_noise=0.70, hidden_units=0
    ),
}


def get_architecture(name: str) -> ArchitectureSpec:
    """Look up an architecture spec by name (accepts short aliases)."""
    aliases = {
        "efficientnet": "efficientnet-v2",
        "resnet": "resnet-34",
        "vit": "vit-b-16",
    }
    key = aliases.get(name.lower(), name.lower())
    try:
        return ARCHITECTURES[key]
    except KeyError:
        known = ", ".join(sorted(ARCHITECTURES))
        raise KeyError(f"unknown architecture {name!r}; known: {known}") from None


class TrainedDiscriminator(Discriminator):
    """A discriminator backbone plus a trained classifier head.

    The discriminator observes the image features through the backbone
    (adding capacity-dependent observation noise with a seed derived from the
    image identity, so repeated scoring of the same image is deterministic)
    and returns the classifier's softmax probability of the "real" class.
    """

    def __init__(
        self,
        architecture: ArchitectureSpec,
        classifier: Classifier,
        *,
        training_data: str = "ground-truth",
        seed: int = 0,
    ) -> None:
        self.architecture = architecture
        self.classifier = classifier
        self.training_data = training_data
        self.seed = int(seed)
        self.latency_s = architecture.latency_s
        self.name = f"{architecture.name} ({training_data})"
        # Platt-style logit calibration (center, scale).  Raw real-vs-fake
        # logits saturate (generated images are easy to detect), which would
        # squash every confidence towards 0; calibrating on light-model
        # outputs spreads the confidence over (0, 1) like the paper's
        # softmax confidence scores while preserving the ordering.
        self._calibration: Optional[tuple] = None

    # ------------------------------------------------------------ calibration
    def calibrate(self, images: Sequence[GeneratedImage]) -> None:
        """Fit the confidence calibration on a set of light-model outputs.

        The calibration is a clipped min-max rescaling of the logits between
        their 10th and 90th percentile on the calibration set.  This mimics
        the saturating softmax of the real discriminator: the easiest ~10% of
        light-model outputs score exactly 1.0 (they are kept even at the
        maximum threshold) and the worst ~10% score exactly 0.0.
        """
        if len(images) < 10:
            raise ValueError("need at least 10 calibration images")
        logits = np.asarray(
            self.classifier.decision_function(self.observe_batch(images)), dtype=float
        ).ravel()
        lo = float(np.percentile(logits, 10))
        hi = float(np.percentile(logits, 90))
        if hi - lo <= 1e-9:
            hi = lo + 1.0
        self._calibration = (lo, hi)

    def _to_confidence(self, logits: np.ndarray) -> np.ndarray:
        if self._calibration is None:
            return 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))
        lo, hi = self._calibration
        return np.clip((logits - lo) / (hi - lo), 0.0, 1.0)

    # ------------------------------------------------------------- features
    @property
    def memo_key(self) -> Optional[tuple]:
        """``(seed, architecture)``, or ``None`` for a noiseless backbone (see the base class)."""
        if self.architecture.observation_noise == 0:
            return None
        return (self.seed, self.architecture)

    def observe(self, image: GeneratedImage) -> np.ndarray:
        """Backbone feature extraction: image features + capacity noise.

        The noise is keyed by ``(seed, architecture, query, variant)``, so an
        observation is a pure function of the image and this backbone.  An
        image memoizes its observation under :attr:`memo_key` when it sits
        in an outcome table (later systems of the cell read it back) or when
        its generator drew it together with the image; a memo without this
        backbone's key (another discriminator's) is filled on first use.
        """
        key = self.memo_key
        if key is None:
            return image.features
        noise_std = self.architecture.observation_noise
        memo = image.observations
        if memo is not None:
            row = memo.get(key)
            if row is None:
                row = memo[key] = self._draw_observation(image, noise_std)
                row.flags.writeable = False
            return row
        return self._draw_observation(image, noise_std)

    def observation_keys(self, variant_name: str, query_ids: Sequence[int]) -> List[int]:
        """Stream keys of the images' noise, ``(seed, architecture, query, variant)``."""
        return stable_hashes((self.seed, self.architecture.name), query_ids, (variant_name,))

    def observe_rows(self, features: np.ndarray, normals: np.ndarray) -> np.ndarray:
        """Observations of ``features`` rows from their streams' normals, as ``_draw_observation``.

        Each row is ``features + (0.0 + noise * z)`` for the first
        ``features.shape[1]`` normals ``z`` of its stream, element for
        element; the result is a new array.
        """
        observed = normals[:, : features.shape[1]] * self.architecture.observation_noise
        observed += 0.0
        observed += features
        return observed

    def _draw_observation(self, image: GeneratedImage, noise_std: float) -> np.ndarray:
        """One observation drawn from its own generator: the unseeded path and the oracle."""
        (key,) = self.observation_keys(image.variant_name, [image.query_id])
        rng = np.random.default_rng(key)
        return image.features + rng.normal(0.0, noise_std, size=image.features.shape)

    def observe_batch(self, images: Sequence[GeneratedImage]) -> np.ndarray:
        """Backbone features for a batch of images.

        Each row depends on its own image only, bit for bit, whatever the
        batch around it: that is what lets an image memoize its observation.
        """
        return np.stack([self.observe(img) for img in images])

    # ----------------------------------------------------------- confidence
    def confidence(self, image: GeneratedImage) -> float:
        """Calibrated probability that the image is a real (high-quality) image."""
        logits = np.asarray(
            self.classifier.decision_function(self.observe(image)[None, :]), dtype=float
        ).ravel()
        return float(self._to_confidence(logits)[0])

    def confidence_batch(self, images: Sequence[GeneratedImage]) -> np.ndarray:
        """Calibrated confidences for a batch, from one classifier call.

        Confidences are not memoized like observations: the classifier's
        logits are not bitwise batch-invariant.  The BLAS kernel behind the
        MLP head's matrix products is picked by row count, so one image's
        logit can differ in the last bits (~1e-15) between batches of
        different sizes.  A memoized confidence from another system's batch
        would therefore not be a bit-equal replay.
        """
        if len(images) == 0:
            return np.zeros(0)
        logits = np.asarray(
            self.classifier.decision_function(self.observe_batch(images)), dtype=float
        ).ravel()
        return self._to_confidence(logits)
