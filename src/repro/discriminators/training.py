"""Offline discriminator training pipeline.

Figure 3 of the paper: the discriminator is trained on a binary classification
task separating high-quality *real* images (MS-COCO / DiffusionDB) from
*fake* images generated by both the lightweight and heavyweight diffusion
models.  The "EfficientNet w Fake" ablation instead treats heavy-model outputs
as the "real" class and light-model outputs as "fake".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.discriminators.architectures import (
    ArchitectureSpec,
    TrainedDiscriminator,
    get_architecture,
)
from repro.models.dataset import QueryDataset
from repro.models.generation import GeneratedImage, ImageGenerator
from repro.models.variants import ModelVariant

#: Seed of the generator used to synthesise training images when the caller
#: does not supply one.  Cache keys reference this constant, so changing it
#: invalidates memoized training results instead of serving stale ones.
DEFAULT_GENERATOR_SEED = 1234


@dataclass(frozen=True)
class TrainingConfig:
    """Configuration of a discriminator training run.

    Attributes
    ----------
    architecture:
        Backbone name (see :data:`~repro.discriminators.architectures.ARCHITECTURES`).
    real_source:
        ``"ground-truth"`` trains against real dataset images (the paper's
        final design); ``"heavy-model"`` trains against heavy-model outputs
        (the "EfficientNet w Fake" ablation).
    n_train:
        Number of training prompts sampled from the dataset.
    seed:
        Training seed (classifier init, noise).
    """

    architecture: str = "efficientnet-v2"
    real_source: str = "ground-truth"
    n_train: int = 800
    seed: int = 0

    def __post_init__(self) -> None:
        if self.real_source not in ("ground-truth", "heavy-model"):
            raise ValueError("real_source must be 'ground-truth' or 'heavy-model'")
        if self.n_train < 10:
            raise ValueError("n_train must be at least 10")


@dataclass
class TrainingResult:
    """A trained discriminator plus held-out evaluation statistics."""

    discriminator: TrainedDiscriminator
    train_accuracy: float
    quality_correlation: float
    config: TrainingConfig


class DiscriminatorTrainer:
    """Builds the real-vs-fake training set and fits the discriminator head."""

    def __init__(
        self,
        dataset: QueryDataset,
        light: ModelVariant,
        heavy: ModelVariant,
        generator: Optional[ImageGenerator] = None,
    ) -> None:
        self.dataset = dataset
        self.light = light
        self.heavy = heavy
        self.generator = generator or ImageGenerator(seed=DEFAULT_GENERATOR_SEED)

    # --------------------------------------------------------------- dataset
    def _training_prompts(self, config: TrainingConfig) -> np.ndarray:
        rng = np.random.default_rng(config.seed)
        n = min(config.n_train, len(self.dataset))
        return rng.choice(len(self.dataset), size=n, replace=False)

    def _generate(
        self, ids: Sequence[int], variant: ModelVariant, discriminator: TrainedDiscriminator
    ) -> List[GeneratedImage]:
        """``variant``'s images of prompts ``ids``, in order.

        The images and ``discriminator``'s observations of them are drawn in
        one vectorised pass (:meth:`ImageGenerator.seed_streams`); each image
        carries its observation.  A repeated id draws afresh after its first
        image, with the same bits.
        """
        query_ids = [int(i) for i in ids]
        difficulties = [self.dataset.difficulty(i) for i in query_ids]
        self.generator.seed_streams(query_ids, difficulties, [(variant, discriminator)])
        return [self.generator.generate(i, d, variant) for i, d in zip(query_ids, difficulties)]

    def build_training_set(
        self, config: TrainingConfig, architecture: ArchitectureSpec
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Backbone features and binary labels (1 = "real" class)."""
        ids = self._training_prompts(config)
        # A temporary discriminator gives us the backbone observation function.
        probe = TrainedDiscriminator(
            architecture, architecture.make_classifier(config.seed), seed=config.seed
        )
        light_images = self._generate(ids, self.light, probe)
        heavy_images = self._generate(ids, self.heavy, probe)

        def observe_generated(images: Sequence[GeneratedImage]) -> np.ndarray:
            return probe.observe_batch(images)

        rng = np.random.default_rng(config.seed + 7)
        if config.real_source == "ground-truth":
            real = self.dataset.real_features[ids]
            if architecture.observation_noise > 0:
                real = real + rng.normal(0.0, architecture.observation_noise, size=real.shape)
            fake = np.vstack([observe_generated(light_images), observe_generated(heavy_images)])
        else:
            # "EfficientNet w Fake": heavy-model outputs play the "real" class.
            real = observe_generated(heavy_images)
            fake = observe_generated(light_images)

        X = np.vstack([real, fake])
        y = np.concatenate([np.ones(len(real)), np.zeros(len(fake))])
        return X, y

    # ---------------------------------------------------------------- train
    def train(self, config: Optional[TrainingConfig] = None) -> TrainingResult:
        """Train a discriminator according to ``config``."""
        config = config or TrainingConfig()
        architecture = get_architecture(config.architecture)
        X, y = self.build_training_set(config, architecture)
        classifier = architecture.make_classifier(config.seed)
        classifier.fit(X, y)
        discriminator = TrainedDiscriminator(
            architecture,
            classifier,
            training_data="ground-truth" if config.real_source == "ground-truth" else "fake",
            seed=config.seed,
        )
        # Calibrate the confidence on held-out light-model outputs so that the
        # softmax confidence is spread over (0, 1) rather than saturated.
        rng = np.random.default_rng(config.seed + 17)
        calib_ids = rng.integers(0, len(self.dataset), size=min(300, len(self.dataset)))
        discriminator.calibrate(self._generate(calib_ids, self.light, discriminator))
        train_accuracy = classifier.accuracy(X, y)
        quality_correlation = self._quality_correlation(discriminator, config)
        return TrainingResult(
            discriminator=discriminator,
            train_accuracy=train_accuracy,
            quality_correlation=quality_correlation,
            config=config,
        )

    def _quality_correlation(
        self, discriminator: TrainedDiscriminator, config: TrainingConfig, n_eval: int = 400
    ) -> float:
        """Pearson correlation between confidence and latent quality on held-out prompts."""
        rng = np.random.default_rng(config.seed + 99)
        ids = rng.integers(0, len(self.dataset), size=min(n_eval, len(self.dataset)))
        images = self._generate(ids, self.light, discriminator)
        conf = discriminator.confidence_batch(images)
        quality = np.array([img.quality for img in images])
        if np.std(conf) == 0 or np.std(quality) == 0:
            return 0.0
        return float(np.corrcoef(conf, quality)[0, 1])


def train_default_discriminator(
    dataset: QueryDataset,
    light: ModelVariant,
    heavy: ModelVariant,
    *,
    seed: int = 0,
    n_train: int = 600,
) -> TrainedDiscriminator:
    """Convenience wrapper: train the paper's final configuration
    (EfficientNet-V2 with ground-truth real images)."""
    trainer = DiscriminatorTrainer(dataset, light, heavy)
    result = trainer.train(
        TrainingConfig(
            architecture="efficientnet-v2", real_source="ground-truth", n_train=n_train, seed=seed
        )
    )
    return result.discriminator
