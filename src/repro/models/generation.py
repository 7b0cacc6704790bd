"""Synthetic image generation.

A generated "image" is represented by a low-dimensional feature vector (the
analogue of Inception features used by FID) plus a latent scalar quality.
The feature model is constructed so that:

* all diffusion outputs share a fixed offset from the real-image manifold
  (the "generated look"), giving a base FID in the paper's range;
* lower-quality outputs drift further along an artifact direction, so FID
  rises as average quality falls;
* heavyweight models produce slightly less diverse features (smaller
  covariance), while lightweight models are more diverse;
* per-query quality follows the variant's :class:`~repro.models.variants.QualityModel`,
  so that on easy queries the light model matches or beats the heavy model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.variants import ModelVariant
from repro.simulator.rng import SeedTable, stable_hash, stable_hashes

if TYPE_CHECKING:
    from repro.discriminators.base import Discriminator

#: Dimensionality of the synthetic image feature space.
FEATURE_DIM = 16

#: Magnitude of the fixed offset between real and generated feature means.
#: Its square (~15) is the base FID of a perfect-quality generator.
_BASE_OFFSET_NORM = 3.87

#: Scale converting quality deficit (1 - quality) into additional offset along
#: the artifact direction, on top of the base offset.
_ARTIFACT_GAIN = 1.6


def _unit_vector(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim)
    v[index] = 1.0
    return v


@dataclass(frozen=True)
class GeneratedImage:
    """The output of one diffusion model execution for one query.

    Attributes
    ----------
    query_id:
        Identifier of the query (prompt) the image was generated for.
    variant_name:
        Which model variant produced it.
    quality:
        Latent scalar quality in [0, 1]; not observable by the serving system
        (only the discriminator's confidence estimate is).
    features:
        Synthetic Inception-like feature vector used for FID and by the
        discriminators.
    seed:
        Generation seed (used by the reuse study for latent reuse).
    observations:
        Discriminator observations of this image, keyed by the
        discriminator's ``memo_key`` (``(seed, architecture)``).  An image
        its generator drew ahead, in an arrival chunk's vectorised pass,
        arrives carrying the observation of the discriminator that scores
        its stage.  ``None`` (observe afresh every time) unless the image
        was drawn ahead or sits in an :class:`ImageGenerator`'s outcome
        table, where later systems of the same cell read it back.

    The feature vector is made read-only: one image may be shared by the
    query records of several systems, so none of them may edit it in place.
    """

    query_id: int
    variant_name: str
    quality: float
    features: np.ndarray
    seed: int = 0
    observations: Optional[Dict[tuple, np.ndarray]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.quality <= 1.0:
            raise ValueError("quality must lie in [0, 1]")
        if self.features.ndim != 1:
            raise ValueError("features must be a 1-D vector")
        self.features.flags.writeable = False

    @classmethod
    def _from_chunk(
        cls,
        query_id: int,
        variant_name: str,
        quality: float,
        features: np.ndarray,
        seed: int,
        observations: Optional[Dict[tuple, np.ndarray]],
    ) -> "GeneratedImage":
        """An image from a row of :meth:`ImageGenerator.seed_streams`, without re-validation.

        The chunk pass already clipped ``quality`` to [0, 1] and hands out
        ``features`` as a 1-D read-only row, which is all
        :meth:`__post_init__` checks; the fields go straight into the
        instance dict, as the frozen ``__init__`` would set them.
        """
        image = object.__new__(cls)
        fields = image.__dict__
        fields["query_id"] = query_id
        fields["variant_name"] = variant_name
        fields["quality"] = quality
        fields["features"] = features
        fields["seed"] = seed
        fields["observations"] = observations
        return image


class ImageGenerator:
    """Generates synthetic images for (query, variant) pairs.

    The generator is deterministic given ``(seed, query_id, variant)``: the
    same query processed twice by the same variant yields the same image.
    This mirrors fixed-seed diffusion sampling and keeps simulations
    reproducible regardless of the order in which workers execute queries.

    Because an outcome is a pure function of ``(seed, query_id, variant,
    difficulty)``, the systems of one comparison cell can share a generator
    and draw each outcome once.  :meth:`share` opens an outcome table for a
    number of *readers*; each system takes one turn (:meth:`take_turn`, from
    ``ServingSimulation.prepare``) and a drawn image is stored only while a
    later turn can still read it.  The last reader, and a generator nobody
    shares, therefore retains nothing, and :meth:`end_turn` drops what is
    left once the last reader is done.  A hit is bit-equal to a fresh draw,
    so the turn count only decides what memory is held, never a result.  A
    pickled generator carries no entries and takes no turns.

    A draw's stream is ``default_rng(stable_hash(seed, query_id, variant))``:
    a quality-noise normal (when the variant has quality noise), then one
    normal per feature.  :meth:`seed_streams` draws, for a chunk of
    arrivals, the rows of every first-stage image and of the observation
    the stage's discriminator will make of it, all in one vectorised pass
    (:meth:`~repro.simulator.rng.SeedTable.normals`).  It turns them into
    qualities, features and observations with the scalar draws' operations
    in the scalar draws' order and files them in a
    :class:`~repro.simulator.rng.SeedTable`, where a row nobody took yet
    survives into the next chunk.  A draw reads its row from the table when
    it is there (the image then carries its observation) and builds its
    stream afresh otherwise, with the same bits either way.
    """

    def __init__(self, seed: int = 0, feature_dim: int = FEATURE_DIM) -> None:
        if feature_dim < 4:
            raise ValueError("feature_dim must be >= 4")
        self.seed = int(seed)
        self.feature_dim = int(feature_dim)
        # Fixed directions of the generative "domain gap" and of artifacts.
        self._domain_offset = _BASE_OFFSET_NORM * _unit_vector(feature_dim, 0)
        self._artifact_direction = _unit_vector(feature_dim, 0)
        self._outcomes: Dict[Tuple[int, str, float], Tuple[ModelVariant, GeneratedImage]] = {}
        self._readers = 0
        self.seed_table = SeedTable()
        #: Telemetry only (never in summaries or cache keys): images drawn
        #: from an rng, images served from the outcome table, and how many
        #: draws took their stream from the seed table or built it afresh.
        self.draws = 0
        self.hits = 0
        self.seeded_draws = 0
        self.fallback_draws = 0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.update(_outcomes={}, _readers=0, draws=0, hits=0, seeded_draws=0, fallback_draws=0)
        return state

    # -------------------------------------------------------- outcome table
    def share(self, readers: int) -> None:
        """Open an empty outcome table for ``readers`` turns."""
        self._outcomes.clear()
        self._readers = readers

    def take_turn(self) -> None:
        """One reader starts drawing; outcomes are now kept for the readers after it."""
        if self._readers > 0:
            self._readers -= 1

    def end_turn(self) -> None:
        """A reader is done: drop its seeded rows, and every outcome once no reader is left."""
        self.seed_table.clear()
        if self._readers == 0:
            self._outcomes.clear()

    @property
    def entries(self) -> int:
        """Outcomes currently held for later readers."""
        return len(self._outcomes)

    # ------------------------------------------------------------------ rng
    def seed_streams(
        self,
        query_ids: Sequence[int],
        difficulties: Sequence[float],
        stages: Sequence[Tuple[ModelVariant, Optional[Discriminator]]],
    ) -> None:
        """Draw every first-stage image and observation these arrivals can need.

        ``stages`` holds one ``(variant, discriminator)`` pair per pool an
        arrival can enter first; ``discriminator`` scores that stage, or is
        ``None``.  All rows are drawn in one vectorised pass: per stage, the
        images ``variant`` will generate and the observations
        ``discriminator`` will make of them.  A query takes one stage's row
        and the table retires its rows under the others.

        Queries whose outcome the outcome table already holds are skipped:
        they will not be drawn, and neither is a difficulty outside [0, 1],
        which :meth:`generate` rejects.  A held image that lacks the
        stage's observation gets it now, in its memo.
        """
        plans, groups = [], []
        for variant, discriminator in stages:
            fresh, fresh_difficulties, held = self._unheld(query_ids, difficulties, variant)
            memo_key = None if discriminator is None else discriminator.memo_key
            noisy = variant.quality.quality_noise > 0
            groups.append(
                (stable_hashes((self.seed,), fresh, (variant.name,)), noisy + self.feature_dim)
            )
            if memo_key is not None:
                held = [image for image in held if memo_key not in image.observations]
                observed = fresh + [image.query_id for image in held]
                groups.append(
                    (discriminator.observation_keys(variant.name, observed), self.feature_dim)
                )
            plans.append((variant, discriminator, memo_key, fresh, fresh_difficulties, held))
        normals = iter(self.seed_table.normals(groups))
        chunk = {}
        for variant, discriminator, memo_key, fresh, fresh_difficulties, held in plans:
            quality, features = self._chunk_images(variant, fresh_difficulties, next(normals))
            observations = [None] * len(fresh)
            if memo_key is not None:
                scored = features
                if held:
                    scored = np.concatenate([features, [image.features for image in held]])
                observations = discriminator.observe_rows(scored, next(normals))
                observations.flags.writeable = False
                for image, row in zip(held, observations[len(fresh) :]):
                    image.observations[memo_key] = row
            # The stage's quality model and memo key go in as columns too:
            # the table files and carries rows column by column.
            columns = (
                fresh_difficulties,
                [variant.quality] * len(fresh),
                quality.tolist(),
                features,
                [memo_key] * len(fresh),
                observations,
            )
            chunk[variant.name] = (fresh, columns)
        self.seed_table.fill(chunk)

    def _unheld(
        self, query_ids: Sequence[int], difficulties: Sequence[float], variant: ModelVariant
    ) -> Tuple[List[int], List[float], List[GeneratedImage]]:
        """The queries ``variant`` will draw afresh, their difficulties, and the held images."""
        if not self._outcomes and all(0.0 <= d <= 1.0 for d in difficulties):
            return list(query_ids), list(difficulties), []
        fresh, fresh_difficulties, held = [], [], []
        keys = zip(query_ids, itertools.repeat(variant.name), difficulties)
        for qid, difficulty, stored in zip(query_ids, difficulties, map(self._outcomes.get, keys)):
            if stored is not None and stored[0] is variant:
                held.append(stored[1])
            elif 0.0 <= difficulty <= 1.0:
                fresh.append(qid)
                fresh_difficulties.append(difficulty)
        return fresh, fresh_difficulties, held

    def _chunk_images(
        self, variant: ModelVariant, difficulties: Sequence[float], normals: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Qualities and read-only features of a chunk's images, from their streams' normals.

        :meth:`generate`'s scalar operations, element for element: noise is
        ``0.0 + scale * z`` and the clip is Python's ``min(max(q, 0.0), 1.0)``.
        """
        qm = variant.quality
        noisy = qm.quality_noise > 0
        quality = qm.base_quality - qm.difficulty_sensitivity * np.asarray(
            difficulties, dtype=float
        )
        quality = quality + (0.0 + qm.quality_noise * normals[:, 0] if noisy else 0.0)
        quality = np.where(0.0 > quality, 0.0, quality)
        quality = np.where(1.0 < quality, 1.0, quality)
        # The artifact term goes in a column at a time rather than as a
        # second chunk-sized array.
        features = normals[:, noisy:] * np.sqrt(qm.diversity)
        features += 0.0
        features += self._domain_offset
        shift = self._artifact_shift(quality, qm)
        for column, direction in zip(features.T, self._artifact_direction.tolist()):
            column += shift * direction
        features.flags.writeable = False
        return quality, features

    # ------------------------------------------------------------- sampling
    def sample_quality(
        self, difficulty: float, variant: ModelVariant, rng: Optional[np.random.Generator] = None
    ) -> float:
        """Sample the latent quality of ``variant`` on a query of ``difficulty``."""
        if not 0.0 <= difficulty <= 1.0:
            raise ValueError("difficulty must lie in [0, 1]")
        qm = variant.quality
        mean = qm.mean_quality(difficulty)
        noise = 0.0
        if rng is not None and qm.quality_noise > 0:
            noise = float(rng.normal(0.0, qm.quality_noise))
        return float(min(max(mean + noise, 0.0), 1.0))

    def generate(
        self,
        query_id: int,
        difficulty: float,
        variant: ModelVariant,
        *,
        reuse_from: Optional[GeneratedImage] = None,
        reuse_penalty: float = 0.0,
    ) -> GeneratedImage:
        """Generate the image ``variant`` produces for a query.

        Parameters
        ----------
        query_id, difficulty:
            Identity and latent difficulty of the query.
        variant:
            The diffusion model variant executing the query.
        reuse_from:
            If given, the heavy model starts from the light model's output
            (the "reuse opportunities" discussion in Section 5).  Reuse within
            the same model family is quality-neutral; across families it
            degrades quality by ``reuse_penalty``.
        reuse_penalty:
            Quality penalty applied when reusing an incompatible latent.

        A plain draw is served from the outcome table when an earlier reader
        stored it, and otherwise from the seed table when :meth:`seed_streams`
        drew it; a reuse draw is never stored and always draws afresh.
        """
        reuse = reuse_from is not None and reuse_penalty > 0
        key = (int(query_id), variant.name, difficulty)
        if not reuse:
            stored = self._outcomes.get(key)
            if stored is not None and stored[0] is variant:
                self.hits += 1
                return stored[1]
        self.draws += 1
        keep = self._readers > 0 and not reuse
        image = None if reuse else self._seeded(query_id, difficulty, variant, keep)
        if image is not None:
            self.seeded_draws += 1
        else:
            self.fallback_draws += 1
            rng = np.random.default_rng(stable_hash(self.seed, int(query_id), variant.name))
            quality = self.sample_quality(difficulty, variant, rng)
            if reuse:
                quality = float(min(max(quality - reuse_penalty, 0.0), 1.0))
            qm = variant.quality
            core = rng.normal(0.0, np.sqrt(qm.diversity), size=self.feature_dim)
            features = (
                core
                + self._domain_offset
                + self._artifact_shift(quality, qm) * self._artifact_direction
            )
            image = GeneratedImage(
                query_id=int(query_id),
                variant_name=variant.name,
                quality=quality,
                features=features,
                seed=self.seed,
                observations={} if keep else None,
            )
        if keep:
            self._outcomes[key] = (variant, image)
        return image

    def _seeded(
        self, query_id: int, difficulty: float, variant: ModelVariant, keep: bool
    ) -> Optional[GeneratedImage]:
        """The image :meth:`seed_streams` drew for this query, or ``None``.

        The image carries the observation drawn with it.  A row drawn for
        another difficulty or another quality model is not this draw's.
        """
        found = self.seed_table.take(variant.name, query_id)
        if found is None:
            return None
        (difficulties, models, qualities, features, memo_keys, observed), i = found
        if difficulties[i] != difficulty or models[i] is not variant.quality:
            return None
        memo_key = memo_keys[i]
        if memo_key is not None:
            observations = {memo_key: observed[i]}
        else:
            observations = {} if keep else None
        return GeneratedImage._from_chunk(
            int(query_id), variant.name, qualities[i], features[i], self.seed, observations
        )

    @staticmethod
    def _artifact_shift(quality, qm):
        """How far an image of ``quality`` drifts along the artifact direction."""
        return (1.0 - quality) * qm.artifact_scale * _ARTIFACT_GAIN

    def generate_batch(
        self,
        query_ids: Sequence[int],
        difficulties: Sequence[float],
        variant: ModelVariant,
    ) -> list:
        """Generate images for a batch of queries."""
        if len(query_ids) != len(difficulties):
            raise ValueError("query_ids and difficulties must have the same length")
        return [
            self.generate(qid, d, variant) for qid, d in zip(query_ids, difficulties)
        ]

    # ------------------------------------------------------------ real data
    def sample_real_features(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``n`` real-image feature vectors (the FID reference set)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return rng.normal(0.0, 1.0, size=(n, self.feature_dim))
