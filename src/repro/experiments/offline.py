"""Offline cascade evaluation: Figures 1a, 1b, 1c and 7 and the Section 5 reuse study.

None of these serves a query.  :class:`CascadeEvaluator` draws every prompt's
image from a cascade's light and heavy models and turns a threshold sweep (a
query defers when its score falls below the threshold) into an FID vs. mean
batch-one latency curve.  Figure 1a compares routing rules, 1b the per-prompt
light-minus-heavy quality difference, 1c the (threshold, batch sizes,
placement) configurations of a 10-worker cluster by FID and throughput
``min(x1 * T1(b1), x2 * T2(b2) / f)``, and Figure 7 four discriminator
designs.  The reuse study starts the heavy model from the light model's
output, with a per-cascade compatibility penalty (the paper: no change for
SD-Turbo, FID 18.55 -> 19.75 for SDXS).  :data:`OFFLINE` maps each CLI name
to its description and renderer; :func:`main` prints a render.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.discriminators.base import Discriminator
from repro.discriminators.heuristics import ClipScoreDiscriminator, PickScoreDiscriminator
from repro.discriminators.training import TrainingConfig
from repro.experiments.harness import BENCH_SCALE, ExperimentScale, format_table
from repro.metrics.fid import RealMoments, fid_score
from repro.metrics.pareto import ParetoPoint, pareto_frontier
from repro.models.dataset import QueryDataset
from repro.models.generation import ImageGenerator
from repro.models.scores import pick_score
from repro.models.variants import ModelVariant
from repro.models.zoo import CascadeSpec, get_cascade, get_variant
from repro.runner.artifacts import cached_dataset, cached_training_result


# ------------------------------------------------------------------ evaluator
@dataclass(frozen=True)
class CascadePoint:
    """One point of a quality/latency trade-off curve."""

    threshold: float
    deferral_fraction: float
    fid: float
    mean_latency: float
    mean_quality: float


@dataclass
class CascadeCurve:
    """A full threshold sweep for one cascade/discriminator combination."""

    label: str
    points: List[CascadePoint] = field(default_factory=list)

    @property
    def fids(self) -> np.ndarray:
        """FID values along the sweep."""
        return np.array([p.fid for p in self.points])

    @property
    def latencies(self) -> np.ndarray:
        """Mean per-query latencies along the sweep."""
        return np.array([p.mean_latency for p in self.points])

    def best_fid(self) -> float:
        """Lowest FID achieved anywhere on the sweep."""
        return float(self.fids.min()) if self.points else float("nan")

    def fid_at_latency(self, latency_budget: float) -> float:
        """Lowest FID among points whose mean latency fits the budget."""
        feasible = [p.fid for p in self.points if p.mean_latency <= latency_budget]
        return float(min(feasible)) if feasible else float("nan")


@dataclass
class CascadeEvaluator:
    """Evaluates a light/heavy cascade offline on a dataset."""

    dataset: QueryDataset
    light: ModelVariant
    heavy: ModelVariant
    generator: ImageGenerator = field(default_factory=lambda: ImageGenerator(seed=0))
    discriminator_latency: float = 0.01
    n_queries: Optional[int] = None

    def _query_ids(self) -> np.ndarray:
        n = len(self.dataset) if self.n_queries is None else min(self.n_queries, len(self.dataset))
        return np.arange(n)

    def _real_moments(self) -> RealMoments:
        """Reference moments of the evaluated slice, fit once per evaluator.

        Every threshold of every sweep scores against the same real features;
        caching the fit (and its matrix square root) makes each sweep point an
        eigendecomposition instead of a Gaussian re-fit plus ``sqrtm``.  When
        the evaluator covers the whole dataset, the dataset's own cached
        moments are shared instead of re-fit.
        """
        ids = self._query_ids()
        if len(ids) == len(self.dataset):
            return self.dataset.real_moments
        moments = getattr(self, "_cached_real_moments", None)
        if moments is None:
            moments = RealMoments.fit(self.dataset.real_features[ids])
            self._cached_real_moments = moments
        return moments

    def generate_pairs(self) -> tuple:
        """(light images, heavy images) for every evaluated prompt, drawn once per evaluator."""
        pairs = getattr(self, "_cached_pairs", None)
        if pairs is None:
            ids = self._query_ids()
            pairs = tuple(
                [self.generator.generate(int(i), self.dataset.difficulty(int(i)), v) for i in ids]
                for v in (self.light, self.heavy)
            )
            self._cached_pairs = pairs
        return pairs

    def single_model_point(self, which: str = "light") -> CascadePoint:
        """FID/latency of serving every query with one model (no cascade)."""
        light_images, heavy_images = self.generate_pairs()
        images = light_images if which == "light" else heavy_images
        variant = self.light if which == "light" else self.heavy
        feats = np.stack([img.features for img in images])
        return CascadePoint(
            threshold=0.0 if which == "light" else 1.0,
            deferral_fraction=0.0 if which == "light" else 1.0,
            fid=fid_score(feats, real_moments=self._real_moments()),
            mean_latency=variant.execution_latency(1),
            mean_quality=float(np.mean([img.quality for img in images])),
        )

    def sweep(
        self,
        discriminator: Discriminator,
        thresholds: Sequence[float],
        *,
        label: Optional[str] = None,
    ) -> CascadeCurve:
        """Threshold sweep of the cascade guided by ``discriminator``."""
        if not all(0.0 <= threshold <= 1.0 for threshold in thresholds):
            raise ValueError("thresholds must lie in [0, 1]")
        confidences = discriminator.confidence_batch(self.generate_pairs()[0])
        return self._curve(
            label or discriminator.name,
            ((threshold, confidences < threshold) for threshold in thresholds),
            self.light.execution_latency(1) + self.discriminator_latency,
        )

    def random_sweep(
        self, fractions: Sequence[float], *, seed: int = 0, label: str = "random"
    ) -> CascadeCurve:
        """Content-agnostic random deferral at the given fractions."""
        if not all(0.0 <= fraction <= 1.0 for fraction in fractions):
            raise ValueError("fractions must lie in [0, 1]")
        rng = np.random.default_rng(seed)
        n = len(self._query_ids())
        return self._curve(
            label,
            ((fraction, rng.random(n) < fraction) for fraction in fractions),
            self.light.execution_latency(1),
        )

    def _curve(
        self, label: str, steps: Iterable[Tuple[float, np.ndarray]], light_latency: float
    ) -> CascadeCurve:
        """One point per ``(threshold, deferred mask)`` of ``steps``.

        A query costs ``light_latency``, plus the heavy model's latency when
        its mask entry defers it.  Both arms are columnar, so each point is a
        vectorised row-select.
        """
        light_images, heavy_images = self.generate_pairs()
        heavy_latency = self.heavy.execution_latency(1)
        moments = self._real_moments()
        light_feats = np.stack([img.features for img in light_images])
        heavy_feats = np.stack([img.features for img in heavy_images])
        light_quality = np.array([img.quality for img in light_images])
        heavy_quality = np.array([img.quality for img in heavy_images])
        curve = CascadeCurve(label=label)
        for threshold, deferred in steps:
            fraction = float(np.mean(deferred))
            feats = np.where(deferred[:, None], heavy_feats, light_feats)
            curve.points.append(
                CascadePoint(
                    threshold=float(threshold),
                    deferral_fraction=fraction,
                    fid=fid_score(feats, real_moments=moments),
                    mean_latency=light_latency + fraction * heavy_latency,
                    mean_quality=float(np.mean(np.where(deferred, heavy_quality, light_quality))),
                )
            )
        return curve


def _trained_cascade(
    cascade_name: str, scale: ExperimentScale, **training
) -> Tuple[CascadeSpec, CascadeEvaluator, Discriminator]:
    """(cascade, evaluator, discriminator) over the whole COCO-like dataset.

    One ``ImageGenerator(seed=scale.seed)`` draws the evaluated and the
    training images; ``training`` holds further ``TrainingConfig`` fields.
    """
    cascade = get_cascade(cascade_name)
    dataset = cached_dataset("coco", scale.dataset_size, scale.seed)
    generator = ImageGenerator(seed=scale.seed)
    config = TrainingConfig(n_train=min(600, scale.dataset_size), seed=scale.seed, **training)
    discriminator = cached_training_result(
        dataset, cascade.light, cascade.heavy, config, generator=generator
    ).discriminator
    evaluator = CascadeEvaluator(dataset, cascade.light, cascade.heavy, generator=generator)
    return cascade, evaluator, discriminator


# ------------------------------------------------------------ figures 1a / 1b
#: Independent model variants plotted as single points in Figure 1a.
INDEPENDENT_VARIANTS = ("sd-turbo", "sdxs", "sdxl-turbo", "tiny-sd-dpms", "sd-v1.5-dpms", "sd-v1.5")


@dataclass
class Fig1aResult:
    """Curves and points for one cascade panel of Figure 1a."""

    cascade_name: str
    variant_points: Dict[str, CascadePoint] = field(default_factory=dict)
    curves: Dict[str, CascadeCurve] = field(default_factory=dict)


@dataclass
class Fig1bResult:
    """Quality-difference distributions for one cascade (Figure 1b)."""

    cascade_name: str
    pickscore_difference: np.ndarray
    confidence_difference: np.ndarray

    @property
    def easy_fraction_pickscore(self) -> float:
        """Fraction of prompts where the light model's PickScore >= heavy's."""
        return float(np.mean(self.pickscore_difference >= 0))

    @property
    def easy_fraction_confidence(self) -> float:
        """Fraction of prompts where the light model's confidence >= heavy's."""
        return float(np.mean(self.confidence_difference >= 0))

    def cdf(self, which: str = "confidence", n_points: int = 50) -> tuple:
        """(x, CDF) arrays for plotting."""
        data = (
            self.confidence_difference if which == "confidence" else self.pickscore_difference
        )
        xs = np.sort(data)
        ys = np.arange(1, len(xs) + 1) / len(xs)
        idx = np.linspace(0, len(xs) - 1, min(n_points, len(xs))).astype(int)
        return xs[idx], ys[idx]


def run_fig1a(
    cascade_name: str = "sdturbo",
    scale: ExperimentScale = BENCH_SCALE,
    *,
    n_thresholds: int = 11,
) -> Fig1aResult:
    """Reproduce one panel of Figure 1a.

    The cascade, its evaluator and the trained discriminator are the ones
    Figures 1b, 1c and 7 use (:func:`_trained_cascade`); the independent
    variants are rendered by the same generator.
    """
    cascade, evaluator, discriminator = _trained_cascade(cascade_name, scale)

    result = Fig1aResult(cascade_name=cascade_name)
    for name in INDEPENDENT_VARIANTS:
        variant = get_variant(name)
        if variant.resolution != cascade.light.resolution:
            continue
        solo = CascadeEvaluator(
            evaluator.dataset, variant, cascade.heavy, generator=evaluator.generator
        )
        result.variant_points[name] = solo.single_model_point("light")

    thresholds = np.linspace(0.0, 1.0, n_thresholds)
    routers = {
        "discriminator": discriminator,
        "pickscore": PickScoreDiscriminator(),
        "clipscore": ClipScoreDiscriminator(),
    }
    for label, router in routers.items():
        result.curves[label] = evaluator.sweep(router, thresholds, label=label)
    result.curves["random"] = evaluator.random_sweep(thresholds, seed=scale.seed)
    return result


def run_fig1b(cascade_name: str = "sdturbo", scale: ExperimentScale = BENCH_SCALE) -> Fig1bResult:
    """Reproduce one panel pair of Figure 1b."""
    _, evaluator, discriminator = _trained_cascade(cascade_name, scale)
    light, heavy = evaluator.generate_pairs()
    pick_diff = np.array([pick_score(lo) - pick_score(hv) for lo, hv in zip(light, heavy)])
    conf_diff = discriminator.confidence_batch(light) - discriminator.confidence_batch(heavy)
    return Fig1bResult(
        cascade_name=cascade_name,
        pickscore_difference=pick_diff,
        confidence_difference=conf_diff,
    )


# ------------------------------------------------------------------ figure 1c
@dataclass(frozen=True)
class Configuration:
    """One allocation configuration of the sweep."""

    threshold: float
    light_workers: int
    heavy_workers: int
    light_batch: int
    heavy_batch: int


@dataclass
class Fig1cResult:
    """All evaluated configurations and their Pareto frontier."""

    points: List[ParetoPoint] = field(default_factory=list)
    frontier: List[ParetoPoint] = field(default_factory=list)

    @property
    def num_configurations(self) -> int:
        """Number of feasible configurations evaluated."""
        return len(self.points)

    def frontier_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(throughput, FID) arrays of the frontier, sorted by throughput."""
        xs = np.array([p.x for p in self.frontier])
        ys = np.array([p.y for p in self.frontier])
        return xs, ys


def run_fig1c(
    cascade_name: str = "sdturbo",
    scale: ExperimentScale = BENCH_SCALE,
    *,
    num_workers: int = 10,
    n_thresholds: int = 12,
    batch_sizes: Sequence[int] = (1, 2, 4, 8, 16),
    slo: Optional[float] = None,
) -> Fig1cResult:
    """Enumerate the configuration space and compute its Pareto frontier."""
    cascade, evaluator, discriminator = _trained_cascade(cascade_name, scale)
    slo = slo if slo is not None else cascade.slo
    # A threshold fixes the deferral fraction and the FID, whatever the placement.
    curve = evaluator.sweep(discriminator, np.linspace(0.0, 1.0, n_thresholds))

    result = Fig1cResult()
    for point in curve.points:
        fraction = point.deferral_fraction
        for b1 in batch_sizes:
            e1 = cascade.light.execution_latency(b1) + discriminator.latency_s * b1
            for b2 in batch_sizes:
                e2 = cascade.heavy.execution_latency(b2)
                if e1 + e2 > slo:
                    continue
                for x1 in range(1, num_workers):
                    x2 = num_workers - x1
                    light_capacity = x1 * cascade.light.throughput(b1)
                    heavy_capacity = (
                        x2 * cascade.heavy.throughput(b2) / fraction if fraction > 0 else np.inf
                    )
                    throughput = min(light_capacity, heavy_capacity)
                    config = Configuration(
                        threshold=point.threshold,
                        light_workers=x1,
                        heavy_workers=x2,
                        light_batch=b1,
                        heavy_batch=b2,
                    )
                    result.points.append(ParetoPoint(x=throughput, y=point.fid, payload=config))

    result.frontier = pareto_frontier(result.points, minimize_x=False, minimize_y=True)
    return result


# ------------------------------------------------------------------- figure 7
#: (label, architecture, real_source) triples of Figure 7.
DISCRIMINATOR_VARIANTS: Tuple[Tuple[str, str, str], ...] = (
    ("resnet-gt", "resnet-34", "ground-truth"),
    ("vit-gt", "vit-b-16", "ground-truth"),
    ("efficientnet-fake", "efficientnet-v2", "heavy-model"),
    ("efficientnet-gt", "efficientnet-v2", "ground-truth"),
)


@dataclass
class Fig7Result:
    """Per-cascade, per-variant threshold-sweep curves."""

    curves: Dict[str, Dict[str, CascadeCurve]] = field(default_factory=dict)

    def best_fid(self, cascade: str, variant: str) -> float:
        """Lowest FID achieved by one discriminator variant."""
        return self.curves[cascade][variant].best_fid()

    def winner(self, cascade: str) -> str:
        """Variant with the lowest best-FID on a cascade."""
        return min(self.curves[cascade], key=lambda v: self.best_fid(cascade, v))


def run_fig7(
    cascades: Sequence[str] = ("sdturbo", "sdxs"),
    scale: ExperimentScale = BENCH_SCALE,
    *,
    n_thresholds: int = 11,
) -> Fig7Result:
    """Train each discriminator variant and sweep its cascade."""
    result = Fig7Result()
    thresholds = np.linspace(0.0, 1.0, n_thresholds)
    for cascade_name in cascades:
        result.curves[cascade_name] = {}
        for label, architecture, real_source in DISCRIMINATOR_VARIANTS:
            _, evaluator, discriminator = _trained_cascade(
                cascade_name, scale, architecture=architecture, real_source=real_source
            )
            result.curves[cascade_name][label] = evaluator.sweep(
                discriminator, thresholds, label=label
            )
    return result


# ---------------------------------------------------------------- reuse study
#: Quality penalty applied when the heavy model reuses the light model's
#: latent, per cascade.  SD-Turbo is distilled directly from SDv1.5 so its
#: latents are compatible; SDXS uses a different student architecture.
REUSE_PENALTY: Dict[str, float] = {"sdturbo": 0.0, "sdxs": 0.06, "sdxlltn": 0.02}


@dataclass
class ReuseResult:
    """FID with and without reuse, per cascade."""

    fid_without_reuse: Dict[str, float] = field(default_factory=dict)
    fid_with_reuse: Dict[str, float] = field(default_factory=dict)

    def fid_change(self, cascade: str) -> float:
        """FID increase caused by reuse (positive = reuse hurts)."""
        return self.fid_with_reuse[cascade] - self.fid_without_reuse[cascade]


def run_reuse_study(
    cascades: Tuple[str, ...] = ("sdturbo", "sdxs"),
    scale: ExperimentScale = BENCH_SCALE,
) -> ReuseResult:
    """Measure the FID impact of reusing light-model outputs in the heavy model."""
    result = ReuseResult()
    for cascade_name in cascades:
        cascade = get_cascade(cascade_name)
        dataset = cached_dataset(cascade.dataset, scale.dataset_size, scale.seed)
        evaluator = CascadeEvaluator(
            dataset, cascade.light, cascade.heavy, generator=ImageGenerator(seed=scale.seed)
        )
        penalty = REUSE_PENALTY.get(cascade_name, 0.05)
        reused = [
            evaluator.generator.generate(
                query_id,
                dataset.difficulty(query_id),
                cascade.heavy,
                reuse_from=light,
                reuse_penalty=penalty,
            )
            for query_id, light in enumerate(evaluator.generate_pairs()[0])
        ]
        result.fid_without_reuse[cascade_name] = evaluator.single_model_point("heavy").fid
        result.fid_with_reuse[cascade_name] = fid_score(
            np.stack([img.features for img in reused]), real_moments=dataset.real_moments
        )
    return result


# ----------------------------------------------------------------- renderers
def _render_fig1(scale: ExperimentScale) -> str:
    lines: List[str] = []
    for cascade_name in ("sdturbo", "sdxs"):
        fig1a = run_fig1a(cascade_name, scale)
        rows = [
            [label, curve.best_fid(), float(curve.latencies.max())]
            for label, curve in fig1a.curves.items()
        ]
        fig1b = run_fig1b(cascade_name, scale)
        lines += [
            f"Figure 1a — cascade {cascade_name}",
            format_table(["routing", "best FID", "max latency (s)"], rows),
            f"Figure 1b — cascade {cascade_name}: easy fraction "
            f"(confidence) = {fig1b.easy_fraction_confidence:.2f}, "
            f"(PickScore) = {fig1b.easy_fraction_pickscore:.2f}",
            "",
        ]
    return "\n".join(lines)


def _render_fig1c(scale: ExperimentScale) -> str:
    result = run_fig1c(scale=scale)
    lines = [
        f"Figure 1c — {result.num_configurations} configurations evaluated",
        "Pareto frontier (throughput QPS -> FID):",
    ]
    lines += [f"  {x:8.2f} QPS  ->  FID {y:6.2f}" for x, y in zip(*result.frontier_arrays())]
    return "\n".join(lines)


def _render_fig7(scale: ExperimentScale) -> str:
    result = run_fig7(scale=scale)
    lines: List[str] = []
    for cascade_name, curves in result.curves.items():
        lines += [
            f"Figure 7 — cascade {cascade_name}",
            format_table(
                ["discriminator", "best FID"],
                [[label, curve.best_fid()] for label, curve in curves.items()],
            ),
            f"winner: {result.winner(cascade_name)}",
            "",
        ]
    return "\n".join(lines)


def _render_reuse(scale: ExperimentScale) -> str:
    result = run_reuse_study(scale=scale)
    rows = [
        [name, result.fid_without_reuse[name], result.fid_with_reuse[name], result.fid_change(name)]
        for name in result.fid_without_reuse
    ]
    return "\n".join(
        [
            "Reuse study (Section 5)",
            format_table(["cascade", "FID fresh", "FID reused", "change"], rows),
        ]
    )


#: CLI name -> (description, renderer of the experiment's text at a scale).
OFFLINE = {
    "fig1": ("Figure 1a/1b motivation study", _render_fig1),
    "fig1c": ("Figure 1c FID/throughput Pareto frontier", _render_fig1c),
    "fig7": ("Figure 7 discriminator ablation", _render_fig7),
    "reuse": ("Section 5 reuse study", _render_reuse),
}


def main(name: str, scale: ExperimentScale = BENCH_SCALE) -> str:
    """Render offline experiment ``name``, print it and return it."""
    output = OFFLINE[name][1](scale)
    print(output)
    return output
