"""Bulk seeding of the per-query random streams.

Each arrival chunk draws, in one vectorised pass, the images of every pool
an arrival can enter first and, when that stage is scored, the
discriminator's observations of them, which travel with the images.  The
gates here: seeding never changes a result (the oracle is the same cell
with seeding switched off), no first-stage draw of a plain cell falls back
to a generator of its own (not with tiny chunks, and not under random-split
routing), held outcomes are not seeded, a memoized observation is the
scalar draw bit for bit, the table holds one chunk plus its survivors, and
it never crosses a pickle.
"""

import pickle

import numpy as np
import pytest

from repro.core.load_balancer import LoadBalancer
from repro.core.system import DEFAULT_ARRIVAL_CHUNK
from repro.discriminators.architectures import TrainedDiscriminator
from repro.experiments import harness
from repro.experiments.harness import ExperimentScale
from repro.models.generation import ImageGenerator
from repro.runner.executor import canonical_summaries_json, resolve_trace, run_cell_results
from repro.runner.spec import ExperimentSpec, TraceSpec
from repro.simulator.rng import SeedTable

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

FIVE = ("clipper-light", "clipper-heavy", "proteus", "diffserve-static", "diffserve")
SMALL = ExperimentScale(dataset_size=60, trace_duration=30.0, num_workers=4, seed=0)


def _spec(systems=FIVE, **dims) -> ExperimentSpec:
    return ExperimentSpec(
        cascade="sdturbo", scale=SMALL, systems=tuple(systems), trace=TraceSpec(), **dims
    )


def _summaries_json(spec) -> str:
    _, results = run_cell_results(spec)
    return canonical_summaries_json({name: r.summary() for name, r in results.items()})


@pytest.fixture
def seeded_generators(monkeypatch):
    """Every generator that seeds a chunk during the test."""
    seen = {}
    original = ImageGenerator.seed_streams

    def recording(self, *args, **kwargs):
        seen[id(self)] = self
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ImageGenerator, "seed_streams", recording)
    return seen


@pytest.fixture
def observation_draws(monkeypatch):
    """``(query, variant)`` of every observation drawn from a generator of its own."""
    drawn = []
    original = TrainedDiscriminator._draw_observation

    def recording(self, image, noise_std):
        drawn.append((image.query_id, image.variant_name))
        return original(self, image, noise_std)

    monkeypatch.setattr(TrainedDiscriminator, "_draw_observation", recording)
    return drawn


@pytest.fixture
def stage_draws(monkeypatch):
    """Per variant name, ``[seeded, fallback]`` image draws made through ``generate_batch``."""
    stages = {}
    original = ImageGenerator.generate_batch

    def recording(self, query_ids, difficulties, variant):
        before = (self.seeded_draws, self.fallback_draws)
        images = original(self, query_ids, difficulties, variant)
        counts = stages.setdefault(variant.name, [0, 0])
        counts[0] += self.seeded_draws - before[0]
        counts[1] += self.fallback_draws - before[1]
        return images

    monkeypatch.setattr(ImageGenerator, "generate_batch", recording)
    return stages


def _build(systems):
    curve, _ = resolve_trace(_spec())
    _, dataset, discriminator = harness.shared_components("sdturbo", SMALL)
    return harness.build_comparison_systems(
        "sdturbo",
        SMALL,
        anticipated_peak_qps=0.8 * curve.peak,
        dataset=dataset,
        discriminator=discriminator,
        systems=systems,
    )


GEO = ExperimentSpec(
    cascade="sdturbo",
    scale=ExperimentScale(dataset_size=60, trace_duration=10.0, num_workers=2, seed=0),
    systems=("proteus", "diffserve"),
    trace=TraceSpec(kind="static", qps=40.0),
    geo="global-8",
)


@pytest.mark.parametrize(
    "spec",
    [_spec(), _spec(systems=("diffserve",), faults="storm"), GEO],
    ids=["five-systems", "storm", "geo-inject-batch"],
)
def test_seeding_never_changes_a_result(spec, seeded_generators, monkeypatch):
    seeded = _summaries_json(spec)
    generators = list(seeded_generators.values())
    assert generators and sum(g.seeded_draws for g in generators) > 0
    monkeypatch.setattr(LoadBalancer, "seed_streams", lambda self, ids, difficulties: None)
    assert _summaries_json(spec) == seeded


def test_small_chunks_change_nothing():
    """Many chunks: each fill drops the previous chunk's leftovers, which draw afresh."""
    _, trace = resolve_trace(_spec())
    results = {}
    for chunk in (DEFAULT_ARRIVAL_CHUNK, 7):
        system = _build(("diffserve",))["diffserve"]
        system.arrival_chunk = chunk
        results[chunk] = system.run(trace).summary()
    assert canonical_summaries_json(results[7]) == canonical_summaries_json(
        results[DEFAULT_ARRIVAL_CHUNK]
    )


def test_plain_cell_falls_back_only_for_heavy_draws(stage_draws, observation_draws):
    """Every light draw of a plain cell comes from the table and carries its observation."""
    _, trace = resolve_trace(_spec())
    assert len(trace.arrival_times) < DEFAULT_ARRIVAL_CHUNK  # one chunk, no leftovers
    system = _build(("diffserve-static",))["diffserve-static"]
    cascade = system.config.cascade
    built_observations = len(observation_draws)
    system.run(trace)
    light, heavy = stage_draws[cascade.light.name], stage_draws[cascade.heavy.name]
    assert light[0] > 0 and light[1] == 0
    assert heavy == [0, heavy[1]] and heavy[1] > 0
    assert (system.generator.seeded_draws, system.generator.fallback_draws) == (light[0], heavy[1])
    # Profiling the deferral curve at build time drew nothing on its own either.
    assert built_observations == 0 and observation_draws == []
    # end_turn cleared the table.
    assert len(system.generator.seed_table) == 0


def test_chunk_7_diffserve_cell_has_no_first_stage_fallbacks(stage_draws, observation_draws):
    """Tiny chunks: a query still queued when the next chunk fills keeps its row."""
    _, trace = resolve_trace(_spec())
    system = _build(("diffserve",))["diffserve"]
    system.arrival_chunk = 7
    system.run(trace)
    light = stage_draws[system.config.cascade.light.name]
    assert light[0] > 0 and light[1] == 0
    assert observation_draws == []
    assert system.generator.seed_table.passes > len(trace.arrival_times) // 7


def test_proteus_cell_has_no_fallbacks_in_either_pool(stage_draws):
    """Random-split routing draws its split at submit, so a chunk seeds both pools."""
    _, trace = resolve_trace(_spec())
    system = _build(("proteus",))["proteus"]
    system.run(trace)
    assert len(stage_draws) == 2  # the light pool and Proteus's own heavy variant
    assert all(seeded > 0 and fallback == 0 for seeded, fallback in stage_draws.values())


def test_the_table_holds_one_chunk_plus_its_survivors(monkeypatch):
    """At every fill of a chunk-7 cell: at most two chunks' rows, and survivors of one."""
    _, trace = resolve_trace(_spec())
    system = _build(("diffserve",))["diffserve"]
    system.arrival_chunk = 7
    sizes = []
    original = SeedTable.fill

    def recording(self, chunk):
        untaken = len(self) - self.survivors  # the last chunk's rows nobody took
        original(self, chunk)
        sizes.append((len(self), self.survivors, untaken))

    monkeypatch.setattr(SeedTable, "fill", recording)
    system.run(trace)
    assert len(sizes) > len(trace.arrival_times) // 7
    assert all(held <= 14 and survivors == untaken for held, survivors, untaken in sizes)
    assert any(survivors > 0 for _, survivors, _ in sizes)


def test_held_outcomes_are_not_seeded(trained_discriminator, cascade1):
    light = cascade1.light
    generator = ImageGenerator(seed=3)
    generator.share(readers=2)
    generator.take_turn()
    held = [generator.generate(qid, 0.4, light) for qid in (0, 1, 2)]
    memoized = trained_discriminator.observe(held[0])  # scoring it draws nothing
    generator.seed_streams([0, 1, 2, 3, 4], [0.4] * 5, [(light, trained_discriminator)])
    table = generator.seed_table
    assert len(table) == 2  # images of queries 3 and 4 only
    # One pass: images 3 and 4, observations of 3, 4 and of held 1 and 2.
    assert (table.passes, table.vector_lanes + table.scalar_lanes) == (1, 6)
    key = trained_discriminator.memo_key
    assert held[0].observations[key] is memoized
    assert all(key in image.observations for image in held)
    generator.end_turn()
    assert len(table) == 0


def test_seeded_draws_equal_fresh_draws(trained_discriminator, cascade1):
    light = cascade1.light
    fresh, seeded = ImageGenerator(seed=5), ImageGenerator(seed=5)
    seeded.seed_streams(range(20), [0.3] * 20, [(light, trained_discriminator)])
    for qid in range(20):
        a, b = fresh.generate(qid, 0.3, light), seeded.generate(qid, 0.3, light)
        assert a.quality == b.quality and (a.features == b.features).all()
        assert (trained_discriminator.observe(b) == trained_discriminator.observe(a)).all()
    assert (seeded.seeded_draws, fresh.fallback_draws) == (20, 20)


def test_memoized_observation_is_the_scalar_draw_bit_for_bit(trained_discriminator, cascade1):
    """Chunk-drawn observations of fresh and held images equal ``_draw_observation``."""
    light, heavy = cascade1.light, cascade1.heavy
    ids = list(range(2000))  # enough lanes that some leave the ziggurat's fast path
    difficulties = [(q % 97) / 96 for q in ids]
    generator = ImageGenerator(seed=11)
    generator.share(readers=2)
    generator.take_turn()
    held = [generator.generate(q, d, light) for q, d in zip(ids[:500], difficulties)]
    generator.seed_streams(ids, difficulties, [(light, trained_discriminator), (heavy, None)])
    assert generator.seed_table.scalar_lanes > 0
    images = held + [generator.generate(q, d, light) for q, d in zip(ids[500:], difficulties[500:])]
    assert generator.fallback_draws == 500  # the held ones, drawn before the pass
    key = trained_discriminator.memo_key
    noise = trained_discriminator.architecture.observation_noise
    for image in images:
        memoized = image.observations[key]
        assert not memoized.flags.writeable
        assert memoized.tobytes() == trained_discriminator._draw_observation(image, noise).tobytes()


def test_another_discriminator_scoring_a_seeded_image_draws_afresh(
    trained_discriminator, cascade1, observation_draws
):
    light = cascade1.light
    generator = ImageGenerator(seed=2)
    generator.seed_streams(range(8), [0.5] * 8, [(light, trained_discriminator)])
    image = generator.generate(3, 0.5, light)
    trained_discriminator.observe(image)
    assert observation_draws == []  # its own observation came with the image
    other = TrainedDiscriminator(
        trained_discriminator.architecture,
        trained_discriminator.classifier,
        seed=trained_discriminator.seed + 1,
    )
    observed = other.observe(image)
    assert observation_draws == [(3, light.name)]
    noise = other.architecture.observation_noise
    assert observed.tobytes() == other._draw_observation(image, noise).tobytes()
    assert set(image.observations) == {trained_discriminator.memo_key, other.memo_key}
    assert not np.array_equal(observed, image.observations[trained_discriminator.memo_key])


def test_tables_and_counters_never_cross_a_pickle(trained_discriminator, cascade1):
    generator = ImageGenerator(seed=1)
    generator.seed_streams(range(10), [0.5] * 10, [(cascade1.light, trained_discriminator)])
    generator.generate(0, 0.5, cascade1.light)
    assert len(generator.seed_table) > 0 and generator.seed_table.passes == 1
    clone = pickle.loads(pickle.dumps(generator))
    assert len(clone.seed_table) == 0 and clone.seed_table.passes == 0
    assert (clone.seeded_draws, clone.fallback_draws) == (0, 0)
    # The discriminator holds no seeding state: its pickle is its trained state.
    assert set(vars(trained_discriminator)) == {
        "architecture",
        "classifier",
        "training_data",
        "seed",
        "latency_s",
        "name",
        "_calibration",
    }
    clone = pickle.loads(pickle.dumps(trained_discriminator))
    assert set(vars(clone)) == set(vars(trained_discriminator))
