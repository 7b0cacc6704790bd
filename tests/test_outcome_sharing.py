"""One image generator per comparison cell: each query outcome is drawn once.

The systems :func:`~repro.experiments.harness.build_comparison_systems`
builds share an :class:`~repro.models.generation.ImageGenerator` whose
outcome table keeps a drawn image only while a later system of the cell can
still read it.  The gates here: every system's summary is byte-identical to
running that system alone, the table draws each distinct outcome once, it is
cell-scoped (nothing carries over to the next cell), the last reader retains
nothing, and a pickled generator crosses a process boundary empty.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.experiments import harness
from repro.experiments.harness import ExperimentScale
from repro.models.generation import GeneratedImage, ImageGenerator
from repro.models.zoo import get_variant
from repro.runner.executor import canonical_summaries_json, resolve_trace, run_cell_results
from repro.runner.spec import ExperimentSpec, TraceSpec

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

FIVE = ("clipper-light", "clipper-heavy", "proteus", "diffserve-static", "diffserve")
SMALL = ExperimentScale(dataset_size=60, trace_duration=30.0, num_workers=4, seed=0)


def _spec(systems=FIVE, **dims) -> ExperimentSpec:
    return ExperimentSpec(
        cascade="sdturbo", scale=SMALL, systems=tuple(systems), trace=TraceSpec(), **dims
    )


def _summaries(results):
    return {name: result.summary() for name, result in results.items()}


@pytest.fixture
def built(monkeypatch):
    """Every system dict ``build_comparison_systems`` returns, in build order."""
    cells = []
    original = harness.build_comparison_systems

    def recording(*args, **kwargs):
        systems = original(*args, **kwargs)
        cells.append(systems)
        return systems

    monkeypatch.setattr(harness, "build_comparison_systems", recording)
    return cells


def _generator(systems) -> ImageGenerator:
    (generator,) = {id(s.generator): s.generator for s in systems.values()}.values()
    return generator


# ----------------------------------------------------------------- the oracle
@pytest.mark.parametrize("faults", [None, "storm"])
def test_shared_cell_equals_each_system_alone(built, faults):
    """Byte-identical summaries: a shared outcome is a fresh draw's replay."""
    _, shared = run_cell_results(_spec(faults=faults))
    generator = _generator(built[0])
    assert generator.hits > 0  # the cell really shared outcomes
    for name in FIVE:
        _, alone = run_cell_results(_spec(systems=(name,), faults=faults))
        assert canonical_summaries_json({name: alone[name].summary()}) == (
            canonical_summaries_json({name: shared[name].summary()})
        ), name


def test_storm_requeues_regenerate_queries():
    """The storm cell does regenerate queries: the oracle above covers requeues."""
    _, results = run_cell_results(_spec(systems=("diffserve",), faults="storm"))
    assert results["diffserve"].cols.retries.sum() > 0


# ------------------------------------------------------------------ counters
def test_draws_equal_distinct_outcomes_requested(built, monkeypatch):
    requested = []
    original = ImageGenerator.generate_batch

    def recording(self, query_ids, difficulties, variant):
        requested.extend(
            (int(q), variant.name, float(d)) for q, d in zip(query_ids, difficulties)
        )
        return original(self, query_ids, difficulties, variant)

    monkeypatch.setattr(ImageGenerator, "generate_batch", recording)
    run_cell_results(_spec())
    generator = _generator(built[0])
    assert generator.draws == len(set(requested))
    assert generator.draws + generator.hits == len(requested)
    assert generator.hits > 0


def test_no_carry_over_between_cells(built):
    """The table is cell-scoped: a repeat cell draws exactly as much again."""
    first, second = (_summaries(run_cell_results(_spec())[1]) for _ in range(2))
    assert canonical_summaries_json(first) == canonical_summaries_json(second)
    one, two = (_generator(systems) for systems in built)
    assert one is not two
    assert (two.draws, two.hits) == (one.draws, one.hits)


# ------------------------------------------------------------------ retention
def test_entries_live_only_while_a_later_system_can_read_them():
    _, trace = _trace()
    systems = _build(FIVE)
    generator = _generator(systems)
    names = list(systems)
    systems[names[0]].run(trace)
    assert generator.entries > 0  # kept for the four systems after it
    for name in names[1:]:
        systems[name].run(trace)
    assert generator.entries == 0  # the last reader retains nothing


def test_one_system_cell_retains_nothing():
    _, trace = _trace()
    systems = _build(("diffserve",))
    generator = _generator(systems)
    systems["diffserve"].run(trace)
    assert generator.entries == 0
    assert generator.hits == 0 and generator.draws > 0


def test_pickled_system_carries_no_entries_and_takes_no_turns():
    _, trace = _trace()
    systems = _build(FIVE)
    first = next(iter(systems.values()))
    first.run(trace)
    assert first.generator.entries > 0
    clone = pickle.loads(pickle.dumps(first))
    assert clone.generator.entries == 0
    assert (clone.generator.draws, clone.generator.hits) == (0, 0)
    clone.generator.take_turn()
    clone.generator.generate(0, 0.5, get_variant("sd-turbo"))
    assert clone.generator.entries == 0  # no turns left to keep anything for


@pytest.mark.xdist_group("sharding-determinism")
def test_serial_equals_sharded_for_a_two_system_geo_cell():
    spec = ExperimentSpec(
        cascade="sdturbo",
        scale=ExperimentScale(dataset_size=60, trace_duration=10.0, num_workers=2, seed=0),
        systems=("proteus", "diffserve"),
        trace=TraceSpec(kind="static", qps=40.0),
        geo="global-8",
    )
    _, serial = run_cell_results(spec)
    _, sharded = run_cell_results(dataclasses.replace(spec, shards=2))
    assert canonical_summaries_json(_summaries(serial)) == canonical_summaries_json(
        _summaries(sharded)
    )


def _trace():
    return resolve_trace(_spec())


def _build(systems):
    curve, _ = _trace()
    _, dataset, discriminator = harness.shared_components("sdturbo", SMALL)
    return harness.build_comparison_systems(
        "sdturbo",
        SMALL,
        anticipated_peak_qps=0.8 * curve.peak,
        dataset=dataset,
        discriminator=discriminator,
        systems=systems,
    )


# ----------------------------------------------------------- the unit rules
def test_hit_is_the_stored_image_and_equals_a_fresh_draw():
    light = get_variant("sd-turbo")
    shared = ImageGenerator(seed=4)
    shared.share(2)
    shared.take_turn()
    first = shared.generate(7, 0.3, light)
    shared.take_turn()
    assert shared.generate(7, 0.3, light) is first
    assert (shared.draws, shared.hits) == (1, 1)
    fresh = ImageGenerator(seed=4).generate(7, 0.3, light)
    assert fresh.quality == first.quality
    assert fresh.features.tobytes() == first.features.tobytes()
    shared.end_turn()
    assert shared.entries == 0


def test_a_different_variant_object_with_the_same_name_is_not_a_hit():
    light = get_variant("sd-turbo")
    twin = dataclasses.replace(light)
    generator = ImageGenerator(seed=0)
    generator.share(3)
    generator.take_turn()
    generator.generate(1, 0.5, light)
    generator.generate(1, 0.5, twin)
    assert (generator.draws, generator.hits) == (2, 0)


def test_reuse_draws_are_never_stored():
    light, heavy = get_variant("sd-turbo"), get_variant("sd-v1.5")
    generator = ImageGenerator(seed=0)
    generator.share(2)
    generator.take_turn()
    base = generator.generate(3, 0.5, light)
    reused = generator.generate(3, 0.5, heavy, reuse_from=base, reuse_penalty=0.2)
    assert generator.generate(3, 0.5, heavy).quality != reused.quality
    assert generator.entries == 2


def test_generated_features_are_read_only():
    image = ImageGenerator(seed=0).generate(0, 0.5, get_variant("sd-turbo"))
    with pytest.raises(ValueError):
        image.features[0] = 1.0
    with pytest.raises(ValueError):
        image.features += 1.0
    mine = np.zeros(4)
    GeneratedImage(query_id=0, variant_name="x", quality=0.5, features=mine)
    with pytest.raises(ValueError):
        mine[0] = 1.0


def test_memoized_observations_replay_fresh_ones(trained_discriminator, cascade1):
    shared = ImageGenerator(seed=0)
    shared.share(2)
    shared.take_turn()
    images = [shared.generate(q, 0.5, cascade1.light) for q in range(8)]
    fresh = [ImageGenerator(seed=0).generate(q, 0.5, cascade1.light) for q in range(8)]
    first = trained_discriminator.observe_batch(images)
    again = trained_discriminator.observe_batch(images)
    plain = trained_discriminator.observe_batch(fresh)
    assert first.tobytes() == again.tobytes() == plain.tobytes()
    assert all(len(image.observations) == 1 for image in images)
    assert all(image.observations is None for image in fresh)
    row = trained_discriminator.observe(images[0])
    with pytest.raises(ValueError):
        row[0] = 0.0


def test_observe_batch_rows_are_batch_invariant(trained_discriminator, cascade1, image_generator):
    """Observations may be memoized because each row ignores its batch."""
    images = [image_generator.generate(q, (q % 10) / 10, cascade1.light) for q in range(40)]
    whole = trained_discriminator.observe_batch(images)
    for size in range(2, 33):
        for start in range(0, len(images) - size + 1, 7):
            part = trained_discriminator.observe_batch(images[start : start + size])
            assert part.tobytes() == whole[start : start + size].tobytes(), (start, size)
