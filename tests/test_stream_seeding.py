"""Bulk seeding of the per-query random streams.

Each arrival chunk seeds, in one vectorised call, the image streams of the
variant the load balancer routes to first and, when that stage is scored,
the discriminator's observation streams.  The gates here: seeding never
changes a result (the oracle is the same cell with seeding switched off),
every first-stage draw of a plain cell comes from the seed table, held
outcomes are not seeded, and the tables never cross a pickle.
"""

import pickle

import pytest

from repro.core.load_balancer import LoadBalancer
from repro.core.system import DEFAULT_ARRIVAL_CHUNK
from repro.experiments import harness
from repro.experiments.harness import ExperimentScale
from repro.models.generation import ImageGenerator
from repro.runner.executor import canonical_summaries_json, resolve_trace, run_cell_results
from repro.runner.spec import ExperimentSpec, TraceSpec

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


def test_plain_cell_falls_back_only_for_heavy_draws(monkeypatch):
    """Every light draw and every observation of a plain cell comes from the table."""
    _, trace = resolve_trace(_spec())
    assert len(trace.arrival_times) < DEFAULT_ARRIVAL_CHUNK  # one chunk, no leftovers
    system = _build(("diffserve-static",))["diffserve-static"]
    heavy_name = system.config.cascade.heavy.name
    stages = {"light": 0, "heavy": 0}
    original = ImageGenerator.generate_batch

    def recording(self, query_ids, difficulties, variant):
        stages["heavy" if variant.name == heavy_name else "light"] += len(query_ids)
        return original(self, query_ids, difficulties, variant)

    monkeypatch.setattr(ImageGenerator, "generate_batch", recording)
    discriminator = system.discriminator
    disc_before = (discriminator.seeded_draws, discriminator.fallback_draws)
    system.run(trace)
    generator = system.generator
    assert stages["heavy"] > 0 and stages["light"] > 0
    assert generator.fallback_draws == stages["heavy"]
    assert generator.seeded_draws == stages["light"]
    assert discriminator.fallback_draws == disc_before[1]
    assert discriminator.seeded_draws - disc_before[0] == stages["light"]
    # end_turn cleared both tables.
    assert len(generator.seed_table) == 0 and len(discriminator.seed_table) == 0


def test_held_outcomes_are_not_seeded(trained_discriminator, cascade1):
    light = cascade1.light
    generator = ImageGenerator(seed=3)
    generator.share(readers=2)
    generator.take_turn()
    held = [generator.generate(qid, 0.4, light) for qid in (0, 1, 2)]
    trained_discriminator.observe(held[0])  # memoized: scoring it draws nothing
    generator.seed_streams([0, 1, 2, 3, 4], [0.4] * 5, light, trained_discriminator)
    assert len(generator.seed_table) == 2  # queries 3 and 4 only
    assert len(trained_discriminator.seed_table) == 4  # 3, 4 and held 1, 2
    generator.end_turn()
    trained_discriminator.end_turn()
    assert len(generator.seed_table) == 0 and len(trained_discriminator.seed_table) == 0


def test_seeded_draws_equal_fresh_draws(trained_discriminator, cascade1):
    light = cascade1.light
    fresh, seeded = ImageGenerator(seed=5), ImageGenerator(seed=5)
    seeded.seed_streams(range(20), [0.3] * 20, light, trained_discriminator)
    for qid in range(20):
        a, b = fresh.generate(qid, 0.3, light), seeded.generate(qid, 0.3, light)
        assert a.quality == b.quality and (a.features == b.features).all()
        assert (trained_discriminator.observe(b) == trained_discriminator.observe(a)).all()
    assert (seeded.seeded_draws, fresh.fallback_draws) == (20, 20)


def test_tables_and_counters_never_cross_a_pickle(trained_discriminator, cascade1):
    generator = ImageGenerator(seed=1)
    generator.seed_streams(range(10), [0.5] * 10, cascade1.light, trained_discriminator)
    generator.generate(0, 0.5, cascade1.light)
    for original in (generator, trained_discriminator):
        assert len(original.seed_table) > 0
        clone = pickle.loads(pickle.dumps(original))
        assert len(clone.seed_table) == 0
        assert (clone.seeded_draws, clone.fallback_draws) == (0, 0)
    # A discriminator pickled before it had a seed table unpickles with one.
    state = dict(trained_discriminator.__getstate__())
    legacy = object.__new__(type(trained_discriminator))
    legacy.__setstate__(state)
    assert len(legacy.seed_table) == 0

