"""Per-query draw work of the ``steady-stream`` benchmark cell, pinned.

On ``steady-stream`` the light model and the discriminator run on every
query, so its data plane is two per-query draws: an image and an
observation.  Each arrival chunk draws both for the first stage in one
vectorised pass; a draw the pass did not prepare (the heavy stage, or a
light query still queued when the next chunk replaced the table) builds its
own generator.  This test counts that work, which does not depend on the
host:

* per stage, the draws read from the seed table and the draws that fell
  back to a generator of their own;
* per table, the lanes the vectorised normal pass finished and the lanes
  its scalar path redrew (a lane with any ziggurat slow-path draw).

The cell runs inline, as ``benchmarks/e2e/suite.py`` runs it.  A change that
raises a count edits its pin here and says why; a change that lowers one can
claim the saving without wall-clock noise.
"""

import os
import sys

from repro.experiments import harness
from repro.models.generation import ImageGenerator
from repro.runner import executor
from repro.runner.cache import ArtifactCache

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from benchmarks.e2e.suite import WORKLOADS  # noqa: E402

#: stage -> (seeded draws, fallback draws) over the run.
STEADY_STREAM_DRAWS = {
    "light": (13546, 273),
    "heavy": (0, 1018),
    "observation": (13546, 273),
}
#: table -> (vector lanes, scalar lanes) over the run.
STEADY_STREAM_LANES = {
    "image": (11062, 3238),
    "observation": (11219, 3081),
}


def test_steady_stream_draw_work_is_pinned(monkeypatch, tmp_path):
    systems, stages, observed_before = {}, {}, []
    build, generate_batch = harness.build_comparison_systems, ImageGenerator.generate_batch

    def recording_build(*args, **kwargs):
        systems.update(build(*args, **kwargs))
        # Building profiles the deferral curve, which scores images too.
        discriminator = kwargs["discriminator"]
        observed_before[:] = [discriminator.seeded_draws, discriminator.fallback_draws]
        return systems

    def counting_generate_batch(self, query_ids, difficulties, variant):
        before = (self.seeded_draws, self.fallback_draws)
        images = generate_batch(self, query_ids, difficulties, variant)
        seeded, fallback = stages.get(variant.name, (0, 0))
        stages[variant.name] = (
            seeded + self.seeded_draws - before[0],
            fallback + self.fallback_draws - before[1],
        )
        return images

    monkeypatch.setattr(harness, "build_comparison_systems", recording_build)
    monkeypatch.setattr(ImageGenerator, "generate_batch", counting_generate_batch)
    (spec,) = WORKLOADS["steady-stream"](0).specs
    executor.run_cell_results(spec, cache=ArtifactCache(root=tmp_path))

    (system,) = systems.values()
    cascade = system.config.cascade
    generator, discriminator = system.generator, system.discriminator
    draws = {
        "light": stages[cascade.light.name],
        "heavy": stages[cascade.heavy.name],
        "observation": (
            discriminator.seeded_draws - observed_before[0],
            discriminator.fallback_draws - observed_before[1],
        ),
    }
    lanes = {
        "image": (generator.seed_table.vector_lanes, generator.seed_table.scalar_lanes),
        "observation": (
            discriminator.seed_table.vector_lanes,
            discriminator.seed_table.scalar_lanes,
        ),
    }
    assert (draws, lanes) == (STEADY_STREAM_DRAWS, STEADY_STREAM_LANES)
    assert sum(draws["light"]) + sum(draws["heavy"]) == generator.draws
