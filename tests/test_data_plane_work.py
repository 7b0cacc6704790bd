"""Per-query draw work of three benchmark cells, pinned.

The light model and the discriminator run on every query DiffServe serves,
and Proteus sends each query to one of two models at random, so the data
plane is per-query draws: an image and, when the stage is scored, an
observation of it.  Each arrival chunk draws every first-stage image and
observation in one vectorised pass, and a row a queued query has not taken
yet survives into the next chunk.  A draw the pass did not prepare builds
a generator of its own (a *fallback*).  These tests count that work, which
does not depend on the host:

* per phase (discriminator training, system building, each system's run)
  and per variant, the image draws read from the seed table and the draws
  that fell back;
* per phase, the observations made and those drawn on their own;
* the vectorised passes, the lanes they finished and the lanes their
  scalar path redrew (a lane with any ziggurat slow-path draw);
* the worker batches that break the serving model of one batch at a time
  with the model it started: batches dispatched while the same worker had
  one in flight, and batches completed under a variant other than the one
  the worker hosted at dispatch (dispatches and completions paired first in,
  first out per worker, so approximate where batches overlap).  These pins
  record a defect: a reload clears ``busy`` under a running batch, and a
  completing batch reads the worker's current variant.  The fix pins both
  at 0.

The cells run inline, as ``benchmarks/e2e/suite.py`` runs them (the
geo-sharded cell with ``shards=1``).  A change that raises a count edits
its pin here and says why; a change that lowers one can claim the saving
without wall-clock noise.

The fallbacks that remain, and why each is not drawn ahead:

* DiffServe deferrals (``sd-v1.5`` in a cascade's run): the heavy stage is
  reached by ~7% of queries, and seeding it for every arrival would cost
  about what it saves.
* Training (``train``): the calibration and quality-correlation prompts
  are drawn with replacement, and a repeated prompt's second image (and its
  observation) draws afresh, since a query takes its row once.
* Geo-sharded's 28 ``sd-turbo`` draws: heavy-stage batches that completed
  on a worker re-assigned to the light model while they ran.  A batch is
  rendered by the variant its worker hosts when it completes, so these are
  second images of queries that already took their light row (as are the
  13 light-stage batches rendered by ``sd-v1.5`` among the heavy fallbacks).
"""

import dataclasses
import os
import sys
from collections import Counter

import pytest

from repro.core.system import ServingSimulation
from repro.core.worker import Worker
from repro.discriminators.architectures import TrainedDiscriminator
from repro.experiments import harness
from repro.models.generation import ImageGenerator
from repro.runner import executor
from repro.runner.cache import ArtifactCache
from repro.simulator.rng import SeedTable

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from benchmarks.e2e.suite import WORKLOADS  # noqa: E402


class _Ledger:
    """Draw counts of one inline cell run, by phase."""

    def __init__(self) -> None:
        self.phase = "train"
        #: (phase, variant name, "seeded" | "fallback" | "hit") -> image draws.
        self.images = Counter()
        #: (phase, "made" | "fallback") -> observations.
        self.observations = Counter()
        #: phase -> vectorised passes.
        self.passes = Counter()
        #: phase -> the last generator that drew an image in it.
        self.generators = {}
        #: Batches dispatched while their worker had another in flight.
        self.overlapping_dispatches = 0
        #: Batches completed under a variant other than their dispatch one.
        self.variant_mismatches = 0
        #: worker -> variant names of its in-flight batches, oldest first.
        self.dispatched = {}

    def lanes(self, phase: str) -> tuple:
        """(vector lanes, scalar lanes) of the table of the generator ``phase`` drew with."""
        table = self.generators[phase].seed_table
        return (table.vector_lanes, table.scalar_lanes)

    def image_draws(self, kind: str) -> dict:
        return {(p, v): n for (p, v, k), n in sorted(self.images.items()) if k == kind}


@pytest.fixture
def ledger(monkeypatch):
    book = _Ledger()
    generate, observe = ImageGenerator.generate, TrainedDiscriminator.observe
    draw, normals = TrainedDiscriminator._draw_observation, SeedTable.normals
    build, run = harness.build_comparison_systems, ServingSimulation.run
    start_batch, complete_batch = Worker._maybe_start_batch, Worker._complete_batch

    def counting_generate(self, query_id, difficulty, variant, **kwargs):
        book.generators[book.phase] = self
        before = (self.fallback_draws, self.hits)
        image = generate(self, query_id, difficulty, variant, **kwargs)
        if self.fallback_draws > before[0]:
            kind = "fallback"
        else:
            kind = "hit" if self.hits > before[1] else "seeded"
        book.images[(book.phase, variant.name, kind)] += 1
        return image

    def counting_observe(self, image):
        book.observations[(book.phase, "made")] += 1
        return observe(self, image)

    def counting_draw(self, image, noise_std):
        book.observations[(book.phase, "fallback")] += 1
        return draw(self, image, noise_std)

    def counting_normals(self, groups):
        before = self.passes
        rows = normals(self, groups)
        if self.passes > before:
            book.passes[book.phase] += 1
        return rows

    def counting_start_batch(self):
        before = len(self._inflight)
        start_batch(self)
        if len(self._inflight) > before:
            book.overlapping_dispatches += before > 0
            book.dispatched.setdefault(self, []).append(self.variant.name)

    def counting_complete_batch(self, batch, latency):
        variant = book.dispatched[self].pop(0)
        if not self.failed:
            book.variant_mismatches += variant != self.variant.name
        complete_batch(self, batch, latency)

    def phased_build(*args, **kwargs):
        book.phase = "build"
        systems = build(*args, **kwargs)
        book.phase = "run"
        return systems

    def phased_run(self, *args, **kwargs):
        book.phase = self.name
        try:
            return run(self, *args, **kwargs)
        finally:
            book.phase = "run"

    monkeypatch.setattr(ImageGenerator, "generate", counting_generate)
    monkeypatch.setattr(TrainedDiscriminator, "observe", counting_observe)
    monkeypatch.setattr(TrainedDiscriminator, "_draw_observation", counting_draw)
    monkeypatch.setattr(SeedTable, "normals", counting_normals)
    monkeypatch.setattr(Worker, "_maybe_start_batch", counting_start_batch)
    monkeypatch.setattr(Worker, "_complete_batch", counting_complete_batch)
    monkeypatch.setattr(harness, "build_comparison_systems", phased_build)
    monkeypatch.setattr(ServingSimulation, "run", phased_run)
    return book


def _run(workload: str, tmp_path, **changes):
    (spec,) = WORKLOADS[workload](0).specs
    spec = dataclasses.replace(spec, **changes)
    return executor.run_cell_results(spec, cache=ArtifactCache(root=tmp_path))[1]


#: Draws of discriminator training, the same in every cell: 300 light and
#: 300 heavy training images with their observations, then 300 calibration
#: and 300 quality-correlation light images, 213 of them repeats.
TRAIN_DRAWS = {
    "seeded": {("train", "sd-turbo"): 687, ("train", "sd-v1.5"): 300},
    "fallback": {("train", "sd-turbo"): 213},
    "observations": {("train", "made"): 1200, ("train", "fallback"): 213},
}

#: steady-stream (diffserve-static): stage -> (seeded, fallback) draws.
#: Light and observation fallbacks were 273 each before leftover rows
#: survived one more chunk.
STEADY_STREAM_DRAWS = {
    "light": (13819, 0),
    "heavy": (0, 1018),
    "observation": (13819, 0),
}
#: The run's table: (vector lanes, scalar lanes) over images and
#: observations together, and its passes, one per chunk (eight before).
#: Apart, the image and observation passes redrew 3,238 and 3,081 lanes;
#: together an observation lane is drawn 17 normals wide, like an image's,
#: so a miss in its unused 17th normal sends 159 more to the scalar path.
STEADY_STREAM_LANES = ((22122, 6478), 4)
#: (overlapping dispatches, variant mismatches): the plan is solved once, so
#: no worker reloads and no batch breaks the serving model.
STEADY_STREAM_OVERLAPS = (0, 0)


def test_steady_stream_draw_work_is_pinned(ledger, tmp_path):
    _run("steady-stream", tmp_path)
    images, observations = ledger.images, ledger.observations
    run = "diffserve-static"
    made, fallback = observations[(run, "made")], observations[(run, "fallback")]
    draws = {
        "light": (images[(run, "sd-turbo", "seeded")], images[(run, "sd-turbo", "fallback")]),
        "heavy": (images[(run, "sd-v1.5", "seeded")], images[(run, "sd-v1.5", "fallback")]),
        "observation": (made - fallback, fallback),
    }
    assert draws == STEADY_STREAM_DRAWS
    assert (ledger.lanes(run), ledger.passes[run]) == STEADY_STREAM_LANES
    overlaps = (ledger.overlapping_dispatches, ledger.variant_mismatches)
    assert overlaps == STEADY_STREAM_OVERLAPS
    # Profiling the deferral curve: 300 calibration images and observations, all seeded.
    assert ledger.image_draws("seeded")[("build", "sd-turbo")] == 300
    assert observations[("build", "made")] == 300 and observations[("build", "fallback")] == 0
    # Training the discriminator (the cache starts empty): one pass per image set.
    train = {
        "seeded": {k: n for k, n in ledger.image_draws("seeded").items() if k[0] == "train"},
        "fallback": {k: n for k, n in ledger.image_draws("fallback").items() if k[0] == "train"},
        "observations": {k: n for k, n in observations.items() if k[0] == "train"},
    }
    assert (train, ledger.passes["train"]) == (TRAIN_DRAWS, 4)


#: fig-cell: (phase, variant) -> image fallbacks, training aside.  Before
#: every first-stage pool was seeded, Proteus fell back 2,403 times (its
#: heavy pool) and profiling 600 times (300 calibration images per cascade
#: system) plus 600 observations.  Only DiffServe deferrals remain.
FIG_CELL_FALLBACKS = {
    ("diffserve", "sd-v1.5"): 237,
    ("diffserve-static", "sd-v1.5"): 240,
}
#: fig-cell: (phase, variant) -> image draws read from the seed table.  The
#: build phase profiles the deferral function once for both cascade systems
#: (300 calibration images); each system used to profile its own (600).
#: fig-cell, all five systems: (overlapping dispatches, variant mismatches).
#: A defect, pinned (see the module docstring).
FIG_CELL_OVERLAPS = (72, 15)
FIG_CELL_SEEDED = {
    ("build", "sd-turbo"): 300,
    ("clipper-heavy", "sd-v1.5"): 1442,
    ("clipper-light", "sd-turbo"): 2896,
    ("proteus", "sd-v1.5-25step"): 2403,
}


def test_fig_cell_draw_work_is_pinned(ledger, tmp_path):
    _run("fig-cell", tmp_path)
    fallbacks = {k: n for k, n in ledger.image_draws("fallback").items() if k[0] != "train"}
    seeded = {k: n for k, n in ledger.image_draws("seeded").items() if k[0] != "train"}
    assert (fallbacks, seeded) == (FIG_CELL_FALLBACKS, FIG_CELL_SEEDED)
    assert (ledger.overlapping_dispatches, ledger.variant_mismatches) == FIG_CELL_OVERLAPS
    observations = {k: n for k, n in ledger.observations.items() if k[0] != "train"}
    assert observations == {
        ("build", "made"): 300,
        ("diffserve-static", "made"): 2882,
        ("diffserve", "made"): 2915,
    }
    # Passes: 1 profiling (2 when each cascade system profiled its own), one
    # per chunk (a chunk per system: the trace fits one) for the four systems
    # whose first stage needs a draw.  The last system's light images and
    # observations are all held already.
    assert {k: n for k, n in ledger.passes.items() if k != "train"} == {
        "build": 1,
        "clipper-light": 1,
        "clipper-heavy": 1,
        "proteus": 1,
        "diffserve-static": 1,
    }


#: geo-sharded, inline: (variant, kind) -> image draws over the 8 regions'
#: runs.  Before rows survived a chunk and images and observations shared a
#: pass, light fell back 669 times, observations 827 times, and the regions
#: drew 80 passes.  The 28 light fallbacks are second images (see the module
#: docstring); their observations are the 28 observation fallbacks.
GEO_SHARDED_DRAWS = {
    ("sd-turbo", "seeded"): 5699,
    ("sd-turbo", "fallback"): 28,
    ("sd-v1.5", "fallback"): 548,
}
GEO_SHARDED_OBSERVATIONS = {"made": 5727, "fallback": 28}
GEO_SHARDED_PASSES = 40
#: (overlapping dispatches, variant mismatches) over the regions' runs.  A
#: defect, pinned (see the module docstring).
GEO_SHARDED_OVERLAPS = (284, 41)
#: Control epochs over the regions' runs: 8 regions, each re-solving cold
#: every 5 s, 8 epochs apiece.
GEO_SHARDED_EPOCHS = 64


def test_geo_sharded_inline_draw_work_is_pinned(ledger, tmp_path):
    results = _run("geo-sharded", tmp_path, shards=1)
    draws = {(v, k): n for (p, v, k), n in ledger.images.items() if p == "run"}
    observations = {k: n for (p, k), n in ledger.observations.items() if p == "run"}
    assert draws == GEO_SHARDED_DRAWS
    assert observations == GEO_SHARDED_OBSERVATIONS
    assert ledger.passes["run"] == GEO_SHARDED_PASSES
    assert (ledger.overlapping_dispatches, ledger.variant_mismatches) == GEO_SHARDED_OVERLAPS
    history = results["diffserve"].replan_history
    assert len(history) == GEO_SHARDED_EPOCHS
    assert all(snap.replanned and not snap.warm_started for snap in history)
