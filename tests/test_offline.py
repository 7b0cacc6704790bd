"""The offline experiments' renders, pinned byte for byte.

Figures 1a/1b, 1c and 7 and the reuse study print the same text whichever
way the evaluation is organised.  Each render at ``SMALL`` scale is pinned
by its sha256; a change that moves one re-pins it here and says why.

``fig1`` was re-pinned once when Figure 1a began to route with the
discriminator that Figures 1b, 1c and 7 train on
``ImageGenerator(seed=scale.seed)``, instead of one trained on the training
module's default generator (seed 1234).  Only the two ``discriminator`` rows
of Figure 1a moved (sdturbo best FID 15.873 -> 15.807; sdxs 16.714 -> 16.730,
max latency 1.760 -> 1.679 s).
"""

import hashlib

import pytest

from repro.experiments import offline
from repro.experiments.harness import ExperimentScale

SMALL = ExperimentScale(dataset_size=200, trace_duration=90.0, num_workers=16)

#: sha256 of ``offline.main(name, SMALL)``'s text, per experiment.
RENDER_SHA256 = {
    "fig1": "92b6140eb400128912ab88f9ff27d11cb5cbd9f6c1558a2d7a24db1ab6b0d74f",
    "fig1c": "f1fc638101560bf59cbd2409327f58b201139a903fdcf13c253306cd04fdf77f",
    "fig7": "e1722e7f8579e5a8c1eff8ea871d05f09f58dea452b768d4ac712947ba6ddad1",
    "reuse": "c09002e52e16c88954dd1ba83a1d50bbc82617d2045549334a91f4af43f2a7c7",
}


def test_every_offline_experiment_is_pinned():
    assert set(offline.OFFLINE) == set(RENDER_SHA256)


@pytest.mark.parametrize("name", sorted(RENDER_SHA256))
def test_offline_render_is_pinned(name, capsys):
    text = offline.main(name, SMALL)
    assert capsys.readouterr().out == text + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RENDER_SHA256[name], text
