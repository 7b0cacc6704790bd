"""The offline experiments' renders, pinned byte for byte.

Figures 1a/1b, 1c and 7 and the reuse study print the same text whichever
way the evaluation is organised.  Each render at ``SMALL`` scale is pinned
by its sha256; a change that moves one re-pins it here and says why.
"""

import hashlib

import pytest

from repro.experiments import offline
from repro.experiments.harness import ExperimentScale

SMALL = ExperimentScale(dataset_size=200, trace_duration=90.0, num_workers=16)

#: sha256 of ``offline.main(name, SMALL)``'s text, per experiment.
RENDER_SHA256 = {
    "fig1": "128ec8d80a5a84d4882e1558771494d79ed3a3eb8530157cbb95eb4997116de7",
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
