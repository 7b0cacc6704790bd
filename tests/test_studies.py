"""Golden pins for the fleet, geo, contention, chaos and autoscale studies.

Each study is one ``run_grid`` call over a fixed arm list.  These tests pin,
per study, the content hash of every cell spec at ``BENCH_SCALE`` (so the
cached summaries behind ``repro <study> --fast`` stay reachable) and the
sha256 of the table ``main(scale)`` renders at a small scale, uncached.
Geo's wall-clock ``shard_timing_report`` section is excluded: its timings
differ run to run by design.  The studies are driven through
``cli.EXPERIMENTS`` so the pins hold however the studies are implemented.
"""

import hashlib

import pytest

from repro import cli
from repro.experiments.harness import BENCH_SCALE, ExperimentScale
from repro.runner import executor

STUDY_NAMES = ("fleet", "geo", "contention", "chaos", "autoscale")

#: study -> content hash of each cell spec at BENCH_SCALE, in grid order.
CELL_HASHES = {
    "fleet": [
        "9e74340abc910739b5ec845ad12cc073e09f915bedf6d515589172e62107a8ca",
        "1d7097fbd758251ba0c55f5ee929d7de3d11a3f2ae77071ee9c759f51298b223",
        "fb8707656bf283153747b705669f141cbc811c07282954461055be6e79177d28",
        "8c9733755a4bdff38897ddd230e360262504087c7d976df885f236f587e63f4c",
        "e69b39adff6ffebaed020f7cfa432df49b49620f9e20870be646da8d207bf162",
        "409ef90f240927b7edcd90f131b2645c555c78cadf78c9db0bd0712dfec1fcd4",
    ],
    "geo": [
        "4829c67e46c609b771645e7719208daca2ac046f782ed588c3d91ddd392b0582",
        "0c67e26c97142a59ba3476f8c648194a331ac7c5634a18726b765382c6e64ffd",
        "e768a85dbd86eda3fb372f738a1827796b4aaed52bc643b8a2450dc8a4d6745e",
    ],
    "contention": [
        "82ac58716706fbc2bd5fac73b1c1e4481317fc0f41de7bc6409f44326b8483fe",
        "b9020e01e03e7361fe67f0f8ab0b887b93f0a177805f0fe008d3d2e8f9279ee3",
        "d79c1f437b027c758ed33a2e767a0bb096004fbd1e3e878f5d9def53655220bb",
        "4b9b8c21a5c12413651004d27a4859a92e399ce3234b218b803f8cd07de52c1e",
        "ad04796d92e2a6dac2817779559c14cdabbbd36add9a99223ed8e5fcdca08083",
    ],
    "chaos": [
        "9db2a5a8c40cf58d10763863162ccf625b9e7006c8e0ccc54dfa94d14f96154e",
        "5c8373bca8537e53e133f58e56b37e2cbc6650766a44ca8798f1436551ec80ad",
        "d26858e587b5e35acc8e34d4873bc2b75c62646c2a47c2e2f08c51a875cdec4e",
    ],
    "autoscale": [
        "9dac50ddecf64fab614717506ace3e6b176a4a095ae60b306394a0c2714c528e",
        "b3aeda476672d3efef72eb5934a1b82c0a0e48cf5d247f6f23249003a11f6f03",
        "8a4db791dadad49e89593f7381b0f9f46b0e54f9ed9f04ceb0802db8439d44c7",
        "f976484c8be58958d9987a16bbe5135fca12477be043450f65a3a8e79d2aa9f1",
        "b50775414979d83bb21b07a95d658eba08a35ce8080c4172f60edc4f078357ea",
        "c84e456466f626e53ff8a6b75727eaa22722026596cc603b5c9ea76a9a83b172",
    ],
}

#: study -> sha256 of ``main(SMALL_SCALE)``'s output (geo without its
#: shard-timing section).
OUTPUT_SHA256 = {
    "fleet": "509e5e2d88f31998de6ad3e1dc1bedf9a22ec2d980ae7f6b43122419a58a5d3d",
    "geo": "b7569cbc1748344f0ea55187ab4293dbcb11a5a43da2e32afd45ddd2c45b6bf0",
    "contention": "35275d2fb8c91fd6b6293ace606b50346f4153a45ed337b83502eb741953d8b5",
    "chaos": "c08dfdcf4c006af2a70a664672df72b43b9c5024837e5e4526693524e883b0b4",
    "autoscale": "05a4c1d41208fbde19917114332ac8a1bb5a82461c4799404150238c5b72c025",
}

SMALL_SCALE = ExperimentScale(dataset_size=60, trace_duration=12.0, num_workers=4, seed=0)

#: Geo's output ends with this wall-clock section; everything before it is
#: deterministic.
TIMING_SECTION = "\n\nShard event-loop timing"


class _Captured(Exception):
    pass


def _cell_hashes(name, monkeypatch):
    grids = []

    def capture(grid, **kwargs):
        grids.append(list(grid))
        raise _Captured

    monkeypatch.setattr(executor, "run_grid", capture)
    with pytest.raises(_Captured):
        cli.EXPERIMENTS[name][1](BENCH_SCALE)
    (specs,) = grids
    return [spec.content_hash for spec in specs]


@pytest.mark.parametrize("name", STUDY_NAMES)
def test_study_cell_specs_are_pinned(name, monkeypatch):
    assert _cell_hashes(name, monkeypatch) == CELL_HASHES[name]


@pytest.mark.parametrize("name", STUDY_NAMES)
def test_study_rendered_output_is_pinned(name, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE", "0")
    output = cli.EXPERIMENTS[name][1](SMALL_SCALE)
    capsys.readouterr()
    if name == "geo":
        assert TIMING_SECTION in output
        output = output.split(TIMING_SECTION)[0]
    digest = hashlib.sha256(output.encode("utf-8")).hexdigest()
    assert digest == OUTPUT_SHA256[name], output
