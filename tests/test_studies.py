"""Golden pins for every ``STUDIES`` record: the five studies and Figures 4, 6, 8, 9.

Each study is one ``run_grid`` call over a fixed arm list.  These tests pin,
per study, the content hash of every cell spec at ``BENCH_SCALE`` (so the
cached summaries behind ``repro <study> --fast`` stay reachable) and the
sha256 of the table ``main(scale)`` renders at a small scale, uncached.
Geo's wall-clock ``shard_timing_report`` section is excluded: its timings
differ run to run by design.  For the figures, the sha256 of every cell's
canonical summary JSON at the small scale is pinned too; those pins and the
cell hashes were captured when each figure still had its own module, so they
prove the move onto ``STUDIES`` left every cell and every number unchanged.
The studies are driven through ``cli.EXPERIMENTS`` so the pins hold however
the studies are implemented.
"""

import hashlib

import pytest

from repro import cli
from repro.experiments.harness import BENCH_SCALE, ExperimentScale
from repro.runner import executor

FIGURE_NAMES = ("fig4", "fig6", "fig8", "fig9")
STUDY_NAMES = ("fleet", "geo", "contention", "chaos", "autoscale", *FIGURE_NAMES)

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
    "fig4": [
        "20f85124d9a09cde64a30825bb115074c55b4cb575a42af64d7f7c09826ec708",
        "b200d03686b614cbc9babe5076800ac28fe27677a459952e7555305f207817e4",
        "5da80332bcf300f9e111fe775aa522a8cbffd4fc6a6d52e27182b10d80bbd848",
        "2ac1757d1b1a10e4ab39d6b2731459137ff758e2d5cba3632b2e1172796874cc",
        "dd1e3164d34f252efffab4694fe4d2a6efe533fb752ec05c8b9943d602c52769",
        "8a25e407d4e0855dbd4e489338eb389cd0e587fe12bb8407ce5c2bda1452e707",
        "7cf38d4c29dd7bd96a9166bbf7fbcceee4a2e9be61ed57bc05709d57405f71f1",
        "07eef25260cab432e1cf26abb1860596d140806554433100af8edfbcf18afbc0",
        "e15feec6708eeca2754e7c4cf3ec47cdf2c4af4a8b25c746de425e3ea863e309",
        "c3f31f82a3e1ddabc6b49420290e963c200b5bc74dabf380e7416b130752353c",
        "01095b4fb7273be35d6636033e721fe4cdb5929086b9135de171a9eddc660662",
        "fc6a892d998578ccc0678ef097e06da261f782d16f9b556da935663df521e9d5",
        "7a0d741c5c9d23ca364b55b38d154f299ce2dd3e4a4020148114e25523184558",
        "018f18a972cebe18cdaa110ef2d0d8e75825cee317b56103a28ce943eca3f61c",
        "6a48a94785133108cec33395db40a4aeb925d0764b6af7cbb2ab1fc8cd65212a",
        "082731862274384fdac7146141313f26b914c0528b97daf612a82aa7c8bed21c",
        "24d6e194920e905fe790304b320878d6efc6973b1a2d0303d444b5ce6a196563",
        "37d1e3c816d3ad9b424438296d0f85373d63e3a4899cfd3e39e66b0a9c4a7d16",
        "b768ba071f7b224e229dd4f2b07bf5a5e38aec8a6c2e7b12e5f7faf6c4035323",
        "a89d1cc4c2077cabc47f38646586397f0cd936717ef26b10d6873d3989d99e04",
        "bb0285b5f2cb70f4623b50bf847f63e7a615807c10aa6a35ad379145219ab799",
        "8871b025ebcaa1c89cf743314429ea75025ab339a0f93ee32a3077009e4fbe4b",
        "0479810140e1c51a69c7635b30cb53923ffd42ded6e11523a943ae12468ebc74",
        "2384507d681a9c1e32fa81b337cf85672a4a62afe7adc81fc7223aceda58b85e",
        "558efe1dc9a276d70ec40f04b0ac47a5e553f1d7b1b394a1a3bce9ad6d9660fa",
        "d4d1f36c18a8d20d69edce5f8c7fc0199176020041f21dd2ef7042d7b76c9cb0",
        "a2d4c49c623a0a39b51609facef3b373458cb01e7df199a95d30309cef383822",
    ],
    "fig6": [
        "d166dfc0d202a3e63be496ca00f62aed891a322191cbcb472406c440e99a6ee5",
        "e436a8880fcccdd1a00e55f2806ff456e93927cc4ddd70199e8156241bd9401c",
    ],
    "fig8": [
        "30abee5907fa8b81aaf4f6af7ceb74affea28ea513fe2e18f45ecbe851992fb6",
        "c5cb707e627f29ad1b0bf55607885a9e3265e6f24076aea2b4b94cec52ff66f6",
        "0e175bfaa815704f362e5e5975f95c27894b04462af4cfe6ebd1f5bfabb63364",
        "f6b363a2396d2a9bfeeae85e42c0f41eed8511fb5170441712c5ac7768315581",
    ],
    "fig9": [
        "d7d9fd695fa9d89786c29088cf195193485518f6e29ef3a5e027fb2e36f927ef",
        "3ca02e656e7bbf1432da1d477abf6170f854d54b3a9bdbca4e6409926b5a8c38",
        "42ec815e5a4e7e9e67847858f5021ba449266f6fbe6c25d9da61218a0c0b5006",
        "43d73504e06f846b3a5c965527d05cdf4e0f6da9c5560c9bad72517cd3a49e35",
        "4c56f70c3e0b5dd61803a482bd7f9c72f47371e95b278f70e4d6dffedc1ae29f",
        "de067fa0083f4a49b00bc1bbd01e0761145232be425cfae8f474e5fa6377dc36",
    ],
}

#: figure -> sha256 of each cell's canonical summary JSON at SMALL_SCALE, in
#: grid order.
SUMMARY_SHA256 = {
    "fig4": [
        "e199a3353b0c511606e77a191aa87ad92b6e15cb5b6287778cab23539c02de0d",
        "8147d339258e76928e9e5f71c9f72077e68f78f8cf568f73fabdade1b6b527be",
        "85094c8740f11a583d05f7dacab1c39e23a99ef4121016768bf620549aa91855",
        "8147d339258e76928e9e5f71c9f72077e68f78f8cf568f73fabdade1b6b527be",
        "b364f5f6a3b11b7f46f363dc8ab035b9648a61e76a43586f03270f26cc0a4561",
        "8147d339258e76928e9e5f71c9f72077e68f78f8cf568f73fabdade1b6b527be",
        "de65ad76b02b4718c9b45484657fe0e1c96acb4d266a75234b1f8783dbe8d180",
        "8147d339258e76928e9e5f71c9f72077e68f78f8cf568f73fabdade1b6b527be",
        "de65ad76b02b4718c9b45484657fe0e1c96acb4d266a75234b1f8783dbe8d180",
        "6e44f02a2f2e1706da3db0b9307875d1ee35b8d6c4cca8c33a7e0f5cd1a2fe32",
        "922096a05cfaa93da493002ddce8de9cee273952707f1fa0a445e62dc0592c88",
        "4187514d48e32fda2317125b979a7373ec17c59c4d540acca50ec8e4dc578e2e",
        "922096a05cfaa93da493002ddce8de9cee273952707f1fa0a445e62dc0592c88",
        "a0d250bc9c1810b51a894796343e1b64ffd2140c5079b188247972a79a9c6924",
        "922096a05cfaa93da493002ddce8de9cee273952707f1fa0a445e62dc0592c88",
        "3c6cb080fd3b2ce4cffe463bfd3b1877c85634dbdac92b016cc820bd38905a73",
        "922096a05cfaa93da493002ddce8de9cee273952707f1fa0a445e62dc0592c88",
        "e69d52720bb1d642d05c3d0d78d5b8cd045dde031c12aead707a26c7353873cd",
        "c4489c2b48a42874c16a201feb004d473a8510a2e8250ed3452a7a3cf8bdf923",
        "5656660cdc6df9ba375e025c90cb9b97842ea64deb5ea0039c6ce557142b9fef",
        "69783bc6251cd4c4850235cf027f7ba597b551fbb3510fccd5e9c9bbc834a542",
        "5656660cdc6df9ba375e025c90cb9b97842ea64deb5ea0039c6ce557142b9fef",
        "b68fb27fb0999140e66f609fac7eea123f84b2a40794cf249e519bcbb54ea646",
        "5656660cdc6df9ba375e025c90cb9b97842ea64deb5ea0039c6ce557142b9fef",
        "c667c39877e68bc450e669ec044dcef099e63b37a0c37bb36fb8884057ec521a",
        "5656660cdc6df9ba375e025c90cb9b97842ea64deb5ea0039c6ce557142b9fef",
        "58e81ba9cf6978bbc2f2e34ba70e8dd43b7b6c3fecd442f878daea488fffc3d5",
    ],
    "fig6": [
        "ef4b995d15734592d0f50b8de5cd3aee8c7d4ea1e5fbd0ad01e718e00f6c9008",
        "612e6d40455fdca22d1dd43e4984951e20ca5827c00d26965857fbe408eccc6c",
    ],
    "fig8": [
        "c26227e3f3ce841272e48d2d38a6353cfc9fc409d2194bcedcb39591d6ed4608",
        "b50e599a786cf2162e66f396f3ccc1dd6a04f08551c993931b1e226cff5bca24",
        "e644f0fb0ef4113910c6f3f3b4be0e700a8f7c1e1a57a4efa919a144f3263c18",
        "91f3905358b3d5a425284f4227bc80b01557468888a8ffeeccddfd2ab185a575",
    ],
    "fig9": [
        "e87fba9767098159f513ec3dfb123b8dceb9caa073c0174119b7676de9bf023b",
        "3b05c963329beba939012ec51ab7709c7cac772a8d8882cb1fc532f748c50f4e",
        "c74fe4f942808ceb88617c453e769918213183cb92ae0af733cb22815df901f1",
        "c26227e3f3ce841272e48d2d38a6353cfc9fc409d2194bcedcb39591d6ed4608",
        "c450401bb645ee8b2a8b67d3a022afbc9ec78e3773d55a24535ae8e875cb8596",
        "696eaa5af802b8d4ff595127013f05829ee1f9059963c4a5c11e3b115e724940",
    ],
}

#: study -> sha256 of ``main(SMALL_SCALE)``'s output (geo without its
#: shard-timing section).  fig8 and fig9 render exactly as their own modules
#: did; fig4 and fig6 were re-pinned when they joined ``STUDIES`` (fig4 gained
#: its load/system/over-provision columns and per-load verdicts, fig6 prints
#: one table instead of one per cascade).
OUTPUT_SHA256 = {
    "fleet": "509e5e2d88f31998de6ad3e1dc1bedf9a22ec2d980ae7f6b43122419a58a5d3d",
    "geo": "b7569cbc1748344f0ea55187ab4293dbcb11a5a43da2e32afd45ddd2c45b6bf0",
    "contention": "35275d2fb8c91fd6b6293ace606b50346f4153a45ed337b83502eb741953d8b5",
    "chaos": "c08dfdcf4c006af2a70a664672df72b43b9c5024837e5e4526693524e883b0b4",
    "autoscale": "05a4c1d41208fbde19917114332ac8a1bb5a82461c4799404150238c5b72c025",
    "fig4": "bfe9b14cf01943d7f5548c4f887a29b1a21a7d0af390c1e911077c2ec7d7e3ae",
    "fig6": "322f92fa429086eeffe019cb638abb2c0c2a680b665f1a035f79cb57c96bfc54",
    "fig8": "f1530cb63678bd3d40e48b4f55c3f800499122a01d60166c3d74bd5d341c5957",
    "fig9": "9a6cde6d1b7c903fa9ac3e52f19a4f4a294ae8e9160ab958b780687401080d88",
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
    summaries = []
    run_grid = executor.run_grid

    def record(grid, **kwargs):
        report = run_grid(grid, **kwargs)
        summaries.extend(
            hashlib.sha256(executor.canonical_summaries_json(cell.summaries).encode()).hexdigest()
            for cell in report.cells
        )
        return report

    monkeypatch.setattr(executor, "run_grid", record)
    output = cli.EXPERIMENTS[name][1](SMALL_SCALE)
    capsys.readouterr()
    if name in SUMMARY_SHA256:
        assert summaries == SUMMARY_SHA256[name]
    if name == "geo":
        assert TIMING_SECTION in output
        output = output.split(TIMING_SECTION)[0]
    digest = hashlib.sha256(output.encode("utf-8")).hexdigest()
    assert digest == OUTPUT_SHA256[name], output
