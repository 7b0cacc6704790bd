"""Golden spec tokens: the runner's cache keys must not move under refactors.

Every summary in the artifact cache is keyed by :meth:`ExperimentSpec.token`.
These goldens pin the content hash (SHA-256 of the token) of one spec per
catalog entry of each name-or-JSON grid dimension and of every cell the
end-to-end benchmark (``benchmarks/e2e``) runs.  A change that moves any of
them invalidates existing caches and must bump ``CACHE_SCHEMA_VERSION``
and re-pin these values deliberately.
"""

import os
import sys

import pytest

from repro.core.autoscaler import SCALE_POLICIES
from repro.core.geo import GEO_TOPOLOGIES
from repro.core.pricing import PRICE_TRACES
from repro.experiments.harness import ExperimentScale
from repro.faults.plan import FAULT_PLANS
from repro.runner.spec import CACHE_SCHEMA_VERSION, ExperimentSpec

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from benchmarks.e2e.suite import WORKLOADS  # noqa: E402

BASE = dict(
    cascade="sdturbo",
    scale=ExperimentScale(dataset_size=60, trace_duration=10.0, num_workers=4, seed=0),
    systems=("diffserve",),
)

#: ``(spec field, catalog name)`` -> content hash of ``BASE`` with that field set.
CATALOG_HASHES = {
    ("geo", "single"): "a790aafa4a9d3d3ba3c82a7bf4d5bea53d6cabe1488765957b7fb77199a66556",
    ("geo", "us-eu"): "31677901a0d8caaa3449db0c95dafc22b621fc64371f3241437901ebacf46f06",
    ("geo", "global-4"): "829704f9ef8195a7c3c6f9b8b7b89265202fa57f8c4bc6ca52e9687cbf808bc4",
    ("geo", "global-8"): "c343f5033eb757794b5340f770068384e6bf46e5d6bbd5fc85005023cb170dcb",
    ("resources", "default"): "6ea834b66dd361a2a6f50380920a5316c14a6cc8d7bb2bc12f18341cd014baa3",
    ("resources", "oblivious"): "03115834ecc9c24c85425fd474ab2fb67937f54b6d2f53b8c08a15e501175e7b",
    ("faults", "quiet"): "026c70203176a60440adc1bcbf84a25389c053d021edece164d907af66f89d8c",
    ("faults", "crash"): "f6e3f022dc36f1cd997400124fe33a95f8194b03cc6f621d4ecb7766a3e94734",
    ("faults", "crash-norecovery"): "290380ed300a2cfd808d3b00ec78ccac78f1393a88eae7d91c5a3484b510027b",
    ("faults", "storm"): "e21741829bb3c4857435e40b6817b940efc3b306073f47b0af3f12b854c6fb03",
    ("faults", "storm-norecovery"): "683db01f91fff5d3db36b9b8ea17c4c356775275ce68b2e259e51ca5e339d034",
    ("faults", "revocation"): "feeb5a3eac8ac6cbd2c6e7dc5cfbff8593ce1047da7cc80ec3b2faecdf5c7ec8",
    ("faults", "solver-timeout"): "95eba64decef91061c51460940381b51763444e6c9eebf045b10bf994e7a9b59",
    ("faults", "chaos"): "3d37bc81337e660f6edd1b061416e8c6d99a12b662ee32610ee813dcd2be6a93",
    ("autoscale", "static"): "9020859e1781d84b5d429cda1ae854fa238e19d1819bcd3ba9e56052269cf9b0",
    ("autoscale", "reactive"): "e80382e351ac6804d019517c8edff2b6e6eec0b16c2234bafb414cdd52e3caad",
    ("autoscale", "cost-aware"): "3278302b102694947d3232ed5348552d34a1920ebd4ffbcb7e86609ba794f4b9",
    ("prices", "flat"): "fa45eb146b2314afc623da020692f996b784097ed08ada750f3a356f3f5af846",
    ("prices", "spot-calm"): "14f1dfc5812db77c01471c92197a895b0ef5434851d7a2df8ad3bd09fd14e13c",
    ("prices", "spot-diurnal"): "65766fc810ada336bd6b88786224ee9381c0e40d819c5330e40c60b19a766772",
    ("prices", "spot-storm"): "777cb9eb7e3937b40bcd91f197a0c92c7a904b8c002ae2fbca8072166921874d",
}

#: ``(benchmark workload, cell index)`` -> content hash of that cell at seed 0.
CELL_HASHES = {
    ("fig-cell", 0): "60ce7ba85f6637db52dc516fbd747bbe33ea543c5207d41dca2aec54098126b7",
    ("steady-stream", 0): "05ecf1eb505a3923f663a826561dd04bc6fe2352c49c24e3e4a522fc2cb91a6a",
    ("geo-sharded", 0): "6946931b943cc151f3c2c261a62f23a8bbc668144259e3430409561522496bff",
    ("grid-features", 0): "c97be63168e5e1657c0b2553ac8aa31f9fa837c5120223d2c8440621e81687ee",
    ("grid-features", 1): "4fb0a84ea69d5f0230467b1900b276dc5481f3f8c640a1a550f68ced30b940ca",
    ("grid-features", 2): "3824af276d14715d3fbb18ba61c6b085041d5c4f5040b76a41f483e857aef334",
    ("grid-features", 3): "ee9858b37d9826ea2b1a403d73b958a8b07a294651600b49386728f1b48a160d",
}


def test_goldens_cover_every_catalog_entry_and_benchmark_cell():
    catalogs = {
        "geo": GEO_TOPOLOGIES,
        "resources": ("default", "oblivious"),
        "faults": FAULT_PLANS,
        "autoscale": SCALE_POLICIES,
        "prices": PRICE_TRACES,
    }
    assert set(CATALOG_HASHES) == {(dim, name) for dim, names in catalogs.items() for name in names}
    cells = {(name, i) for name, cls in WORKLOADS.items() for i in range(len(cls(seed=0).specs))}
    assert set(CELL_HASHES) == cells
    assert CACHE_SCHEMA_VERSION == 9


@pytest.mark.parametrize("field,name", sorted(CATALOG_HASHES))
def test_catalog_entry_token_is_pinned(field, name):
    spec = ExperimentSpec(**BASE, **{field: name})
    assert spec.content_hash == CATALOG_HASHES[(field, name)], spec.token()


@pytest.mark.parametrize("workload,index", sorted(CELL_HASHES))
def test_benchmark_cell_token_is_pinned(workload, index):
    spec = WORKLOADS[workload](seed=0).specs[index]
    assert spec.content_hash == CELL_HASHES[(workload, index)], spec.token()
