"""The name-or-JSON grid-dimension registry (:mod:`repro.runner.dimensions`).

One property covers every registered dimension: a catalog name and a
hand-written equivalent JSON spelling — keys and (canonically re-sorted)
list entries shuffled by hypothesis — resolve to the same object token and
so to one runner cache entry.  The rest pins the registry's shared grammar:
catalog-miss errors, blank input, duplicate JSON keys and cell labels.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import DEVICE_CLASSES
from repro.experiments.harness import ExperimentScale
from repro.runner.dimensions import DIMENSIONS, decode_json_object
from repro.runner.spec import ExperimentSpec

_REGION = "fleet", "rtt_ms", "weight"


def _regions(*rows):
    return {name: dict(zip(_REGION, ({cls: n}, rtt, w))) for name, cls, n, rtt, w in rows}


_STORM = [
    {"kind": "crash", "worker": 1, "at": 6},
    {"kind": "crash", "worker": 3, "at": 12},
    {"kind": "straggler", "worker": 0, "at": 5, "duration": 40, "factor": 6},
    {"kind": "straggler", "worker": 2, "at": 9, "duration": 40, "factor": 6},
]
_SPOT = {"spot_classes": ["t4", "a10g", "l4"], "spot_discount": 0.3}

#: ``(dimension, catalog name)`` -> a JSON spelling of the same object,
#: written out by hand rather than derived from the catalog entry.
EQUIVALENT_JSON = {
    ("geo", "single"): _regions(("main", "a100", 16, 0, 1)),
    ("geo", "us-eu"): _regions(("us-east", "a100", 8, 15, 1.2), ("eu-west", "a100", 8, 20, 1)),
    ("geo", "global-4"): {
        **_regions(
            ("us-east", "a100", 8, 15, 1.3),
            ("us-west", "h100", 4, 20, 1.0),
            ("apac", "l4", 12, 35, 0.8),
        ),
        "eu-west": {"fleet": {"a100": 6, "l4": 4}, "rtt_ms": 20, "weight": 1.1},
    },
    ("geo", "global-8"): _regions(
        ("us-east", "a100", 8, 15, 1.3),
        ("us-west", "a100", 8, 20, 1.1),
        ("eu-west", "a100", 8, 20, 1.2),
        ("eu-north", "a100", 8, 25, 0.9),
        ("apac-ne", "a100", 8, 35, 1.0),
        ("apac-se", "a100", 8, 40, 0.8),
        ("sa-east", "a100", 8, 45, 0.7),
        ("me-south", "a100", 8, 50, 0.6),
    ),
    ("resources", "default"): {"sd-turbo": 5, "sdxl": 19, "reload_aware": True},
    ("resources", "oblivious"): {"sd-v1.5": 8, "reload_aware": False},
    ("faults", "quiet"): {"faults": [], "recovery": True},
    ("faults", "crash"): {"faults": [{"kind": "crash", "worker": 1, "at": 8}]},
    ("faults", "crash-norecovery"): {
        "faults": [{"kind": "crash", "worker": 1, "at": 8.0}],
        "recovery": False,
    },
    ("faults", "storm"): {
        "faults": _STORM,
        "recovery": {
            "retry_budget": 2,
            "backoff_base": 0.25,
            "heartbeat_period": 1,
            "straggler_threshold": 2,
        },
    },
    ("faults", "storm-norecovery"): {"faults": _STORM, "recovery": None},
    ("faults", "revocation"): {
        "faults": [{"kind": "revocation", "worker": 0, "at": 6, "notice": 3}]
    },
    ("faults", "solver-timeout"): {
        "faults": [
            {"kind": "solver-timeout", "at": 0, "duration": 1e9},
            {"kind": "crash", "worker": 1, "at": 6},
        ]
    },
    ("faults", "chaos"): {
        "faults": [
            {"kind": "bandwidth", "worker": 2, "at": 5, "duration": 30, "factor": 8},
            {"kind": "crash-storm", "count": 2, "at": 5, "duration": 20},
            {"kind": "straggler", "worker": 0, "at": 5, "duration": 30, "factor": 6},
        ]
    },
    ("autoscale", "static"): {"kind": "static", "max_factor": 1, "min_workers": 1},
    ("autoscale", "reactive"): {"kind": "reactive", "max_factor": 1.5, "step": 2},
    ("autoscale", "cost-aware"): {
        "kind": "cost-aware",
        "max_factor": 1.5,
        "step": 2,
        "risk_aversion": 1,
        "price_ceiling": 0.9,
    },
    ("prices", "flat"): {"on_demand": 1, "seed": 0},
    ("prices", "spot-calm"): {**_SPOT, "spot_discount": 0.35, "volatility": 0.1, "period": 120},
    ("prices", "spot-diurnal"): {**_SPOT, "volatility": 0.5, "period": 240},
    ("prices", "spot-storm"): {
        **_SPOT,
        "volatility": 0.5,
        "period": 240,
        "surges": [
            {"at": 70, "duration": 15, "factor": 4},
            {"at": 20, "duration": 20, "factor": 5},
        ],
    },
}

#: Stand-in catalog name for the random ``--prices`` payloads: their
#: reference spelling is the unshuffled JSON rather than a catalog name.
RANDOM_PRICES = "random"
CASES = sorted(EQUIVALENT_JSON) + [("prices", RANDOM_PRICES)]

_price_payloads = st.fixed_dictionaries(
    {
        "volatility": st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
        "period": st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
        "seed": st.integers(min_value=0, max_value=2**16),
        "spot_classes": st.lists(
            st.sampled_from(sorted(DEVICE_CLASSES)), unique=True, max_size=4
        ),
    }
)


def _shuffle(draw, value):
    """``value`` with every object's keys and every list's entries permuted."""
    if isinstance(value, dict):
        return {key: _shuffle(draw, value[key]) for key in draw(st.permutations(list(value)))}
    if isinstance(value, list):
        return [_shuffle(draw, entry) for entry in draw(st.permutations(value))]
    return value


def _spec(name, text):
    return ExperimentSpec(cascade="sdturbo", scale=ExperimentScale(), **{name: text})


def test_equivalent_spellings_cover_every_dimension_and_catalog_entry():
    assert {name for name, _ in CASES} == set(DIMENSIONS)
    assert set(EQUIVALENT_JSON) == {
        (name, entry) for name, dim in DIMENSIONS.items() for entry in dim.catalog
    }


@pytest.mark.parametrize("name,entry", CASES)
@given(data=st.data())
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_equivalent_spellings_share_one_spec_token(name, entry, data):
    dim = DIMENSIONS[name]
    if entry == RANDOM_PRICES:
        payload = data.draw(_price_payloads)
        reference = json.dumps(payload)
    else:
        payload, reference = EQUIVALENT_JSON[(name, entry)], entry
    text = json.dumps(_shuffle(data.draw, payload))
    assert dim.parse(text).token() == dim.parse(reference).token()
    assert _spec(name, text).token() == _spec(name, reference).token()


# ---------------------------------------------------------- shared grammar
@pytest.mark.parametrize("name", sorted(DIMENSIONS))
def test_lookup_and_parse_share_the_one_line_catalog_miss_error(name):
    dim = DIMENSIONS[name]
    with pytest.raises(KeyError, match=f"unknown {dim.noun} 'nope'; known {dim.nouns}: "):
        dim.lookup("nope")
    with pytest.raises(ValueError, match=f"unknown {dim.noun} 'nope'; known {dim.nouns}: "):
        dim.parse("nope")
    for entry, value in dim.catalog.items():
        assert dim.lookup(entry) is value
        assert dim.parse(f"  {entry} ") is value


@pytest.mark.parametrize("name", sorted(DIMENSIONS))
def test_blank_and_malformed_input(name):
    dim = DIMENSIONS[name]
    assert dim.parse(None) is None
    assert dim.parse("   ") is None
    with pytest.raises(ValueError, match=f"malformed JSON for --{name}"):
        dim.parse("{not json")
    with pytest.raises(ValueError, match=f"--{name} JSON must be an object"):
        dim.parse("[1, 2]")
    with pytest.raises(ValueError, match="blank"):
        _spec(name, " ")


def test_duplicate_json_keys_are_rejected_at_any_depth():
    with pytest.raises(ValueError, match="--x JSON: duplicate key 'a'"):
        decode_json_object('{"a": 1, "a": 2}', "--x")
    with pytest.raises(ValueError, match="duplicate key 'b'"):
        decode_json_object('{"a": {"b": 1, "b": 2}}', "--x")
    assert decode_json_object('{"a": {"b": 1}, "b": 2}', "--x") == {"a": {"b": 1}, "b": 2}


def test_labels_name_the_dimension_and_the_spelling():
    spec = _spec("geo", "us-eu")
    assert spec.label.endswith("/geo-us-eu")
    assert _spec("resources", '{"reload_aware": false}').label.endswith("/resources-json")
    assert _spec("faults", "storm").label.endswith("/faults-storm")
    # Labels are display-only: they never enter the token.
    assert "geo-us-eu" not in spec.token()
