"""Elastic fleets: autoscaling policies, spot pricing, and cost accounting.

Covers the PR 9 tentpole surfaces:

* :class:`ScalePolicy` / :class:`PriceTrace` parsing, validation and
  canonical tokens (equivalent JSON spellings share one runner cache entry);
* the controller's single audited ``set_fleet`` site — growth activates
  pre-provisioned spares, over-growth fails with a one-line error, and a
  worker fenced by a revocation notice can never be re-activated by a
  same-epoch scale-out (the drain/autoscaler race pin);
* scale-to-zero as class omission (``fleet_from_counts(drop_zero=True)``)
  and the pinned one-line errors at the edges;
* time-integrated cost accounting — the ledger conservation property, the
  revocation-cheaper-than-quiet regression, and hypothesis determinism of
  autoscaled runs (repeat and serial vs. sharded, byte-identical).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.autoscaler import (
    SCALE_POLICIES,
    Autoscaler,
    ScalePolicy,
)
from repro.core.config import DEVICE_CLASSES, fleet_from_counts
from repro.core.pricing import (
    PRICE_TRACES,
    SECONDS_PER_HOUR,
    CostLedger,
    PriceSurge,
    PriceTrace,
)
from repro.core.sharding import run_sharded
from repro.core.system import ClientSource
from repro.baselines.registry import build_system
from repro.experiments.harness import ExperimentScale
from repro.runner.dimensions import DIMENSIONS
from repro.runner.spec import ExperimentSpec
from repro.workloads import make_workload

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

AUTOSCALE = DIMENSIONS["autoscale"]
PRICES = DIMENSIONS["prices"]
FAULTS = DIMENSIONS["faults"]

# Hypothesis settings: keep runtimes modest, silence fixture-scope warnings.
_SETTINGS = dict(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def elastic_system(**overrides):
    """A small mixed-fleet system with the autoscaler armed."""
    defaults = dict(
        cascade_name="sdturbo",
        fleet=fleet_from_counts({"a100": 1, "l4": 3}),
        dataset_size=100,
        seed=3,
        replan_epoch=3.0,
        replan_policy="adaptive",
        autoscale=AUTOSCALE.lookup("cost-aware"),
        prices=PRICES.lookup("spot-diurnal"),
    )
    defaults.update(overrides)
    return build_system(**defaults)


def small_workload(**overrides):
    defaults = dict(kind="flash-crowd", qps=4.0, duration=30.0, seed=3)
    defaults.update(overrides)
    return make_workload(**defaults)


# ------------------------------------------------------------ policy parsing
def test_scale_policy_catalog_and_tokens():
    for name, policy in SCALE_POLICIES.items():
        assert AUTOSCALE.lookup(name) is policy
        assert policy.token().startswith(policy.kind)
    # cost-aware knobs only appear on cost-aware tokens.
    assert "risk=" in SCALE_POLICIES["cost-aware"].token()
    assert "risk=" not in SCALE_POLICIES["reactive"].token()
    with pytest.raises(KeyError, match="known policies"):
        AUTOSCALE.lookup("bogus")


def test_parse_autoscale_accepts_named_and_json_forms():
    assert AUTOSCALE.parse(None) is None
    assert AUTOSCALE.parse("  ") is None
    assert AUTOSCALE.parse("reactive") == SCALE_POLICIES["reactive"]
    custom = AUTOSCALE.parse('{"kind": "cost-aware", "max_factor": 2.0, "step": 3}')
    assert custom.kind == "cost-aware"
    assert custom.max_factor == 2.0
    assert custom.step == 3


@pytest.mark.parametrize(
    "text",
    [
        "bogus",
        "{not json",
        '{"kind": "sideways"}',
        '{"kind": "reactive", "max_factor": 0.5}',
        '{"kind": "reactive", "step": 0}',
        '{"kind": "reactive", "surprise": 1}',
        '{"kind": "cost-aware", "price_ceiling": -1}',
        '{"kind": "reactive", "kind": "cost-aware"}',
    ],
)
def test_parse_autoscale_rejects_bad_specs(text):
    with pytest.raises(ValueError):
        AUTOSCALE.parse(text)


# ------------------------------------------------------------- price parsing
def test_price_trace_catalog_and_tokens():
    for name, trace in PRICE_TRACES.items():
        assert PRICES.lookup(name) is trace
    assert PRICE_TRACES["flat"].token() == "od=1"
    storm = PRICE_TRACES["spot-storm"].token()
    assert "spot[a10g+l4+t4]" in storm and "surges[" in storm
    with pytest.raises(KeyError, match="known traces"):
        PRICES.lookup("bogus")


def test_parse_prices_accepts_named_and_json_forms():
    assert PRICES.parse(None) is None
    assert PRICES.parse("") is None
    assert PRICES.parse("spot-calm") == PRICE_TRACES["spot-calm"]
    custom = PRICES.parse(
        '{"spot_classes": ["t4", "l4"], "volatility": 0.2,'
        ' "surges": [{"at": 5, "duration": 10, "factor": 2}]}'
    )
    assert custom.spot_classes == ("l4", "t4")  # canonically sorted
    assert custom.surges == (PriceSurge(at=5, duration=10, factor=2),)


@pytest.mark.parametrize(
    "text",
    [
        "bogus",
        "{not json",
        '{"spot_classes": ["b200"]}',
        '{"spot_classes": ["l4", "l4"]}',
        '{"spot_discount": 0}',
        '{"volatility": 1.5}',
        '{"surges": [{"at": -1, "duration": 5}]}',
        '{"surges": [{"at": 1, "duration": 5, "factor": 0.5}]}',
        '{"mystery": 1}',
        '{"surges": [{"at": 1, "duration": 5, "at": 2}]}',
    ],
)
def test_parse_prices_rejects_bad_specs(text):
    with pytest.raises(ValueError):
        PRICES.parse(text)


def test_spot_prices_are_deterministic_discounted_and_surge_scaled():
    trace = PRICES.lookup("spot-storm")
    od = DEVICE_CLASSES["l4"].cost_per_hour
    assert trace.on_demand_price("l4") == od
    assert trace.price("a100", 123.0) == DEVICE_CLASSES["a100"].cost_per_hour
    # Spot stays within the volatility band around the discounted base.
    base = od * trace.spot_discount
    quiet = trace.price("l4", 50.0)  # between the two surges
    assert base * (1 - trace.volatility) <= quiet <= base * (1 + trace.volatility)
    # Inside the first surge window the price multiplies by the factor.
    assert trace.price("l4", 25.0) == pytest.approx(
        trace.price("l4", 25.0 - 0.0), rel=0  # deterministic: identical call
    )
    wave_only = PriceTrace(
        spot_classes=trace.spot_classes,
        spot_discount=trace.spot_discount,
        volatility=trace.volatility,
        period=trace.period,
    )
    assert trace.price("l4", 25.0) == pytest.approx(5.0 * wave_only.price("l4", 25.0))


# --------------------------------------------- token / cache-key equivalence
def test_spec_token_includes_autoscale_and_prices():
    scale = ExperimentScale()
    bare = ExperimentSpec(cascade="sdturbo", scale=scale)
    assert "autoscale(" not in bare.token() and "prices(" not in bare.token()
    spec = ExperimentSpec(cascade="sdturbo", scale=scale, autoscale="reactive", prices="spot-calm")
    assert f"autoscale({SCALE_POLICIES['reactive'].token()})" in spec.token()
    assert f"prices({PRICE_TRACES['spot-calm'].token()})" in spec.token()
    # Named and JSON spellings of the same policy share one cache entry.
    json_spec = ExperimentSpec(
        cascade="sdturbo",
        scale=scale,
        autoscale='{"kind": "reactive", "max_factor": 1.5, "step": 2}',
        prices="spot-calm",
    )
    assert json_spec.token() == spec.token()
    with pytest.raises(ValueError):
        ExperimentSpec(cascade="sdturbo", scale=scale, autoscale="not-a-policy")
    with pytest.raises(ValueError):
        ExperimentSpec(cascade="sdturbo", scale=scale, prices="not-a-trace")


# --------------------------------------------------------------- cost ledger
@given(
    times=st.lists(
        st.floats(min_value=0.1, max_value=500.0, allow_nan=False),
        min_size=1,
        max_size=12,
    ),
    counts=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=12),
)
@settings(**_SETTINGS)
def test_cost_ledger_conservation(times, counts):
    """Sum of interval charges equals the integral of the active fleet rate."""
    ledger = CostLedger()
    now = 0.0
    ledger.transition(fleet_from_counts({"a100": 1}), now)
    expected = 0.0
    rate = fleet_from_counts({"a100": 1}).total_cost
    for dt, count in zip(times, counts):
        nxt = now + dt
        fleet = fleet_from_counts({"a100": count})
        expected += rate * (nxt - now) / SECONDS_PER_HOUR
        ledger.transition(fleet, nxt)
        now, rate = nxt, fleet.total_cost
    assert ledger.charged == pytest.approx(expected)
    assert sum(
        r * (e - s) / SECONDS_PER_HOUR for s, e, r, _ in ledger.intervals
    ) == pytest.approx(expected)
    # total_at extrapolates the open tail at the current rate, non-mutating.
    assert ledger.total_at(now + 3600.0) == pytest.approx(expected + rate)
    assert ledger.total_at(now) == pytest.approx(expected)


def test_cost_ledger_observe_resamples_spot_prices():
    trace = PRICES.lookup("spot-diurnal")
    fleet = fleet_from_counts({"l4": 2})
    ledger = CostLedger(trace)
    ledger.transition(fleet, 0.0)
    for t in (30.0, 60.0, 90.0):
        ledger.observe(t)
    ledger.observe(120.0)
    rates = {interval[2] for interval in ledger.intervals}
    assert len(rates) > 1, "diurnal spot prices must re-rate the meter"
    # Without a trace, observe() is a no-op and one interval per transition.
    flat = CostLedger()
    flat.transition(fleet, 0.0)
    flat.observe(50.0)
    assert flat.intervals == []
    assert flat.total_at(3600.0) == pytest.approx(fleet.total_cost)


def test_proteus_bill_is_re_rated_every_epoch():
    """Proteus runs the shared control loop, so a spot-priced run bills each
    5 s epoch at that epoch's price, not the t=0 price for the whole run."""
    prices = PRICES.lookup("spot-diurnal")
    fleet = fleet_from_counts({"a100": 1, "l4": 3})
    system = build_system(
        "sdturbo", "proteus", fleet=fleet, dataset_size=100, seed=3, prices=prices
    )
    workload = small_workload()
    runtime = system.prepare()
    ClientSource(runtime.sim, workload, system.dataset, runtime.load_balancer, system.config.slo)
    horizon = system.horizon(workload)
    runtime.sim.run(until=horizon)

    ledger = runtime.controller.cost_ledger
    epochs = int(horizon // 5.0)
    assert epochs >= 6
    assert [(start, end) for start, end, _, _ in ledger.intervals] == [
        (5.0 * k, 5.0 * (k + 1)) for k in range(epochs)
    ]
    rates = [rate for _, _, rate, _ in ledger.intervals]
    assert rates == [prices.rate_for(fleet, 5.0 * k) for k in range(epochs)]
    assert len(set(rates)) > 1, "diurnal spot prices must move within the run"
    billed = runtime.result(horizon).fleet_cost
    assert billed == ledger.total_at(horizon)
    assert billed != pytest.approx(prices.rate_for(fleet, 0.0) * horizon / SECONDS_PER_HOUR)


# ------------------------------------------------------------- scale-to-zero
def test_fleet_from_counts_drop_zero_omits_classes():
    fleet = fleet_from_counts({"a100": 2, "l4": 0, "t4": 3}, drop_zero=True)
    assert fleet.as_counts() == {"a100": 2, "t4": 3}
    assert fleet.count_for("l4") == 0
    # The MILP lowering solves a single-class remainder fine.
    with pytest.raises(ValueError, match="at least one device class"):
        fleet_from_counts({"a100": 0, "l4": 0}, drop_zero=True)
    # Without drop_zero the legacy pinned error stands.
    with pytest.raises(ValueError, match="count must be >= 1"):
        fleet_from_counts({"a100": 0})


def test_scaled_to_zero_fleet_still_plans_and_serves():
    """Scale-to-zero leaves a smaller fleet the MILP must solve, not crash."""
    system = elastic_system(
        fleet=fleet_from_counts({"a100": 2}),
        autoscale=ScalePolicy(kind="reactive", min_workers=1, step=1),
        prices=None,
    )
    summary = system.run(small_workload(qps=1.0, duration=12.0)).summary()
    assert summary["completed"] > 0


# ----------------------------------------------- audited set_fleet + fencing
def test_set_fleet_growth_activates_preprovisioned_spares():
    system = elastic_system(
        fleet=fleet_from_counts({"a100": 2}),
        autoscale=ScalePolicy(kind="reactive", max_factor=2.0, step=2),
        prices=None,
    )
    runtime = system.prepare()
    controller = runtime.controller
    assert controller.built_fleet.as_counts() == {"a100": 4}
    assert controller.active_fleet.as_counts() == {"a100": 2}
    controller.set_fleet(fleet_from_counts({"a100": 4}), reason="test-grow")
    assert controller.active_fleet.as_counts() == {"a100": 4}
    assert controller.fleet_log[-1][1] == "test-grow"
    # Growth beyond the built pool is a one-line error.
    with pytest.raises(ValueError, match="exceeds the 4 workers built"):
        controller.set_fleet(fleet_from_counts({"a100": 5}), reason="too-far")


def test_fenced_worker_cannot_be_reactivated_by_scale_out():
    """The revocation-drain vs. autoscaler race, pinned.

    Once a spot revocation notice fences a worker, neither a direct
    ``set_fleet`` nor a same-epoch autoscaler proposal may count it again.
    """
    system = elastic_system(
        fleet=fleet_from_counts({"a100": 3}),
        autoscale=ScalePolicy(kind="reactive", max_factor=1.0, step=2, cooldown_epochs=0),
        prices=None,
    )
    runtime = system.prepare()
    controller = runtime.controller
    victim = controller.workers[0]
    controller.fence_worker(victim)
    assert controller.healthy_counts() == {"a100": 2}
    with pytest.raises(ValueError, match="fenced by revocation notices"):
        controller.set_fleet(fleet_from_counts({"a100": 3}), reason="race")
    # The autoscaler sees only unfenced capacity: shrink, then demand a
    # scale-out — the proposal must never exceed the two healthy workers.
    controller.set_fleet(fleet_from_counts({"a100": 2}), reason="drain")
    scaler = Autoscaler(
        ScalePolicy(kind="reactive", max_factor=1.0, step=3, cooldown_epochs=0),
        controller,
    )
    proposal = scaler.evaluate(now=10.0, arrival_rate=100.0, violation_ratio=1.0)
    assert proposal is None or proposal.count_for("a100") <= 2


def test_static_policy_never_scales():
    system = elastic_system(autoscale=AUTOSCALE.lookup("static"))
    runtime = system.prepare()
    scaler = runtime.controller.autoscaler
    assert scaler.evaluate(now=3.0, arrival_rate=1e9, violation_ratio=1.0) is None
    assert scaler.decisions == []


def test_autoscale_requires_replan_control_plane():
    with pytest.raises(ValueError, match="replan"):
        build_system(
            "sdturbo",
            fleet=fleet_from_counts({"a100": 2}),
            dataset_size=100,
            seed=0,
            autoscale=AUTOSCALE.lookup("reactive"),
        ).prepare()


# ------------------------------------------------- cost accounting regression
def test_revocation_run_costs_less_than_quiet_twin():
    """Losing a worker to a spot revocation must show up as money saved."""

    def run(faults):
        system = build_system(
            "sdturbo",
            fleet=fleet_from_counts({"a100": 4}),
            dataset_size=100,
            seed=3,
            replan_epoch=3.0,
            replan_policy="adaptive",
            faults=faults,
        )
        return system.run(small_workload()).summary()

    quiet = run(FAULTS.lookup("quiet"))
    revoked = run(FAULTS.lookup("revocation"))
    assert revoked["fleet_cost"] < quiet["fleet_cost"], (
        "a revocation-shrunk fleet must charge less than its quiet twin"
    )


# --------------------------------------------------------------- determinism
@given(seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_autoscaled_runs_are_deterministic_on_repeat(seed):
    def once():
        system = elastic_system(seed=seed)
        return system.run(small_workload(seed=seed, duration=20.0)).summary()

    assert once() == once()


@pytest.mark.xdist_group("sharding-determinism")
def test_autoscaled_serial_equals_sharded_byte_identical():
    workload = small_workload(duration=20.0)
    serial = elastic_system().run(workload).summary()
    sharded = run_sharded(elastic_system(), workload, shards=2).summary()
    assert serial == sharded
    assert "fleet_cost" in serial


# ------------------------------------------- chunked feeding / profiler gates
def test_chunk_size_and_profiler_are_summary_neutral_autoscaled():
    """Arrival chunking and the profiler never perturb an autoscaled run.

    ``arrival_chunk`` only changes when queries are *allocated* and
    ``profile=True`` only counts callbacks, so every combination must be
    byte-identical to the reference run — including the elastic control
    plane's scale decisions, which feed off observed arrivals.
    """
    import dataclasses

    from repro.runner.executor import canonical_summaries_json

    workload = small_workload()

    def run(**fields):
        system = dataclasses.replace(elastic_system(), **fields)
        return canonical_summaries_json({"s": system.run(workload).summary()})

    reference = run()
    assert run(arrival_chunk=1) == reference
    assert run(arrival_chunk=7) == reference
    assert run(profile=True) == reference
