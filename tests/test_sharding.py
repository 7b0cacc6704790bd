"""Sharded execution: determinism gates, routing, topology, column merging.

The tentpole guarantee of the shard supervisor is that ``shards=N`` is a pure
wall-clock knob: sharded and serial runs of the same cell produce byte-identical
summaries.  The determinism tests here are the gate; they carry an
``xdist_group`` marker so a parallel CI runner keeps them on one worker.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.config import FleetSpec, fleet_from_counts
from repro.core.geo import (
    GEO_TOPOLOGIES,
    GeoRouter,
    GeoTopology,
    RegionSpec,
    sample_origins,
)
from repro.core.results import ColumnStore
from repro.core import sharding
from repro.core.sharding import (
    ShardSupervisor,
    build_region_systems,
    default_shards,
    region_seed,
    run_sharded,
)
from repro.baselines.registry import build_system
from repro.runner.dimensions import DIMENSIONS
from repro.runner.executor import canonical_summaries_json
from repro.workloads import make_workload

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

GEO = DIMENSIONS["geo"]


def small_system(**overrides):
    defaults = dict(fleet=FleetSpec.homogeneous(4), dataset_size=100, seed=3)
    defaults.update(overrides)
    return build_system(**defaults)


def small_workload():
    return make_workload("static", duration=40.0, qps=6.0, seed=3)


def two_region_topology() -> GeoTopology:
    return GeoTopology(
        regions=(
            RegionSpec(name="us", fleet=fleet_from_counts({"a100": 4}), rtt_s=0.01, weight=1.2),
            RegionSpec(name="eu", fleet=fleet_from_counts({"a100": 4}), rtt_s=0.02, weight=1.0),
        )
    )


# ----------------------------------------------------------------- determinism
@pytest.mark.xdist_group("sharding-determinism")
def test_plain_run_equals_single_region_sharded_byte_identical():
    """The degenerate zero-RTT single-region path is bit-for-bit serial."""
    serial = small_system().run(small_workload())
    sharded = run_sharded(small_system(), small_workload())
    assert canonical_summaries_json({"s": sharded.summary()}) == canonical_summaries_json(
        {"s": serial.summary()}
    )
    assert sharded.total_queries == serial.total_queries


@pytest.mark.xdist_group("sharding-determinism")
@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_equals_serial_byte_identical(shards):
    """The acceptance gate: shards=N matches shards=1 byte-for-byte."""
    topology = two_region_topology()
    reference = run_sharded(small_system(), small_workload(), topology=topology, shards=1)
    sharded = run_sharded(small_system(), small_workload(), topology=topology, shards=shards)
    assert canonical_summaries_json({"s": sharded.summary()}) == canonical_summaries_json(
        {"s": reference.summary()}
    )


@pytest.mark.xdist_group("sharding-determinism")
def test_supervisor_exposes_identical_region_results_and_live_summaries():
    topology = two_region_topology()
    runs = []
    for shards in (1, 2):
        supervisor = ShardSupervisor(template=small_system(), topology=topology, shards=shards)
        merged = supervisor.run(small_workload())
        runs.append((supervisor, merged))
    inline, procs = runs
    assert set(inline[0].region_results) == {"eu", "us"}
    for name in ("eu", "us"):
        assert canonical_summaries_json(
            {"r": inline[0].region_results[name].summary()}
        ) == canonical_summaries_json({"r": procs[0].region_results[name].summary()})
    assert inline[0].spilled_queries == procs[0].spilled_queries
    # Regions cover the whole trace between them.
    region_total = sum(inline[0].region_results[n].total_queries for n in ("eu", "us"))
    assert region_total == inline[1].total_queries


def test_live_summary_counts_match_final_summary():
    """The region results' counts add up to the exact merged result."""
    supervisor = ShardSupervisor(
        template=small_system(), topology=two_region_topology(), shards=1
    )
    final = supervisor.run(small_workload()).summary()
    regions = [result.summary() for result in supervisor.region_results.values()]
    for key in ("total_queries", "completed", "dropped"):
        assert sum(region[key] for region in regions) == final[key]


# ----------------------------------------------------------------- region seeds
def test_region_seed_rule():
    assert region_seed(7, "main", 1) == 7  # single region: serial path untouched
    a = region_seed(7, "us", 2)
    b = region_seed(7, "eu", 2)
    assert a != b != 7
    assert a == region_seed(7, "us", 2)  # process-independent and stable
    assert a != region_seed(8, "us", 2)


def test_region_systems_are_isolated_and_scaled():
    topology = two_region_topology()
    template = small_system()
    systems = build_region_systems(template, topology)
    assert list(systems) == ["eu", "us"]  # canonical name order
    assert systems["us"].policy is not template.policy
    assert systems["us"].policy is not systems["eu"].policy
    assert systems["us"].config.fleet == topology.region("us").fleet
    us_share = 1.2 / 2.2
    assert systems["us"].initial_demand == pytest.approx(template.initial_demand * us_share)


# --------------------------------------------------------------------- routing
def router_topology():
    return GeoTopology(
        regions=(
            RegionSpec(name="a", fleet=fleet_from_counts({"a100": 2}), rtt_s=0.01),
            RegionSpec(name="b", fleet=fleet_from_counts({"a100": 2}), rtt_s=0.02),
            RegionSpec(name="c", fleet=fleet_from_counts({"a100": 2}), rtt_s=0.03),
        )
    )


def test_router_prefers_origin_until_threshold():
    topology = router_topology()
    router = GeoRouter(topology, spill_threshold=2.0)
    origin = topology.region("a")
    decisions = [router.route(origin) for _ in range(4)]
    assert all(d.region == "a" and not d.spilled for d in decisions)
    assert all(d.network_delay_s == pytest.approx(0.01) for d in decisions)
    # backlog/capacity = 4/2 == threshold: still not strictly above, no spill.
    assert router.route(origin).region == "a"
    # One more pushes the origin over; the spill pays both round-trips.
    spilled = router.route(origin)
    assert spilled.spilled and spilled.region != "a"
    assert spilled.network_delay_s == pytest.approx(
        0.01 + topology.region(spilled.region).rtt_s
    )
    assert router.spilled == 1


def test_router_spill_target_is_deterministic_and_rtt_penalised():
    topology = router_topology()
    # With no rtt penalty the emptiest region wins; ties break canonical order.
    router = GeoRouter(topology, spill_threshold=0.5, rtt_penalty=0.0)
    for _ in range(2):
        router.route(topology.region("a"))
    assert router.route(topology.region("a")).region == "b"  # b/c tie -> canonical
    # A large penalty keeps even an overloaded origin local.
    expensive = GeoRouter(topology, spill_threshold=0.5, rtt_penalty=1e6)
    for _ in range(2):
        expensive.route(topology.region("a"))
    assert not expensive.route(topology.region("a")).spilled


def test_router_observe_shrinks_backlog():
    topology = router_topology()
    router = GeoRouter(topology, spill_threshold=1.0)
    origin = topology.region("a")
    for _ in range(3):
        router.route(origin)
    assert router.loads["a"].backlog == 3
    router.observe("a", completed=2, dropped=1)
    assert router.loads["a"].backlog == 0
    assert not router.route(origin).spilled


def test_router_rejects_bad_tuning():
    with pytest.raises(ValueError):
        GeoRouter(router_topology(), spill_threshold=0.0)
    with pytest.raises(ValueError):
        GeoRouter(router_topology(), rtt_penalty=-1.0)


# -------------------------------------------------------------------- topology
def test_topology_is_canonically_ordered_and_validated():
    topology = two_region_topology()
    assert topology.names == ("eu", "us")
    assert topology.total_workers == 8
    assert topology.region("us").weight == 1.2
    with pytest.raises(KeyError):
        topology.region("mars")
    with pytest.raises(ValueError):
        GeoTopology(regions=())
    with pytest.raises(ValueError):
        GeoTopology(regions=(topology.regions[0], topology.regions[0]))
    with pytest.raises(ValueError):
        RegionSpec(name="x", fleet=fleet_from_counts({"a100": 1}), rtt_s=-0.1)
    with pytest.raises(ValueError):
        RegionSpec(name="x", fleet=fleet_from_counts({"a100": 1}), weight=0.0)


def test_topology_token_is_order_independent():
    a, b = two_region_topology().regions
    assert GeoTopology(regions=(a, b)).token() == GeoTopology(regions=(b, a)).token()


def test_catalog_topologies_are_well_formed():
    for name in ("single", "us-eu", "global-4", "global-8"):
        topology = GEO.lookup(name)
        assert topology.total_workers > 0
        assert topology.total_capacity_units > 0
    assert len(GEO_TOPOLOGIES["global-8"]) == 8
    with pytest.raises(KeyError):
        GEO.lookup("atlantis")


def test_parse_geo_catalog_json_and_errors():
    assert GEO.parse(None) is None
    assert GEO.parse("  ") is None
    assert GEO.parse("us-eu") is GEO.lookup("us-eu")
    parsed = GEO.parse(
        '{"us": {"fleet": {"a100": 4}, "rtt_ms": 15}, "eu": {"fleet": {"l4": 8}, "weight": 0.5}}'
    )
    assert parsed.names == ("eu", "us")
    assert parsed.region("us").rtt_s == pytest.approx(0.015)
    assert parsed.region("eu").weight == 0.5
    for bad in (
        "atlantis",
        "{not json",
        "[]",
        '{"us": 3}',
        '{"us": {"fleet": {}}}',
        '{"us": {"fleet": {"a100": 4}, "color": "red"}}',
        '{"us": {"fleet": {"a100": 4}, "rtt_ms": true}}',
        '{"us": {"fleet": {"warp-drive": 4}}}',
        '{"us": {"fleet": {"a100": 4}}, "us": {"fleet": {"l4": 8}}}',
    ):
        with pytest.raises(ValueError):
            GEO.parse(bad)


def test_sample_origins_deterministic_and_weighted():
    topology = two_region_topology()
    rng_a = np.random.default_rng(11)
    rng_b = np.random.default_rng(11)
    a = sample_origins(topology, 2000, rng_a)
    b = sample_origins(topology, 2000, rng_b)
    assert np.array_equal(a, b)
    # us (index 1 in canonical eu/us order) carries weight 1.2 of 2.2.
    assert a.mean() == pytest.approx(1.2 / 2.2, abs=0.05)
    single = GeoTopology(regions=(two_region_topology().regions[0],))
    assert np.array_equal(sample_origins(single, 5, rng_a), np.zeros(5))


# -------------------------------------------------------------- column merging
def _random_rows(Row, rng, n, start_id=0):
    from repro.core.query import Query, QueryStage

    rows = []
    for i in range(n):
        query = Query(
            query_id=start_id + i,
            arrival_time=float(rng.uniform(0, 100)),
            prompt=f"p{start_id + i}",
            difficulty=float(rng.uniform(0, 1)),
            slo=4.0,
        )
        dropped = bool(rng.uniform() < 0.2)
        stage = (
            QueryStage.DROPPED
            if dropped
            else (QueryStage.LIGHT if rng.uniform() < 0.7 else QueryStage.HEAVY)
        )
        rows.append(
            Row(
                query=query,
                stage=stage,
                completion_time=(
                    None if dropped else query.arrival_time + float(rng.uniform(0.1, 3.0))
                ),
                quality=None if dropped else float(rng.uniform(0, 1)),
                confidence=float(rng.uniform(0, 1)),
                deferred=stage == QueryStage.HEAVY,
                features=None if dropped else rng.normal(size=4),
            )
        )
    return rows


def test_column_store_concat_matches_from_records(row_recorder):
    rng = np.random.default_rng(5)
    build = row_recorder.columns_from_rows
    chunks = [
        _random_rows(row_recorder.Row, rng, n, start_id=s)
        for n, s in ((7, 0), (0, 7), (13, 7), (4, 20))
    ]
    whole = build([r for chunk in chunks for r in chunk], 4)
    merged = ColumnStore.concat([build(c, 4) for c in chunks], 4)
    assert len(merged) == len(whole)
    for column in ("arrival", "deadline", "completion", "quality", "confidence"):
        assert np.array_equal(getattr(merged, column), getattr(whole, column), equal_nan=True)
    assert np.array_equal(merged.stage, whole.stage)
    assert np.array_equal(merged.deferred, whole.deferred)
    assert np.array_equal(merged.feature_index, whole.feature_index)
    assert np.array_equal(merged.features, whole.features)


def test_column_store_concat_empty_and_single(row_recorder):
    empty = ColumnStore.concat([], 4)
    assert len(empty) == 0 and empty.features.shape == (0, 4)
    # The same empty columns, dtypes included, as a store built from no rows.
    oracle = row_recorder.columns_from_rows([], 4)
    for column in dataclasses.fields(ColumnStore):
        assert getattr(empty, column.name).dtype == getattr(oracle, column.name).dtype, column.name
    rng = np.random.default_rng(6)
    one = row_recorder.columns_from_rows(_random_rows(row_recorder.Row, rng, 3), 4)
    assert ColumnStore.concat([one], 4) is one


# ------------------------------------------------------------------ validation
def test_supervisor_rejects_bad_configs():
    with pytest.raises(ValueError):
        ShardSupervisor(template=small_system(), topology=two_region_topology(), shards=0)
    slow = GeoTopology(
        regions=(
            RegionSpec(name="moon", fleet=fleet_from_counts({"a100": 2}), rtt_s=30.0),
        )
    )
    with pytest.raises(ValueError):
        ShardSupervisor(template=small_system(), topology=slow)


def test_default_shards_is_sane():
    assert 1 <= default_shards() <= 8


# ------------------------------------------------------------- shard timing
@pytest.mark.xdist_group("sharding-determinism")
def test_supervisor_records_per_shard_timing():
    """Each region reports event-loop telemetry; none of it leaks into summaries."""
    supervisor = ShardSupervisor(
        template=small_system(), topology=two_region_topology(), shards=1
    )
    merged = supervisor.run(small_workload())
    assert set(supervisor.shard_timing) == {"eu", "us"}
    for timing in supervisor.shard_timing.values():
        assert timing["events_fired"] > 0
        assert timing["advance_seconds"] >= 0.0
    assert supervisor.barrier_seconds >= 0.0
    # Wall-clock telemetry never enters the merged (cacheable) summary.
    summary = merged.summary()
    assert "events_fired" not in summary
    assert "advance_seconds" not in summary


@pytest.mark.xdist_group("sharding-determinism")
def test_shard_event_counts_are_deterministic_across_shard_counts():
    """events_fired is simulator state, so it must not depend on the process
    packing — only advance_seconds (wall clock) may differ."""
    counts = []
    for shards in (1, 2):
        supervisor = ShardSupervisor(
            template=small_system(), topology=two_region_topology(), shards=shards
        )
        supervisor.run(small_workload())
        counts.append(
            {name: t["events_fired"] for name, t in supervisor.shard_timing.items()}
        )
    assert counts[0] == counts[1]


def test_shard_timing_report_renders_region_rows():
    from repro.experiments.harness import ExperimentScale
    from repro.experiments.studies import shard_timing_report
    from repro.runner.dimensions import DIMENSIONS

    report = shard_timing_report(
        scale=ExperimentScale(dataset_size=60, trace_duration=20.0, num_workers=4),
        duration=15.0,
    )
    assert "Shard event-loop timing" in report
    assert "barrier wait" in report
    regions = [region.name for region in DIMENSIONS["geo"].lookup("us-eu").regions]
    assert sorted(regions) == ["eu-west", "us-east"]
    for region in regions:
        assert f"\n{region} " in report


# ------------------------------------------------------------- dead shards
def test_dead_shard_surfaces_one_line_error_instead_of_hanging():
    """A shard worker dying mid-epoch must fail fast with a named error.

    Before the liveness check, the supervisor's blocking ``recv`` would hang
    forever on the dead worker's pipe; now every pipe read polls with a short
    timeout and raises a one-line error naming the dead shard's regions and
    exit code.
    """
    from repro.core.sharding import _ProcessShard

    shard = _ProcessShard.start_all([{"us": small_system(), "eu": small_system()}])[0]
    try:
        shard._process.terminate()
        shard._process.join(timeout=30)
        assert not shard._process.is_alive()
        # Depending on timing the dead worker surfaces either as a liveness
        # failure ("died (exit code N)") or as a closed pipe — both are the
        # same one-line error shape naming the shard's regions and the verb.
        with pytest.raises(
            RuntimeError,
            match=r"shard worker for region\(s\) us, eu "
            r"(died \(exit code -?\d+\)|closed its pipe) "
            r"while the supervisor waited for 'stats'",
        ):
            shard.collect_stats()
    finally:
        shard._conn.close()
        shard._process.join(timeout=30)


def test_worker_killed_with_init_unread_surfaces_one_line_error():
    """A worker that dies before reading its ``init`` resets the pipe; that
    surfaces as the same one-line error, not a bare ConnectionResetError."""
    from repro.core.sharding import _ProcessShard

    shard = _ProcessShard.__new__(_ProcessShard)
    shard._spawn({"us": None}, [])
    try:
        shard._conn.send(("init", {"us": None}))
        shard._process.terminate()
        shard._process.join(timeout=30)
        assert not shard._process.is_alive()
        with pytest.raises(
            RuntimeError,
            match=r"shard worker for region\(s\) us "
            r"(died \(exit code -?\d+\)|closed its pipe) "
            r"while the supervisor waited for 'ready'",
        ):
            shard._expect("ready")
    finally:
        shard._conn.close()


class _DiesAtInit:
    """Pickles fine in the supervisor; unpickling it in the worker raises, so
    the worker dies while decoding its ``init`` message."""

    def __reduce__(self):
        return (int, ("not a system",))


def test_failed_start_closes_every_launched_shard(monkeypatch):
    """The second shard dying at ``init`` fails the run with a one-line error
    naming its regions, and the first, already launched shard is closed and
    joined rather than leaked."""
    topology = two_region_topology()
    doomed = topology.names[1]  # round-robin: the second shard's only region

    def poisoned(template, topology):
        systems = build_region_systems(template, topology)
        systems[doomed] = _DiesAtInit()
        return systems

    monkeypatch.setattr(sharding, "build_region_systems", poisoned)
    supervisor = ShardSupervisor(template=small_system(), topology=topology, shards=2)
    # Children other tests left behind (e.g. a timed-out pool's stragglers
    # still exiting) are not this run's to reap.
    earlier = set(multiprocessing.active_children())
    with pytest.raises(
        RuntimeError,
        match=rf"shard worker for region\(s\) {doomed} "
        r"(died \(exit code -?\d+\)|closed its pipe) "
        r"while the supervisor waited for 'ready'$",
    ) as failure:
        supervisor.run(small_workload())
    assert "\n" not in str(failure.value)
    assert set(multiprocessing.active_children()) <= earlier


#: Starts a ``shards=2`` supervisor, prints its shard pids once both are
#: ready, then blocks until it is killed.
_SUPERVISOR_SCRIPT = """
    import json, time
    from repro.baselines.registry import build_system
    from repro.core import sharding
    from repro.core.config import FleetSpec, fleet_from_counts
    from repro.core.geo import GeoTopology, RegionSpec
    from repro.workloads import make_workload

    start_all = sharding._ProcessShard.start_all

    def announce(groups):
        shards = start_all(groups)
        print(json.dumps([shard._process.pid for shard in shards]), flush=True)
        time.sleep(600)

    sharding._ProcessShard.start_all = announce
    topology = GeoTopology(
        regions=tuple(
            RegionSpec(name=name, fleet=fleet_from_counts({"a100": 4}), rtt_s=rtt)
            for name, rtt in (("us", 0.01), ("eu", 0.02))
        )
    )
    template = build_system(fleet=FleetSpec.homogeneous(4), dataset_size=100, seed=3)
    sharding.ShardSupervisor(template=template, topology=topology, shards=2).run(
        make_workload("static", duration=40.0, qps=6.0, seed=3)
    )
"""


def _still_running(pids, marker: bytes) -> list:
    """The pids that are live (not zombie) processes whose command line
    carries ``marker`` or is a multiprocessing child's."""
    running = []
    for pid in pids:
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except (OSError, IndexError):
            continue
        if state not in "ZX" and (marker in cmdline or b"multiprocessing" in cmdline):
            running.append(pid)
    return running


def _describe(pids) -> str:
    """Each pid's ``/proc`` state and command line, for a failure message."""
    lines = []
    for pid in pids:
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes().replace(b"\0", b" ")
        except (OSError, IndexError) as exc:
            lines.append(f"pid {pid}: unreadable ({exc})")
            continue
        text = cmdline.decode(errors="replace")[:300]
        lines.append(f"pid {pid}: state {state}, cmdline {text!r}")
    return "; ".join(lines)


def _assert_children_die_with_their_parent(script: str, read_pids, marker: bytes) -> None:
    """Run ``script`` in a fresh interpreter, read its children's pids with
    ``read_pids(stdout)``, SIGKILL it, and assert that every child exits
    within 10 s.  Survivors are killed in cleanup.  A failure names its step
    (reading the pids, the children running before the kill, or survivors
    after it) and each child's ``/proc`` state and command line."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    parent = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(script)], env=env, stdout=subprocess.PIPE, text=True
    )
    pids = []
    try:
        try:
            pids = read_pids(parent.stdout)
        except ValueError as exc:
            pytest.fail(f"reading the children's pids: {exc!r}; parent exit code {parent.poll()}")
        assert len(pids) == 2, f"reading the children's pids: expected two, read {pids}"
        running = _still_running(pids, marker)
        assert sorted(running) == sorted(pids), (
            f"before the kill only {running} of {pids} run: {_describe(pids)}"
        )
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=30)
        deadline = time.monotonic() + 10.0
        while _still_running(pids, marker) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = _still_running(pids, marker)
        assert survivors == [], (
            f"10 s after the parent's SIGKILL {survivors} still run: {_describe(survivors)}"
        )
    finally:
        parent.kill()
        parent.wait(timeout=30)
        parent.stdout.close()
        for pid in _still_running(pids, marker):
            os.kill(pid, signal.SIGKILL)


@pytest.mark.xdist_group("sharding-determinism")
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads process states from /proc")
def test_shards_exit_when_their_supervisor_is_killed():
    """A shard learns of its supervisor's death only as EOF on its pipe.  A
    forked shard inherits copies of the supervisor's pipe ends (its own and
    those of the shards started before it); unless it closes them, a
    SIGKILLed supervisor leaves every shard blocked in ``recv`` forever."""
    _assert_children_die_with_their_parent(
        _SUPERVISOR_SCRIPT, lambda out: json.loads(out.readline()), b"announce(groups)"
    )


#: Runs a two-cell grid on two pool workers whose cells hang; each worker
#: prints its pid once its cell has started.
_POOL_SCRIPT = """
    import os, time
    from repro.experiments.harness import ExperimentScale
    from repro.runner import executor
    from repro.runner.spec import ExperimentGrid

    def hang_in_cell(spec, cache):
        os.write(1, f"{os.getpid()}\\n".encode())
        time.sleep(600)

    executor.run_cell = hang_in_cell
    scale = ExperimentScale(dataset_size=60, trace_duration=10.0, num_workers=2)
    executor.run_grid(
        ExperimentGrid.product(base_scale=scale, seeds=(0, 1), systems=("diffserve",)),
        jobs=2,
        use_cache=False,
    )
"""


@pytest.mark.xdist_group("sharding-determinism")
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads process states from /proc")
def test_pool_workers_exit_when_their_parent_is_killed():
    """A pool worker waits for work on the call queue, and it holds a write
    end of that queue itself, so a SIGKILLed ``run_grid`` process never
    shows it EOF there.  Each worker watches a pipe whose write end only
    its parent holds, and exits at EOF, even in the middle of a cell."""
    _assert_children_die_with_their_parent(
        _POOL_SCRIPT,
        lambda out: [int(out.readline()) for _ in range(2)],
        b"hang_in_cell",
    )


@pytest.mark.xdist_group("sharding-determinism")
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="shards inherit their parent's modules only where they fork",
)
def test_shard_imports_no_module_before_ready(monkeypatch, tmp_path):
    """A forked shard starts with every module its supervisor has imported,
    so decoding its ``init`` and building its runtimes imports nothing new.
    (A spawned shard imported the whole package before its ``ready``.)  The
    forked child inherits this test's patch, which records the child's
    ``sys.modules`` once its runtime is built."""
    seen = tmp_path / "modules.json"
    build = sharding.RegionRuntime

    def recording_runtime(system):
        runtime = build(system)
        seen.write_text(json.dumps(sorted(sys.modules)))
        return runtime

    monkeypatch.setattr(sharding, "RegionRuntime", recording_runtime)
    sharding._close_all(sharding._ProcessShard.start_all([{"us": small_system()}]))
    assert sorted(set(json.loads(seen.read_text())) - set(sys.modules)) == []


def _record_shard_lifecycle(monkeypatch) -> list:
    """Record every process shard's lifecycle steps, in call order.

    Pipe reads are recorded by the verb awaited (``ready``, ``stats``,
    ``result``); the other steps by method name.
    """
    from repro.core.sharding import _ProcessShard

    calls = []
    for name in ("_spawn", "_expect", "begin_finish", "begin_close", "join"):

        def recorded(self, *args, _name=name, _original=getattr(_ProcessShard, name)):
            calls.append(args[0] if _name == "_expect" else _name)
            return _original(self, *args)

        monkeypatch.setattr(_ProcessShard, name, recorded)
    return calls


@pytest.mark.xdist_group("sharding-determinism")
@pytest.mark.parametrize("shards", [2, 4])
def test_shards_start_finish_and_close_together(monkeypatch, shards):
    """Each lifecycle phase reaches every shard before it waits on any one:
    all processes spawn before the first ``ready`` is awaited, every
    ``finish`` is sent before the first result is read, and every ``close``
    is sent before the first join.  The summary still equals the inline run's
    byte for byte."""
    topology = GeoTopology(
        regions=tuple(
            RegionSpec(name=name, fleet=fleet_from_counts({"a100": 3}), rtt_s=rtt)
            for name, rtt in (("us", 0.01), ("eu", 0.02), ("ap", 0.03), ("sa", 0.04))
        )
    )
    reference = run_sharded(small_system(), small_workload(), topology=topology, shards=1)
    calls = _record_shard_lifecycle(monkeypatch)
    sharded = run_sharded(small_system(), small_workload(), topology=topology, shards=shards)

    def at(step):
        return [i for i, call in enumerate(calls) if call == step]

    assert len(at("_spawn")) == len(at("ready")) == len(at("join")) == shards
    assert max(at("_spawn")) < min(at("ready"))
    assert max(at("ready")) < min(at("stats"))
    assert max(at("begin_finish")) < min(at("result"))
    assert max(at("begin_close")) < min(at("join"))
    assert canonical_summaries_json({"s": sharded.summary()}) == canonical_summaries_json(
        {"s": reference.summary()}
    )
