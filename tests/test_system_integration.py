"""Integration tests: full serving simulations of DiffServe and the baselines."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.baselines.registry import (
    SYSTEMS,
    baseline_table_rows,
    build_system,
    render_baseline_table,
)
from repro.core.config import FleetSpec
from repro.core.query import Query, QueryStage
from repro.core.results import STAGE_CODES
from repro.traces.azure import azure_functions_like_rate
from repro.traces.base import ArrivalTrace
from repro.traces.synthetic import static_rate


@pytest.fixture(scope="module")
def short_trace():
    curve = azure_functions_like_rate(4, 24, duration=120, seed=0)
    return curve, ArrivalTrace.from_rate_curve(curve, np.random.default_rng(0))


@pytest.fixture(scope="module")
def diffserve_result(coco_dataset_module, trained_discriminator_module, short_trace):
    _, trace = short_trace
    system = build_system(
        "sdturbo",
        fleet=FleetSpec.homogeneous(16),
        dataset=coco_dataset_module,
        discriminator=trained_discriminator_module,
        seed=0,
    )
    return system.run(trace)


# Re-expose session fixtures under module-friendly names.
@pytest.fixture(scope="module")
def coco_dataset_module(request):
    return request.getfixturevalue("coco_dataset")


@pytest.fixture(scope="module")
def trained_discriminator_module(request):
    return request.getfixturevalue("trained_discriminator")


def test_diffserve_serves_every_query(diffserve_result, short_trace):
    _, trace = short_trace
    assert diffserve_result.total_queries == len(trace)
    completed = int(diffserve_result.cols.completed.sum())
    assert completed + diffserve_result.dropped_count == len(trace)
    assert completed > 0.9 * len(trace)


def test_diffserve_keeps_slo_violations_low(diffserve_result):
    assert diffserve_result.slo_violation_ratio < 0.10


def test_diffserve_uses_both_models(diffserve_result):
    cols = diffserve_result.cols
    stages = set(cols.stage[cols.completed].tolist())
    assert STAGE_CODES[QueryStage.LIGHT] in stages and STAGE_CODES[QueryStage.HEAVY] in stages
    assert 0.05 < diffserve_result.deferral_rate < 0.95


def test_diffserve_latencies_bounded_by_slo_plus_margin(diffserve_result):
    stats = diffserve_result.latency_stats()
    assert stats.maximum <= diffserve_result.slo * 1.5
    assert stats.mean < diffserve_result.slo


def test_diffserve_controller_adapts_threshold(diffserve_result):
    _, thresholds = diffserve_result.threshold_timeseries()
    assert len(thresholds) > 5
    assert thresholds.max() - thresholds.min() > 0.1  # it actually moved


def test_diffserve_result_summary_and_timeseries(diffserve_result):
    summary = diffserve_result.summary()
    for key in ("fid", "slo_violation_ratio", "deferral_rate", "mean_latency"):
        assert key in summary
    centers, fid = diffserve_result.fid_timeseries(window=30.0)
    assert len(centers) == len(fid) > 0
    centers, viol = diffserve_result.violation_timeseries(window=30.0)
    assert np.all((viol >= 0) & (viol <= 1))
    centers, demand = diffserve_result.demand_timeseries(window=30.0)
    assert demand.max() > demand.min()


def test_simulation_is_reproducible(coco_dataset_module, trained_discriminator_module):
    curve = static_rate(10.0, 60.0)
    trace = ArrivalTrace.from_rate_curve(curve, np.random.default_rng(3))

    def run_once():
        system = build_system(
            "sdturbo",
            fleet=FleetSpec.homogeneous(8),
            dataset=coco_dataset_module,
            discriminator=trained_discriminator_module,
            seed=5,
        )
        return system.run(trace)

    a, b = run_once(), run_once()
    assert a.fid() == pytest.approx(b.fid())
    assert a.slo_violation_ratio == pytest.approx(b.slo_violation_ratio)
    assert a.deferral_rate == pytest.approx(b.deferral_rate)


def test_a_finished_result_holds_no_query(coco_dataset_module, trained_discriminator_module):
    """A result holds its rows as columns only: with the cyclic GC off, no
    ``Query`` of the run is alive while the result is, and the result's
    column arrays die with it.

    The finished runtime (simulator, actors, collector) is a web of
    reference cycles only the cyclic collector frees; what the result holds
    must not wait for it.
    """
    trace = ArrivalTrace.from_rate_curve(static_rate(10.0, 30.0), np.random.default_rng(1))
    system = build_system(
        "sdturbo",
        "diffserve-static",
        fleet=FleetSpec.homogeneous(4),
        dataset=coco_dataset_module,
        discriminator=trained_discriminator_module,
        anticipated_peak_qps=10.0,
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        # Queries other tests left alive are held here, so their ids stay theirs.
        earlier = [obj for obj in gc.get_objects() if isinstance(obj, Query)]
        known = {id(obj) for obj in earlier}
        result = system.run(trace)
        assert len(result.cols) == len(trace.arrival_times) > 0
        alive = [obj for obj in gc.get_objects() if isinstance(obj, Query) and id(obj) not in known]
        assert alive == []
        refs = [weakref.ref(getattr(result.cols, f.name)) for f in dataclasses.fields(result.cols)]
        del result
        assert sum(ref() is not None for ref in refs) == 0
    finally:
        if enabled:
            gc.enable()


# -------------------------------------------------------------------- baselines
def test_clipper_light_never_defers(coco_dataset_module, short_trace, row_recorder):
    _, trace = short_trace
    system = build_system("sdturbo", "clipper-light", dataset=coco_dataset_module)
    result = system.run(trace)
    assert result.deferral_rate == 0.0
    assert result.slo_violation_ratio < 0.02
    assert len(row_recorder.rows) == result.total_queries
    assert all(r.model_used == "sd-turbo" for r in row_recorder.completed())


def test_clipper_heavy_overloads_at_peak(coco_dataset_module, short_trace, row_recorder):
    _, trace = short_trace
    system = build_system("sdturbo", "clipper-heavy", dataset=coco_dataset_module)
    result = system.run(trace)
    assert len(row_recorder.rows) == result.total_queries
    assert all(r.model_used == "sd-v1.5" for r in row_recorder.completed())
    assert result.slo_violation_ratio > 0.2


def test_clipper_quality_ordering(coco_dataset_module, short_trace):
    _, trace = short_trace
    light = build_system("sdturbo", "clipper-light", dataset=coco_dataset_module).run(trace)
    heavy = build_system("sdturbo", "clipper-heavy", dataset=coco_dataset_module).run(trace)
    assert heavy.fid() < light.fid()
    with pytest.raises(ValueError):
        build_system("sdturbo", "clipper-medium")


def test_proteus_uses_multiple_variants_query_agnostically(
    coco_dataset_module, short_trace, row_recorder
):
    _, trace = short_trace
    system = build_system("sdturbo", "proteus", dataset=coco_dataset_module)
    result = system.run(trace)
    used = {r.model_used for r in row_recorder.completed()}
    assert len(used) >= 2  # light + a more accurate variant
    assert result.slo_violation_ratio < 0.15


def test_diffserve_static_is_query_aware_but_not_adaptive(
    coco_dataset_module, trained_discriminator_module, short_trace
):
    curve, trace = short_trace
    system = build_system(
        "sdturbo",
        "diffserve-static",
        anticipated_peak_qps=0.8 * curve.peak,
        dataset=coco_dataset_module,
        discriminator=trained_discriminator_module,
    )
    result = system.run(trace)
    # Static: exactly one controller decision (no re-planning).
    assert len(result.control_history) == 1
    assert result.deferral_rate > 0.05


def test_diffserve_beats_baselines_on_quality(
    coco_dataset_module, trained_discriminator_module, short_trace, diffserve_result
):
    _, trace = short_trace
    light = build_system("sdturbo", "clipper-light", dataset=coco_dataset_module).run(trace)
    proteus = build_system("sdturbo", "proteus", dataset=coco_dataset_module).run(trace)
    assert diffserve_result.fid() < light.fid()
    assert diffserve_result.fid() < proteus.fid() + 0.3


def test_baseline_registry_matches_table1():
    assert set(SYSTEMS) == {
        "clipper-light",
        "clipper-heavy",
        "proteus",
        "diffserve-static",
        "diffserve",
    }
    rows = baseline_table_rows()
    as_dict = {name: (alloc, aware) for name, alloc, aware in rows}
    assert as_dict["Clipper-Light"] == ("Static", "No")
    assert as_dict["Proteus"] == ("Dynamic", "No")
    assert as_dict["DiffServe-Static"] == ("Static", "Yes")
    assert as_dict["DiffServe"] == ("Dynamic", "Yes")
    text = render_baseline_table()
    assert "Approach" in text and "DiffServe" in text
