"""The result collector as a column writer, checked against recorded rows.

* Differential oracle: on real cells, the drained columns equal the columns
  built from the rows the collector was handed, one ``Row`` per call,
  column by column, dtypes and NaN positions included.
* ``result()`` closes the collector: no buffered rows outlive the run.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines.registry import build_system
from repro.core.config import FleetSpec
from repro.core.results import ColumnStore
from repro.core.system import ClientSource
from repro.runner.dimensions import DIMENSIONS
from repro.workloads import make_workload

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _assert_same_columns(expected: ColumnStore, actual: ColumnStore) -> None:
    for column in dataclasses.fields(ColumnStore):
        want, got = getattr(expected, column.name), getattr(actual, column.name)
        assert got.dtype == want.dtype, column.name
        assert got.shape == want.shape, column.name
        floats = want.dtype.kind == "f"
        assert np.array_equal(got, want, equal_nan=floats), column.name


def _cascade_cell():
    system = build_system("sdturbo", fleet=FleetSpec.homogeneous(2), dataset_size=60, seed=0)
    return system, make_workload("static", duration=30.0, qps=20.0, seed=0)


def _storm_cell():
    system = build_system(
        "sdturbo",
        fleet=FleetSpec.homogeneous(4),
        dataset_size=100,
        seed=3,
        replan_epoch=3.0,
        replan_policy="adaptive",
        faults=DIMENSIONS["faults"].lookup("storm"),
    )
    return system, make_workload("static", duration=40.0, qps=6.0, seed=3)


@pytest.mark.parametrize("cell", [_cascade_cell, _storm_cell], ids=["cascade", "storm"])
def test_drained_columns_match_the_record_path(row_recorder, cell):
    system, workload = cell()
    result = system.run(workload)
    cols = result.cols

    assert len(row_recorder.rows) == len(cols) > 0
    assert cols.dropped.any() and cols.deferred.any()
    if cell is _storm_cell:
        assert cols.retries.any()
    _assert_same_columns(row_recorder.columns(system.dataset.real_features.shape[1]), cols)


def test_result_closes_the_collector():
    system, workload = _cascade_cell()
    runtime = system.prepare()
    ClientSource(runtime.sim, workload, system.dataset, runtime.load_balancer, system.config.slo)
    horizon = system.horizon(workload)
    runtime.sim.run(until=horizon)
    collector = runtime.collector
    assert len(collector) > 0

    result = runtime.result(horizon)

    assert len(collector) == 0
    total = collector.completed_count + collector.dropped_count
    assert len(result.cols) == total
