"""Tests for core building blocks: queries, demand estimation, queueing models
and configuration."""

import numpy as np
import pytest

from repro.core.config import FleetSpec, RoutingMode, SystemConfig
from repro.core.demand import DemandEstimator
from repro.core.query import Query, QueryStage
from repro.core.queueing import LittlesLawModel, TwoXExecutionModel
from repro.core.results import STAGE_CODES, ColumnStore
from repro.models.zoo import get_cascade


# ----------------------------------------------------------------------- query
def test_query_deadline_and_validation():
    q = Query(query_id=0, arrival_time=2.0, prompt="a dog", difficulty=0.3, slo=5.0)
    assert q.deadline == pytest.approx(7.0)
    with pytest.raises(ValueError):
        Query(query_id=0, arrival_time=-1.0, prompt="", difficulty=0.3, slo=5.0)
    with pytest.raises(ValueError):
        Query(query_id=0, arrival_time=0.0, prompt="", difficulty=1.3, slo=5.0)
    with pytest.raises(ValueError):
        Query(query_id=0, arrival_time=0.0, prompt="", difficulty=0.3, slo=0.0)


def test_column_store_latency_and_violation():
    """Rows: on time, late, dropped, and completed exactly at the deadline,
    which is on time (a violation is ``completion > deadline``)."""
    light, heavy, dropped = (
        STAGE_CODES[QueryStage.LIGHT],
        STAGE_CODES[QueryStage.HEAVY],
        STAGE_CODES[QueryStage.DROPPED],
    )
    cols = ColumnStore(
        arrival=np.array([1.0, 1.0, 1.0, 1.0]),
        deadline=np.array([3.0, 3.0, 3.0, 3.0]),
        completion=np.array([2.5, 4.0, np.nan, 3.0]),
        stage=np.array([light, heavy, dropped, light], dtype=np.int8),
        quality=np.full(4, np.nan),
        confidence=np.full(4, np.nan),
        deferred=np.array([False, True, False, False]),
        retries=np.zeros(4, dtype=np.int32),
        features=np.zeros((0, 2)),
        feature_index=np.zeros(0, dtype=np.int64),
    )
    np.testing.assert_array_equal(cols.latency, [1.5, 3.0, np.nan, 2.0])
    assert cols.violated.tolist() == [False, True, True, False]
    assert cols.dropped.tolist() == [False, False, True, False]
    assert cols.completed.tolist() == [True, True, False, True]


# ---------------------------------------------------------------------- demand
def test_demand_estimator_ewma_behaviour():
    est = DemandEstimator(alpha=0.5, initial=0.0)
    assert est.estimate == 0.0
    est.observe(100, 10.0)  # 10 QPS
    assert est.estimate == pytest.approx(10.0)
    est.observe(0, 10.0)
    assert est.estimate == pytest.approx(5.0)


def test_demand_estimator_converges_to_constant_rate():
    est = DemandEstimator(alpha=0.3)
    for _ in range(30):
        est.observe(80, 10.0)
    assert est.estimate == pytest.approx(8.0, rel=1e-3)


def test_demand_estimator_validation():
    with pytest.raises(ValueError):
        DemandEstimator(alpha=0.0)
    est = DemandEstimator()
    with pytest.raises(ValueError):
        est.observe(-1, 10.0)
    with pytest.raises(ValueError):
        est.observe(1, 0.0)


# -------------------------------------------------------------------- queueing
def test_littles_law_waiting_time():
    model = LittlesLawModel()
    # 20 queued queries at 10 QPS -> 2 seconds of queueing.
    assert model.waiting_time(20, 10.0, 1.0) == pytest.approx(2.0)
    # Empty queue still waits for the in-flight batch on average.
    assert model.waiting_time(0, 10.0, 1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        model.waiting_time(-1, 10.0, 1.0)


def test_littles_law_floor_is_half_a_batch_execution():
    """Regression: the floor is the *residual* of the in-flight batch.

    The in-flight batch is on average halfway done, matching the Load
    Balancer's heavy-completion estimate (Section 3.3) — not a full batch
    execution, which would double-count the residual service time.
    """
    model = LittlesLawModel()
    for execution in (0.1, 1.0, 4.0):
        # The floor binds whenever Little's law predicts less than half a batch.
        assert model.waiting_time(0, 100.0, execution) == pytest.approx(execution / 2.0)
        assert model.waiting_time(1, 1000.0, execution) == pytest.approx(execution / 2.0)
    # Above the floor, Little's law wins untouched.
    assert model.waiting_time(10, 2.0, 1.0) == pytest.approx(5.0)


def test_two_x_execution_heuristic():
    model = TwoXExecutionModel()
    assert model.waiting_time(100, 1.0, 3.0) == pytest.approx(6.0)
    assert TwoXExecutionModel(multiplier=0.0).waiting_time(5, 1.0, 3.0) == 0.0


def test_queueing_models_diverge_under_load():
    """Little's law sees the backlog; the 2x heuristic does not (Section 4.5)."""
    littles = LittlesLawModel()
    heuristic = TwoXExecutionModel()
    execution = 2.0
    assert littles.waiting_time(100, 5.0, execution) > heuristic.waiting_time(
        100, 5.0, execution
    )


# --------------------------------------------------------------------- config
def test_system_config_defaults_and_validation():
    cascade = get_cascade("sdturbo")
    config = SystemConfig(cascade=cascade)
    assert config.slo == cascade.slo
    assert config.routing == RoutingMode.CASCADE
    with pytest.raises(ValueError):
        SystemConfig(cascade=cascade, fleet=FleetSpec.homogeneous(0))
    with pytest.raises(ValueError):
        SystemConfig(cascade=cascade, slo=-1.0)
