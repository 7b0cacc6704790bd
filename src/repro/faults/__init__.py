"""Deterministic fault injection and the self-healing control plane.

Split pure-description from runtime machinery:

* :mod:`repro.faults.plan` — fault/recovery dataclasses, the named-plan
  catalog, and the ``--faults`` JSON form (:meth:`FaultPlan.from_json`).
* :mod:`repro.faults.plan_store` — last-known-good plan fallback.
* :mod:`repro.faults.injector` — the simulation actor that fires the faults
  and runs the heartbeat/requeue/repair loop.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FAULT_PLANS,
    BandwidthDegradation,
    CrashStorm,
    FaultPlan,
    RecoveryConfig,
    RegionPartition,
    SolverTimeout,
    SpotRevocation,
    StragglerSlowdown,
    WorkerCrash,
)
from repro.faults.plan_store import PlanStore

__all__ = [
    "FAULT_PLANS",
    "BandwidthDegradation",
    "CrashStorm",
    "FaultInjector",
    "FaultPlan",
    "PlanStore",
    "RecoveryConfig",
    "RegionPartition",
    "SolverTimeout",
    "SpotRevocation",
    "StragglerSlowdown",
    "WorkerCrash",
]
