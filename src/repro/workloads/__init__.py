"""Workload scenario engine: arrival processes behind one API.

See :mod:`repro.workloads.base` for the :class:`ArrivalProcess` abstraction,
:mod:`repro.workloads.processes` for the concrete scenarios and
:mod:`repro.workloads.catalog` for the named catalog the runner and CLI
resolve ``--workload`` against.
"""

from repro.workloads.base import ArrivalProcess, SplicedProcess, SuperposedProcess
from repro.workloads.catalog import (
    DEFAULT_QPS_RANGE,
    WORKLOAD_KINDS,
    WORKLOAD_PARAMS,
    cascade_qps_range,
    make_workload,
    scale_to_cluster,
    validate_workload,
)
from repro.workloads.processes import (
    DiurnalProcess,
    FlashCrowdProcess,
    MMPPProcess,
    PoissonProcess,
    TraceReplayProcess,
)

__all__ = [
    "ArrivalProcess",
    "SuperposedProcess",
    "SplicedProcess",
    "PoissonProcess",
    "MMPPProcess",
    "DiurnalProcess",
    "FlashCrowdProcess",
    "TraceReplayProcess",
    "DEFAULT_QPS_RANGE",
    "WORKLOAD_KINDS",
    "WORKLOAD_PARAMS",
    "make_workload",
    "validate_workload",
    "cascade_qps_range",
    "scale_to_cluster",
]
