"""Fault plans: deterministic, seed-driven failure scenarios.

A :class:`FaultPlan` is a *pure description* — a canonically-ordered tuple of
fault processes plus an optional :class:`RecoveryConfig` — that the runner can
hash into cache keys exactly like ``--resources``/``--fleet`` specs.  Nothing
in this module touches the simulator; :mod:`repro.faults.injector` turns a
plan into scheduled events at run time, sampling any stochastic fault (the
crash storm) from the simulation's named ``RandomStreams`` so that the same
seed + the same plan always produces byte-identical results.

``--faults`` takes a catalog name or the JSON form
(:meth:`FaultPlan.from_json`); the runner's grid-dimension registry
(:mod:`repro.runner.dimensions`) parses both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple, Type, Union

from repro.core.config import dataclass_from_json

__all__ = [
    "WorkerCrash",
    "SpotRevocation",
    "StragglerSlowdown",
    "BandwidthDegradation",
    "RegionPartition",
    "SolverTimeout",
    "CrashStorm",
    "RecoveryConfig",
    "FaultPlan",
    "FAULT_PLANS",
]


def _check_nonneg(name: str, value: float) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a number >= 0, got {value!r}")


def _check_pos(name: str, value: float) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
        raise ValueError(f"{name} must be a number > 0, got {value!r}")


def _check_index(name: str, value: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


# ------------------------------------------------------------------ fault kinds
@dataclass(frozen=True)
class WorkerCrash:
    """Worker ``worker`` dies at time ``at`` and never comes back.

    Worker indices wrap modulo the fleet size, so catalog plans stay valid
    for any worker count.
    """

    kind: ClassVar[str] = "crash"
    worker: int
    at: float

    def __post_init__(self) -> None:
        _check_index("crash.worker", self.worker)
        _check_nonneg("crash.at", self.at)

    def token(self) -> str:
        return f"crash(w{self.worker}@{self.at:g})"


@dataclass(frozen=True)
class SpotRevocation:
    """Spot-market preemption: a revocation *notice* at ``at``, the actual
    kill ``notice`` seconds later.  With recovery enabled the control plane
    uses the notice window to decommission the worker (drain, shrink,
    replan) before the kill; without it the notice is ignored."""

    kind: ClassVar[str] = "revocation"
    worker: int
    at: float
    notice: float = 2.0

    def __post_init__(self) -> None:
        _check_index("revocation.worker", self.worker)
        _check_nonneg("revocation.at", self.at)
        _check_nonneg("revocation.notice", self.notice)

    def token(self) -> str:
        return f"revoke(w{self.worker}@{self.at:g}+{self.notice:g})"


@dataclass(frozen=True)
class StragglerSlowdown:
    """Worker ``worker`` computes ``factor``x slower on [at, at+duration)."""

    kind: ClassVar[str] = "straggler"
    worker: int
    at: float
    duration: float
    factor: float = 4.0

    def __post_init__(self) -> None:
        _check_index("straggler.worker", self.worker)
        _check_nonneg("straggler.at", self.at)
        _check_pos("straggler.duration", self.duration)
        if not isinstance(self.factor, (int, float)) or self.factor <= 1.0:
            raise ValueError(f"straggler.factor must be > 1, got {self.factor!r}")

    def token(self) -> str:
        return f"straggler(w{self.worker}@{self.at:g}x{self.factor:g}for{self.duration:g})"


@dataclass(frozen=True)
class BandwidthDegradation:
    """Worker ``worker``'s transfer channel runs at 1/``factor`` capacity on
    [at, at+duration).  On the legacy (no ``--resources``) path the same
    window scales the fixed reload latency instead."""

    kind: ClassVar[str] = "bandwidth"
    worker: int
    at: float
    duration: float
    factor: float = 4.0

    def __post_init__(self) -> None:
        _check_index("bandwidth.worker", self.worker)
        _check_nonneg("bandwidth.at", self.at)
        _check_pos("bandwidth.duration", self.duration)
        if not isinstance(self.factor, (int, float)) or self.factor <= 1.0:
            raise ValueError(f"bandwidth.factor must be > 1, got {self.factor!r}")

    def token(self) -> str:
        return f"bandwidth(w{self.worker}@{self.at:g}/{self.factor:g}for{self.duration:g})"


@dataclass(frozen=True)
class RegionPartition:
    """Region ``region`` is network-partitioned on [at, at+duration): the geo
    router neither spills out of it nor into it.  Applied epoch-synchronously
    by the shard supervisor; a no-op for single-cluster runs."""

    kind: ClassVar[str] = "partition"
    region: str
    at: float
    duration: float

    def __post_init__(self) -> None:
        if not isinstance(self.region, str) or not self.region:
            raise ValueError(f"partition.region must be a non-empty string, got {self.region!r}")
        _check_nonneg("partition.at", self.at)
        _check_pos("partition.duration", self.duration)

    def token(self) -> str:
        return f"partition({self.region}@{self.at:g}for{self.duration:g})"


@dataclass(frozen=True)
class SolverTimeout:
    """MILP solves started on [at, at+duration) time out before their first
    solve and return infeasible — exercising the PlanStore last-known-good
    fallback.  A deterministic stand-in for wall-clock deadlines (which would
    make results machine-dependent)."""

    kind: ClassVar[str] = "solver-timeout"
    at: float
    duration: float

    def __post_init__(self) -> None:
        _check_nonneg("solver-timeout.at", self.at)
        _check_pos("solver-timeout.duration", self.duration)

    def token(self) -> str:
        return f"solver-timeout(@{self.at:g}for{self.duration:g})"


@dataclass(frozen=True)
class CrashStorm:
    """``count`` crashes at uniform times in [at, at+duration), targets and
    times drawn from the sim's ``faults`` random stream at injector start —
    stochastic across seeds, byte-identical for a fixed seed."""

    kind: ClassVar[str] = "crash-storm"
    count: int
    at: float
    duration: float

    def __post_init__(self) -> None:
        if isinstance(self.count, bool) or not isinstance(self.count, int) or self.count < 1:
            raise ValueError(f"crash-storm.count must be an integer >= 1, got {self.count!r}")
        _check_nonneg("crash-storm.at", self.at)
        _check_pos("crash-storm.duration", self.duration)

    def token(self) -> str:
        return f"crash-storm({self.count}@{self.at:g}for{self.duration:g})"


Fault = Union[
    WorkerCrash,
    SpotRevocation,
    StragglerSlowdown,
    BandwidthDegradation,
    RegionPartition,
    SolverTimeout,
    CrashStorm,
]

_FAULT_KINDS: Dict[str, Type] = {
    cls.kind: cls
    for cls in (
        WorkerCrash,
        SpotRevocation,
        StragglerSlowdown,
        BandwidthDegradation,
        RegionPartition,
        SolverTimeout,
        CrashStorm,
    )
}


# ---------------------------------------------------------------- recovery
@dataclass(frozen=True)
class RecoveryConfig:
    """Self-healing knobs.  ``FaultPlan.recovery=None`` disables the whole
    detection/requeue/replan loop (faults still fire; damage is unmitigated).

    * ``retry_budget`` — max requeues per query before it is dropped.
    * ``backoff_base`` — first retry delay; doubles per attempt.
    * ``heartbeat_period`` — failure-detector tick (crash detection latency).
    * ``straggler_threshold`` — quarantine workers whose slowdown exceeds it.
    """

    retry_budget: int = 2
    backoff_base: float = 0.25
    heartbeat_period: float = 1.0
    straggler_threshold: float = 2.0

    def __post_init__(self) -> None:
        if (
            isinstance(self.retry_budget, bool)
            or not isinstance(self.retry_budget, int)
            or self.retry_budget < 0
        ):
            raise ValueError(
                f"recovery.retry_budget must be an integer >= 0, got {self.retry_budget!r}"
            )
        _check_pos("recovery.backoff_base", self.backoff_base)
        _check_pos("recovery.heartbeat_period", self.heartbeat_period)
        _check_pos("recovery.straggler_threshold", self.straggler_threshold)

    def token(self) -> str:
        return (
            f"retry={self.retry_budget},backoff={self.backoff_base:g},"
            f"hb={self.heartbeat_period:g},slow={self.straggler_threshold:g}"
        )


# ---------------------------------------------------------------- fault plan
@dataclass(frozen=True)
class FaultPlan:
    """A canonically-ordered fault scenario plus its recovery posture.

    Faults sort by (start time, token) so equivalent spellings hash to one
    cache entry.  An empty fault tuple is legal (the "quiet" plan) — it still
    runs the heartbeat when recovery is on, which is exactly what the
    overhead benchmark measures.
    """

    faults: Tuple[Fault, ...] = ()
    recovery: Optional[RecoveryConfig] = field(default_factory=RecoveryConfig)

    def __post_init__(self) -> None:
        for entry in self.faults:
            if type(entry) not in _FAULT_KINDS.values():
                raise ValueError(f"fault plan entry {entry!r} is not a known fault")
        object.__setattr__(
            self, "faults", tuple(sorted(self.faults, key=lambda f: (f.at, f.token())))
        )

    def token(self) -> str:
        recovery = self.recovery.token() if self.recovery is not None else "off"
        body = ";".join(f.token() for f in self.faults) or "quiet"
        return f"recovery[{recovery}]|{body}"

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        """The ``--faults`` JSON form.

        Shape: ``{"faults": [{"kind": "crash", "worker": 0, "at": 10}, ...],
        "recovery": true | false | {"retry_budget": 2, ...}}`` (``recovery``
        defaults to on).  Every failure is a one-line :class:`ValueError`
        naming the offending key.
        """
        unknown = sorted(set(payload) - {"faults", "recovery"})
        if unknown:
            raise ValueError(
                f"--faults: unknown top-level key(s) {', '.join(unknown)}; "
                "allowed: faults, recovery"
            )
        raw_faults = payload.get("faults", [])
        if not isinstance(raw_faults, list):
            raise ValueError(f"--faults: 'faults' must be a list, got {raw_faults!r}")
        return cls(
            faults=tuple(_fault_from_json(i, entry) for i, entry in enumerate(raw_faults)),
            recovery=_recovery_from_json(payload.get("recovery", True)),
        )


def _fault_from_json(index: int, entry: object) -> Fault:
    if not isinstance(entry, dict):
        raise ValueError(f"faults[{index}] must be an object, got {entry!r}")
    spec = dict(entry)
    kind = spec.pop("kind", None)
    if kind not in _FAULT_KINDS:
        known = ", ".join(sorted(_FAULT_KINDS))
        raise ValueError(f"faults[{index}].kind {kind!r} is unknown; known kinds: {known}")
    return dataclass_from_json(_FAULT_KINDS[kind], spec, f"faults[{index}] ({kind})")


def _recovery_from_json(value: object) -> Optional[RecoveryConfig]:
    if value is None or value is False:
        return None
    if value is True:
        return RecoveryConfig()
    if not isinstance(value, dict):
        raise ValueError(f"recovery must be true/false/null or an object, got {value!r}")
    return dataclass_from_json(RecoveryConfig, value, "recovery")


def _storm_faults() -> Tuple[Fault, ...]:
    """Crash + straggler storm shared by the recovery-on/off catalog pair."""
    return (
        WorkerCrash(worker=1, at=6.0),
        WorkerCrash(worker=3, at=12.0),
        StragglerSlowdown(worker=0, at=5.0, duration=40.0, factor=6.0),
        StragglerSlowdown(worker=2, at=9.0, duration=40.0, factor=6.0),
    )


#: Named scenarios accepted by ``--faults`` (JSON is the escape hatch).
FAULT_PLANS: Dict[str, FaultPlan] = {
    "quiet": FaultPlan(faults=()),
    "crash": FaultPlan(faults=(WorkerCrash(worker=1, at=8.0),)),
    "crash-norecovery": FaultPlan(faults=(WorkerCrash(worker=1, at=8.0),), recovery=None),
    "storm": FaultPlan(faults=_storm_faults()),
    "storm-norecovery": FaultPlan(faults=_storm_faults(), recovery=None),
    "revocation": FaultPlan(faults=(SpotRevocation(worker=0, at=6.0, notice=3.0),)),
    "solver-timeout": FaultPlan(
        faults=(
            WorkerCrash(worker=1, at=6.0),
            SolverTimeout(at=0.0, duration=1e9),
        )
    ),
    "chaos": FaultPlan(
        faults=(
            CrashStorm(count=2, at=5.0, duration=20.0),
            StragglerSlowdown(worker=0, at=5.0, duration=30.0, factor=6.0),
            BandwidthDegradation(worker=2, at=5.0, duration=30.0, factor=8.0),
        )
    ),
}
