"""Workload catalog: named arrival-process kinds behind one constructor.

:func:`make_workload` turns a scenario name plus a small dict of float
parameters into an :class:`~repro.workloads.base.ArrivalProcess`.  Every kind
accepts a *nominal* rate (``qps``): ``static``, ``mmpp`` and ``diurnal`` hold
their mean offered load at it, so a sweep can vary the workload *shape* at
fixed average demand — exactly the comparison the evaluation needs.
``flash-crowd`` treats it as the base load and layers the spike on top as
extra demand, and ``azure`` rescales its replay range around it.

The catalog is what the grid runner and the CLI (``repro run --workload``)
resolve against; parameters arrive as ``key=value`` floats so workload
scenarios hash into experiment cache keys like any other grid dimension.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.workloads.base import ArrivalProcess
from repro.workloads.processes import (
    DiurnalProcess,
    FlashCrowdProcess,
    MMPPProcess,
    PoissonProcess,
    TraceReplayProcess,
)

#: Default QPS ranges used per cascade (matching the artifact's trace files
#: for a 16-worker cluster).  The trace-replay workload uses the full range;
#: the other kinds default their nominal mean rate to the range midpoint.
DEFAULT_QPS_RANGE: Dict[str, Tuple[float, float]] = {
    "sdturbo": (4.0, 32.0),
    "sdxs": (4.0, 32.0),
    "sdxlltn": (1.0, 8.0),
}

#: Parameters each workload kind accepts (beyond the nominal ``qps``).
WORKLOAD_PARAMS: Dict[str, Tuple[str, ...]] = {
    "static": (),
    "mmpp": (
        "base_qps",
        "burst_qps",
        "burst_factor",
        "burst_fraction",
        "dwell_base",
        "dwell_burst",
    ),
    "diurnal": ("min_qps", "max_qps", "swing", "cycles"),
    "flash-crowd": ("base_qps", "spike_qps", "spike_factor", "spike_at_frac", "decay_frac"),
    "azure": ("min_qps", "max_qps", "curve_seed", "n_bursts"),
}

#: Every selectable workload scenario kind.
WORKLOAD_KINDS: Tuple[str, ...] = tuple(WORKLOAD_PARAMS)


def _validated(kind: str, params: Optional[Mapping[str, float]]) -> Dict[str, float]:
    if kind not in WORKLOAD_PARAMS:
        raise ValueError(f"unknown workload kind {kind!r}; expected one of {WORKLOAD_KINDS}")
    params = dict(params or {})
    unknown = sorted(set(params) - set(WORKLOAD_PARAMS[kind]))
    if unknown:
        raise ValueError(
            f"unknown params {unknown} for workload {kind!r}; "
            f"allowed: {sorted(WORKLOAD_PARAMS[kind])}"
        )
    return {key: float(value) for key, value in params.items()}


def make_workload(
    kind: str,
    *,
    duration: float,
    qps: Optional[float] = None,
    qps_range: Tuple[float, float] = (4.0, 32.0),
    seed: int = 0,
    params: Optional[Mapping[str, float]] = None,
) -> ArrivalProcess:
    """Build a named workload scenario.

    Parameters
    ----------
    kind:
        One of :data:`WORKLOAD_KINDS`.
    duration:
        Trace window (seconds).
    qps:
        Nominal mean rate.  Required for ``static``; the other kinds default
        it from ``qps_range`` (the trace-replay uses the whole range, the
        rest use its midpoint) so cascade-appropriate load comes for free.
    qps_range:
        (min, max) QPS the cluster is sized for (see
        :data:`DEFAULT_QPS_RANGE`), already scaled to the cluster size.
    seed:
        Shape seed for the trace-replay curve (arrival sampling draws from
        the experiment's :class:`~repro.simulator.rng.RandomStreams` instead).
    params:
        Kind-specific float overrides (see :data:`WORKLOAD_PARAMS`).
    """
    opts = _validated(kind, params)
    lo, hi = float(qps_range[0]), float(qps_range[1])
    nominal = float(qps) if qps is not None else (lo + hi) / 2.0

    if kind == "static":
        if qps is None or qps <= 0:
            raise ValueError("the static workload requires a positive qps")
        return PoissonProcess.constant(nominal, duration)

    if kind == "mmpp":
        burst_factor = opts.get("burst_factor", 4.0)
        burst_fraction = opts.get("burst_fraction", 0.2)
        if not 0.0 < burst_fraction < 1.0:
            raise ValueError("burst_fraction must lie in (0, 1)")
        if burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")
        # Solve the regime rates so the stationary mean equals the nominal
        # rate: mean = (1-p)*base + p*(burst_factor*base).  An explicit
        # base_qps override also re-bases the default burst rate.
        base_qps = opts.get(
            "base_qps", nominal / ((1.0 - burst_fraction) + burst_fraction * burst_factor)
        )
        burst_qps = opts.get("burst_qps", burst_factor * base_qps)
        dwell_burst = opts.get("dwell_burst", min(10.0, duration / 6.0))
        dwell_base = opts.get(
            "dwell_base", dwell_burst * (1.0 - burst_fraction) / burst_fraction
        )
        return MMPPProcess(
            base_qps,
            burst_qps,
            duration,
            mean_dwell_base=dwell_base,
            mean_dwell_burst=dwell_burst,
        )

    if kind == "diurnal":
        swing = opts.get("swing", 0.8)
        if not 0.0 < swing <= 1.0:
            raise ValueError("swing must lie in (0, 1]")
        min_qps = opts.get("min_qps", nominal * (1.0 - swing))
        max_qps = opts.get("max_qps", nominal * (1.0 + swing))
        return DiurnalProcess(min_qps, max_qps, duration, cycles=opts.get("cycles", 1.0))

    if kind == "flash-crowd":
        spike_factor = opts.get("spike_factor", 4.0)
        base_qps = opts.get("base_qps", nominal)
        spike_qps = opts.get("spike_qps", spike_factor * base_qps)
        spike_at = opts.get("spike_at_frac", 0.4) * duration
        decay_tau = opts.get("decay_frac", 0.15) * duration
        return FlashCrowdProcess(
            base_qps, spike_qps, duration, spike_at=spike_at, decay_tau=decay_tau
        )

    # kind == "azure": scaled replay of the production-shaped trace.
    if qps is not None:
        # A nominal rate rescales the replay range around it, preserving the
        # trace's 1:8 min:max ratio.
        lo, hi = nominal / 4.0, nominal * 2.0
    min_qps = opts.get("min_qps", lo)
    max_qps = opts.get("max_qps", hi)
    return TraceReplayProcess(
        min_qps,
        max_qps,
        duration,
        curve_seed=int(opts.get("curve_seed", seed)),
        n_bursts=int(opts.get("n_bursts", 4)),
    )


def validate_workload(
    kind: str,
    params: Optional[Mapping[str, float]] = None,
    *,
    qps: Optional[float] = None,
    duration: float = 60.0,
) -> None:
    """Validate a scenario's parameter *values*, not just its keys.

    Builds (and discards) the arrival process so range errors — e.g. a
    ``burst_fraction`` outside ``(0, 1)`` — surface eagerly at CLI-parse time
    as a :class:`ValueError` naming the offending parameter, instead of as a
    traceback from inside a grid cell.
    """
    try:
        make_workload(kind, duration=duration, qps=qps, params=params)
    except ValueError:
        raise
    except Exception as exc:  # pragma: no cover - defensive normalisation
        raise ValueError(f"invalid params for workload {kind!r}: {exc}") from exc


def scale_to_cluster(qps: float, num_workers: int) -> float:
    """A rate given for the paper's 16-worker testbed, scaled to the cluster size."""
    return qps * (num_workers / 16.0)


def cascade_qps_range(cascade: str, num_workers: int) -> Tuple[float, float]:
    """The cascade's default QPS range scaled to the cluster size."""
    lo, hi = DEFAULT_QPS_RANGE.get(cascade, (4.0, 32.0))
    return scale_to_cluster(lo, num_workers), scale_to_cluster(hi, num_workers)
