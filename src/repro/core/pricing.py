"""Spot-market price traces and time-integrated fleet cost accounting.

A :class:`PriceTrace` is a *pure description* of per-device-class prices over
time — deterministic, seed-driven, and composable like workload scenarios —
that the runner can hash into cache keys exactly like ``--fleet``/``--faults``
specs.  Prices are a pure function of ``(trace, class name, time)``: on-demand
classes cost a fixed multiple of the catalog rate, spot classes cost a
discounted base modulated by a seed-phased sinusoidal market wave plus
optional surge windows.  Nothing here touches the simulator, so the same
trace prices a serial run and every shard of a sharded run identically.

:class:`CostLedger` is the time-integration side: a piecewise-constant meter
charged at every fleet transition (and, when a trace is attached, re-sampled
at replan epochs), so runs report the cost of the fleet they *actually held*
over time instead of the construction-time ``FleetSpec.total_cost``.

``--prices`` takes a catalog name or the JSON form
(:meth:`PriceTrace.from_json`); the runner's grid-dimension registry
(:mod:`repro.runner.dimensions`) parses both.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.config import DEVICE_CLASSES, FleetSpec, dataclass_from_json

__all__ = [
    "PriceSurge",
    "PriceTrace",
    "PRICE_TRACES",
    "CostLedger",
]

#: Seconds per hour (prices are quoted per hour; simulations run in seconds).
SECONDS_PER_HOUR = 3600.0


def _check_pos(name: str, value: float) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
        raise ValueError(f"{name} must be a number > 0, got {value!r}")


def _check_nonneg(name: str, value: float) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a number >= 0, got {value!r}")


@dataclass(frozen=True)
class PriceSurge:
    """Spot prices multiply by ``factor`` on ``[at, at + duration)``."""

    at: float
    duration: float
    factor: float = 3.0

    def __post_init__(self) -> None:
        _check_nonneg("surge.at", self.at)
        _check_pos("surge.duration", self.duration)
        if not isinstance(self.factor, (int, float)) or self.factor <= 1.0:
            raise ValueError(f"surge.factor must be > 1, got {self.factor!r}")

    def token(self) -> str:
        return f"@{self.at:g}x{self.factor:g}for{self.duration:g}"


@dataclass(frozen=True)
class PriceTrace:
    """Deterministic per-class price curves.

    * On-demand classes cost ``catalog cost_per_hour * on_demand`` — flat.
    * Spot classes start from ``catalog * spot_discount`` and ride a
      sinusoidal market wave of amplitude ``volatility`` and period
      ``period`` seconds, phase-shifted per class by a stable hash of
      ``(seed, class name)`` so classes don't move in lockstep, multiplied
      by any :class:`PriceSurge` window covering ``t``.

    Everything is canonically ordered, so equivalent JSON spellings share
    one cache token.
    """

    on_demand: float = 1.0
    spot_classes: Tuple[str, ...] = ()
    spot_discount: float = 0.3
    volatility: float = 0.0
    period: float = 120.0
    surges: Tuple[PriceSurge, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        _check_pos("prices.on_demand", self.on_demand)
        if not 0.0 < self.spot_discount <= 1.0:
            raise ValueError(
                f"prices.spot_discount must lie in (0, 1], got {self.spot_discount!r}"
            )
        if not isinstance(self.volatility, (int, float)) or not 0.0 <= self.volatility < 1.0:
            raise ValueError(f"prices.volatility must lie in [0, 1), got {self.volatility!r}")
        _check_pos("prices.period", self.period)
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"prices.seed must be an integer >= 0, got {self.seed!r}")
        seen = set()
        for name in self.spot_classes:
            if name not in DEVICE_CLASSES:
                known = ", ".join(sorted(DEVICE_CLASSES))
                raise ValueError(
                    f"prices.spot_classes: unknown device class {name!r}; known: {known}"
                )
            if name in seen:
                raise ValueError(f"prices.spot_classes: {name!r} listed more than once")
            seen.add(name)
        for entry in self.surges:
            if not isinstance(entry, PriceSurge):
                raise ValueError(f"prices.surges entry {entry!r} is not a PriceSurge")
        object.__setattr__(self, "spot_classes", tuple(sorted(self.spot_classes)))
        object.__setattr__(
            self, "surges", tuple(sorted(self.surges, key=lambda s: (s.at, s.token())))
        )

    # ------------------------------------------------------------------ prices
    def _phase(self, name: str) -> float:
        """Per-class wave phase: a stable (process-independent) hash in [0, 2pi)."""
        digest = zlib.crc32(f"{self.seed}:{name}".encode("utf-8")) & 0xFFFF
        return 2.0 * math.pi * digest / 0x10000

    def is_spot(self, name: str) -> bool:
        """Whether class ``name`` is priced on the spot market."""
        return name in self.spot_classes

    def on_demand_price(self, name: str) -> float:
        """The flat on-demand price of class ``name`` (A100-hours per hour)."""
        return DEVICE_CLASSES[name].cost_per_hour * self.on_demand

    def price(self, name: str, t: float) -> float:
        """Price of one device of class ``name`` at simulation time ``t``."""
        base = self.on_demand_price(name)
        if name not in self.spot_classes:
            return base
        wave = 1.0 + self.volatility * math.sin(
            2.0 * math.pi * t / self.period + self._phase(name)
        )
        surge = 1.0
        for entry in self.surges:
            if entry.at <= t < entry.at + entry.duration:
                surge *= entry.factor
        return base * self.spot_discount * wave * surge

    def rate_for(self, fleet: FleetSpec, t: float) -> float:
        """Aggregate cost rate of ``fleet`` at time ``t`` (per hour)."""
        return sum(count * self.price(device.name, t) for device, count in fleet.devices)

    # ------------------------------------------------------------------- token
    def token(self) -> str:
        """Canonical, process-independent string form (cache keys, labels)."""
        parts = [f"od={self.on_demand:g}"]
        if self.spot_classes:
            parts.append(
                f"spot[{'+'.join(self.spot_classes)}]x{self.spot_discount:g}"
                f"~{self.volatility:g}/{self.period:g}s#{self.seed}"
            )
        if self.surges:
            parts.append("surges[" + ";".join(s.token() for s in self.surges) + "]")
        return ",".join(parts)

    def __str__(self) -> str:
        return self.token()

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "PriceTrace":
        """The ``--prices`` JSON form: any :class:`PriceTrace` field.

        Shape: ``{"on_demand": 1.0, "spot_classes": ["l4", "t4"],
        "spot_discount": 0.3, "volatility": 0.5, "period": 240,
        "surges": [{"at": 20, "duration": 10, "factor": 4}], "seed": 0}``.
        """
        spec = dict(payload)
        spot = spec.get("spot_classes")
        if spot is not None:
            if not isinstance(spot, list) or not all(isinstance(s, str) for s in spot):
                raise ValueError(
                    f"--prices: 'spot_classes' must be a list of strings, got {spot!r}"
                )
            spec["spot_classes"] = tuple(spot)
        surges = spec.get("surges")
        if surges is not None:
            if not isinstance(surges, list):
                raise ValueError(f"--prices: 'surges' must be a list, got {surges!r}")
            spec["surges"] = tuple(_surge_from_json(i, entry) for i, entry in enumerate(surges))
        return dataclass_from_json(cls, spec, "--prices")


def _surge_from_json(index: int, entry: object) -> PriceSurge:
    if not isinstance(entry, dict):
        raise ValueError(f"prices.surges[{index}] must be an object, got {entry!r}")
    return dataclass_from_json(PriceSurge, entry, f"prices.surges[{index}]")


#: The classes the spot catalog traces price on the market: the cheap bulk
#: tier (everything below the A100 on-demand anchor).
_SPOT_TIER = ("a10g", "l4", "t4")

#: Named price traces accepted by ``--prices`` (JSON is the escape hatch).
PRICE_TRACES: Dict[str, PriceTrace] = {
    "flat": PriceTrace(),
    "spot-calm": PriceTrace(
        spot_classes=_SPOT_TIER, spot_discount=0.35, volatility=0.1, period=120.0
    ),
    "spot-diurnal": PriceTrace(
        spot_classes=_SPOT_TIER, spot_discount=0.3, volatility=0.5, period=240.0
    ),
    "spot-storm": PriceTrace(
        spot_classes=_SPOT_TIER,
        spot_discount=0.3,
        volatility=0.5,
        period=240.0,
        surges=(
            PriceSurge(at=20.0, duration=20.0, factor=5.0),
            PriceSurge(at=70.0, duration=15.0, factor=4.0),
        ),
    ),
}


# --------------------------------------------------------------------------
# Time-integrated cost accounting
# --------------------------------------------------------------------------


class CostLedger:
    """Piecewise-constant meter of the *active* fleet's cost over time.

    The controller's single fleet-transition site charges the ledger at every
    :meth:`transition`; with a price trace attached the replan loop also
    :meth:`observe`\\ s at epoch boundaries so spot-price moves re-rate the
    meter between transitions.  ``total_at`` integrates in **A100-hours**
    (catalog cost units x hours held), so a revocation-shrunk run is cheaper
    than its quiet twin and a scale-to-zero trough shows up as savings.

    Without a trace the rate is the catalog ``FleetSpec.total_cost`` of the
    active fleet — constant between transitions, so totals are exact.  The
    interval log is kept for the conservation property test: the sum of
    per-interval charges equals the integral of the active rate.
    """

    def __init__(self, prices: Optional[PriceTrace] = None, start: float = 0.0) -> None:
        self.prices = prices
        #: Closed charge intervals: ``(start, end, rate_per_hour, fleet token)``.
        self.intervals: List[Tuple[float, float, float, str]] = []
        self.charged = 0.0  # A100-hours over closed intervals
        self._fleet: Optional[FleetSpec] = None
        self._rate = 0.0  # cost units per hour
        self._last = float(start)

    def rate_for(self, fleet: FleetSpec, t: float) -> float:
        """Cost rate (per hour) of ``fleet`` at time ``t`` under the trace."""
        if self.prices is None:
            return fleet.total_cost
        return self.prices.rate_for(fleet, t)

    def _close(self, now: float) -> None:
        if now > self._last and self._fleet is not None:
            self.intervals.append((self._last, now, self._rate, self._fleet.token()))
            self.charged += self._rate * (now - self._last) / SECONDS_PER_HOUR
            self._last = now
        elif now > self._last:
            self._last = now

    def transition(self, fleet: FleetSpec, now: float) -> None:
        """Charge up to ``now`` at the old rate, then meter ``fleet``."""
        self._close(now)
        self._fleet = fleet
        self._rate = self.rate_for(fleet, now)

    def observe(self, now: float) -> None:
        """Re-sample the current fleet's price (piecewise at epoch boundaries).

        A no-op without a price trace: static catalog rates never move, so
        the legacy ledger holds exactly one interval per fleet transition.
        """
        if self.prices is None or self._fleet is None:
            return
        self._close(now)
        self._rate = self.rate_for(self._fleet, now)

    def total_at(self, t: float) -> float:
        """Total A100-hours charged through time ``t`` (non-mutating)."""
        tail = self._rate * max(0.0, t - self._last) / SECONDS_PER_HOUR
        return self.charged + tail
