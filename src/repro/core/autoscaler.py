"""Autoscaling: fleet size and mix as a plan decision over time.

A :class:`ScalePolicy` is a *pure description* — hashable into runner cache
keys like ``--faults``/``--prices`` specs — of how the control plane may
resize the fleet at replan epochs.  :class:`Autoscaler` is the evaluation
side: attached to the :class:`~repro.core.replanner.ReplanController`, it is
called once per epoch with the epoch's arrival rate and SLO-violation ratio
and proposes a new :class:`~repro.core.config.FleetSpec` (or ``None`` for no
change).  Every input is a deterministic function of simulation state plus
the pure :class:`~repro.core.pricing.PriceTrace`, so autoscaled runs stay
byte-identical serial vs. sharded.

Three policy kinds:

``static``
    Never scales.  The pre-provisioned spare pool (``max_factor``) still
    exists, so this is the overhead-measurement arm: identical behaviour to
    ``autoscale=None`` with the machinery armed.
``reactive``
    Threshold scaling on load alone: scale out when the epoch violates the
    SLO or estimated capacity falls below ``headroom`` x the arrival rate;
    scale in when capacity would still clear the headroom after shedding a
    worker.  Price-oblivious (adds spare capacity in canonical class order).
``cost-aware``
    The same triggers, but *which* class to grow or shed is chosen by
    effective price per unit of light-model throughput — the current spot
    price, risk-discounted by the class's revocation probability under the
    active fault plan — and spot classes whose price exceeds
    ``price_ceiling`` x their on-demand rate are evicted entirely
    (scale-to-zero), capacity permitting.

Proposals are clamped per class to the *healthy, unfenced* workers actually
built (the pre-provisioned ``max_fleet`` pool), so a worker fenced by a spot
revocation notice can never be re-activated by a same-epoch scale-out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.config import FleetSpec, fleet_from_counts
from repro.core.pricing import PriceTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.controller import Controller

__all__ = [
    "ScalePolicy",
    "SCALE_POLICIES",
    "Autoscaler",
]

#: Recognised policy kinds.
SCALE_KINDS = ("static", "reactive", "cost-aware")


@dataclass(frozen=True)
class ScalePolicy:
    """Configuration of the epoch-synchronous autoscaler.

    Attributes
    ----------
    kind:
        One of :data:`SCALE_KINDS`.
    max_factor:
        Pre-provisioning multiple: the simulation builds
        ``ceil(count * max_factor)`` workers per class so scale-out can
        activate drained spares deterministically.  ``1.0`` means no spares
        (scale-in/scale-to-zero only).
    min_workers:
        Fleet-wide floor: scale-in never drops the total below this.
    headroom:
        Capacity target as a multiple of the epoch arrival rate; scale out
        below it, scale in only while comfortably above it.
    scale_out_violation:
        Epoch SLO-violation ratio that forces a scale-out regardless of the
        capacity estimate.
    step:
        Workers added or removed per scaling decision.
    cooldown_epochs:
        Epochs to hold still after a fleet transition (flap damping).
    risk_aversion:
        ``cost-aware`` only: effective price multiplier per unit of
        revocation probability (price * (1 + risk_aversion * risk)).
    price_ceiling:
        ``cost-aware`` only: evict (scale to zero) spot classes whose
        current price exceeds ``price_ceiling`` x their on-demand rate;
        ``0`` disables eviction.
    """

    kind: str = "reactive"
    max_factor: float = 1.0
    min_workers: int = 1
    headroom: float = 1.25
    scale_out_violation: float = 0.05
    step: int = 1
    cooldown_epochs: int = 1
    risk_aversion: float = 1.0
    price_ceiling: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SCALE_KINDS:
            raise ValueError(
                f"unknown autoscale kind {self.kind!r}; expected one of {SCALE_KINDS}"
            )
        if not isinstance(self.max_factor, (int, float)) or self.max_factor < 1.0:
            raise ValueError(f"autoscale.max_factor must be >= 1, got {self.max_factor!r}")
        if (
            isinstance(self.min_workers, bool)
            or not isinstance(self.min_workers, int)
            or self.min_workers < 1
        ):
            raise ValueError(
                f"autoscale.min_workers must be an integer >= 1, got {self.min_workers!r}"
            )
        if not isinstance(self.headroom, (int, float)) or self.headroom < 1.0:
            raise ValueError(f"autoscale.headroom must be >= 1, got {self.headroom!r}")
        if (
            not isinstance(self.scale_out_violation, (int, float))
            or not 0.0 <= self.scale_out_violation <= 1.0
        ):
            raise ValueError(
                f"autoscale.scale_out_violation must lie in [0, 1], "
                f"got {self.scale_out_violation!r}"
            )
        if isinstance(self.step, bool) or not isinstance(self.step, int) or self.step < 1:
            raise ValueError(f"autoscale.step must be an integer >= 1, got {self.step!r}")
        if (
            isinstance(self.cooldown_epochs, bool)
            or not isinstance(self.cooldown_epochs, int)
            or self.cooldown_epochs < 0
        ):
            raise ValueError(
                f"autoscale.cooldown_epochs must be an integer >= 0, "
                f"got {self.cooldown_epochs!r}"
            )
        if not isinstance(self.risk_aversion, (int, float)) or self.risk_aversion < 0:
            raise ValueError(
                f"autoscale.risk_aversion must be a number >= 0, got {self.risk_aversion!r}"
            )
        if not isinstance(self.price_ceiling, (int, float)) or self.price_ceiling < 0:
            raise ValueError(
                f"autoscale.price_ceiling must be a number >= 0, got {self.price_ceiling!r}"
            )

    def token(self) -> str:
        """Canonical, process-independent string form (cache keys, labels)."""
        parts = [
            self.kind,
            f"max={self.max_factor:g}",
            f"min={self.min_workers}",
            f"head={self.headroom:g}",
            f"viol={self.scale_out_violation:g}",
            f"step={self.step}",
            f"cool={self.cooldown_epochs}",
        ]
        if self.kind == "cost-aware":
            parts.append(f"risk={self.risk_aversion:g}")
            parts.append(f"ceil={self.price_ceiling:g}")
        return ",".join(parts)

    def __str__(self) -> str:
        return self.token()


#: Named policies accepted by ``--autoscale`` (JSON is the escape hatch).
SCALE_POLICIES: Dict[str, ScalePolicy] = {
    "static": ScalePolicy(kind="static"),
    "reactive": ScalePolicy(kind="reactive", max_factor=1.5, step=2),
    "cost-aware": ScalePolicy(
        kind="cost-aware", max_factor=1.5, step=2, risk_aversion=1.0, price_ceiling=0.9
    ),
}


# --------------------------------------------------------------------------
# Epoch-synchronous evaluation
# --------------------------------------------------------------------------


class Autoscaler:
    """Evaluates a :class:`ScalePolicy` against the controller each epoch.

    Stateless apart from the cooldown counter and a decision log: every
    proposal is a pure function of ``(epoch signals, active fleet, healthy
    built workers, price trace at now, revocation risk)``.  The proposal is
    *applied by the caller* through the controller's single audited
    ``set_fleet`` site; this class only decides.
    """

    def __init__(
        self,
        policy: ScalePolicy,
        controller: "Controller",
        *,
        prices: Optional[PriceTrace] = None,
    ) -> None:
        self.policy = policy
        self.controller = controller
        self.prices = prices
        #: ``(time, "old -> new (reason)")`` log of accepted proposals.
        self.decisions: List[Tuple[float, str]] = []
        self._cooldown = 0

    # -------------------------------------------------------------- capacity
    def _per_worker_rate(self, device) -> float:
        """Light-variant throughput of one device (queries/sec), the capacity
        unit scaling decisions reason in.  MILP-backed policies expose the
        profiled rate; others fall back to the relative speed factor."""
        allocator = getattr(self.controller.policy, "allocator", None)
        if allocator is not None and hasattr(allocator, "_light_throughput"):
            batch = max(allocator.batch_candidates)
            return float(allocator._light_throughput(batch, device))
        return 1.0 / device.speed_factor

    def _capacity(self, counts: Dict[str, int]) -> float:
        by_name = {d.name: d for d in self._device_classes()}
        return sum(
            count * self._per_worker_rate(by_name[name])
            for name, count in counts.items()
            if count > 0
        )

    def _device_classes(self):
        return [device for device, _ in self.controller.built_fleet.devices]

    def _effective_price(self, device, now: float) -> float:
        """Cost-aware score: current price, risk-discounted, per unit tput."""
        if self.prices is not None:
            price = self.prices.price(device.name, now)
        else:
            price = device.cost_per_hour
        risk = self.controller.revocation_risk.get(device.name, 0.0)
        return price * (1.0 + self.policy.risk_aversion * risk)

    # ------------------------------------------------------------ evaluation
    def evaluate(
        self, now: float, arrival_rate: float, violation_ratio: float
    ) -> Optional[FleetSpec]:
        """Propose a new fleet for this epoch, or ``None`` for no change."""
        policy = self.policy
        if policy.kind == "static":
            return None
        if self._cooldown > 0:
            self._cooldown -= 1
            return None

        controller = self.controller
        active = dict(controller.active_fleet.as_counts())
        healthy = controller.healthy_counts()
        devices = {d.name: d for d in self._device_classes()}
        # Stable evaluation order: canonical class-name order everywhere.
        names = sorted(devices)
        for name in names:
            active.setdefault(name, 0)

        need = policy.headroom * arrival_rate
        capacity = self._capacity(active)
        counts = dict(active)
        reason = None

        if policy.kind == "cost-aware" and policy.price_ceiling > 0 and self.prices is not None:
            # Spot-price eviction (scale-to-zero): shed classes priced above
            # the ceiling while the remaining fleet still clears the target.
            for name in sorted(
                (n for n in names if counts[n] > 0 and self.prices.is_spot(n)),
                key=lambda n: (-self.prices.price(n, now) / self.prices.on_demand_price(n), n),
            ):
                over = (
                    self.prices.price(name, now)
                    > policy.price_ceiling * self.prices.on_demand_price(name)
                )
                if not over:
                    continue
                without = dict(counts)
                without[name] = 0
                if sum(without.values()) < policy.min_workers:
                    continue
                if self._capacity(without) >= need:
                    counts = without
                    reason = f"evict {name} (spot price over ceiling)"
        capacity = self._capacity(counts)

        if violation_ratio > policy.scale_out_violation or capacity < need:
            added = self._scale_out(counts, devices, names, healthy, now)
            if added:
                reason = f"scale-out +{added}"
        elif capacity > need:
            removed = self._scale_in(counts, devices, names, need, now)
            if removed and reason is None:
                reason = f"scale-in -{removed}"

        if reason is None:
            return None
        proposal = self._to_fleet(counts, devices)
        if proposal is None or proposal.token() == controller.active_fleet.token():
            return None
        self._cooldown = policy.cooldown_epochs
        self.decisions.append(
            (now, f"{controller.active_fleet.token()} -> {proposal.token()} ({reason})")
        )
        return proposal

    def _scale_out(self, counts, devices, names, healthy, now: float) -> int:
        """Greedily activate up to ``step`` healthy spare workers in place."""
        added = 0
        for _ in range(self.policy.step):
            candidates = [
                name for name in names if counts[name] < healthy.get(name, 0)
            ]
            if not candidates:
                break
            if self.policy.kind == "cost-aware":
                # Cheapest effective price per unit throughput first.
                pick = min(
                    candidates,
                    key=lambda n: (
                        self._effective_price(devices[n], now)
                        / max(self._per_worker_rate(devices[n]), 1e-12),
                        n,
                    ),
                )
            else:
                # Reactive: biggest spare pool first (price-oblivious).
                pick = min(
                    candidates,
                    key=lambda n: (-(healthy.get(n, 0) - counts[n]), n),
                )
            counts[pick] += 1
            added += 1
        return added

    def _scale_in(self, counts, devices, names, need: float, now: float) -> int:
        """Greedily shed up to ``step`` workers while capacity clears ``need``."""
        removed = 0
        for _ in range(self.policy.step):
            if sum(counts.values()) <= self.policy.min_workers:
                break
            candidates = [name for name in names if counts[name] > 0]
            if not candidates:
                break
            if self.policy.kind == "cost-aware":
                # Most expensive effective price per unit throughput first.
                pick = max(
                    candidates,
                    key=lambda n: (
                        self._effective_price(devices[n], now)
                        / max(self._per_worker_rate(devices[n]), 1e-12),
                        n,
                    ),
                )
            else:
                # Reactive: largest active group first (price-oblivious).
                pick = max(candidates, key=lambda n: (counts[n], n))
            trial = dict(counts)
            trial[pick] -= 1
            if self._capacity(trial) < need:
                break
            counts[pick] -= 1
            removed += 1
        return removed

    @staticmethod
    def _to_fleet(counts: Dict[str, int], devices) -> Optional[FleetSpec]:
        live = {name: count for name, count in counts.items() if count > 0}
        if not live:
            return None
        return fleet_from_counts(live)
