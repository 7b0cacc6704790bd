"""Geo/multi-cluster topologies and the latency-aware routing layer.

A :class:`GeoTopology` names a set of regions, each with its own typed
:class:`~repro.core.config.FleetSpec`, a client population weight, and a
network round-trip to its own users.  The :class:`GeoRouter` sits *above* the
per-region Load Balancers: it assigns every arriving query to a region before
the query enters any event loop, preferring each query's origin region and
spilling to the least-loaded remote region (round-trip-penalised) when the
origin's backlog crosses a threshold.

Routing is deliberately *epoch-synchronous*: decisions for the queries of
epoch ``k`` read only statistics reported at the ``k-1`` barrier (plus the
router's own within-epoch routed counts).  That makes every decision a
deterministic function of (topology, workload, epoch stats) — independent of
how many shard processes execute the regions — which is the property the
sharded-equals-serial byte-identical gate rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.config import FleetSpec, fleet_from_counts


@dataclass(frozen=True)
class RegionSpec:
    """One serving region (cluster) of a geo topology.

    Attributes
    ----------
    name:
        Region label (``"us-east"``, ``"eu-west"``, ...).
    fleet:
        The typed device fleet this region serves with.
    rtt_s:
        Network round-trip between the region and *its own* client
        population (seconds).  A spilled query pays its origin's plus the
        target's round-trip (hub model).
    weight:
        Relative share of the global client population that originates in
        this region (normalised across the topology).
    """

    name: str
    fleet: FleetSpec
    rtt_s: float = 0.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("region name must be non-empty")
        if self.rtt_s < 0:
            raise ValueError(f"region {self.name!r}: rtt_s must be non-negative")
        if self.weight <= 0:
            raise ValueError(f"region {self.name!r}: weight must be positive")

    @property
    def capacity_units(self) -> float:
        """Speed-normalised serving capacity (baseline-device equivalents)."""
        return sum(count / device.speed_factor for device, count in self.fleet.devices)


@dataclass(frozen=True)
class GeoTopology:
    """A set of regions in canonical (name-sorted) order.

    Like :class:`~repro.core.config.FleetSpec`, the canonical ordering is
    what makes equal topologies hash, serialise, and shard identically:
    region construction, stat merging, and result concatenation all iterate
    ``regions`` in this one order.
    """

    regions: Tuple[RegionSpec, ...]

    def __post_init__(self) -> None:
        if not self.regions:
            raise ValueError("topology must contain at least one region")
        seen = set()
        for region in self.regions:
            if not isinstance(region, RegionSpec):
                raise ValueError(f"topology entry {region!r} is not a RegionSpec")
            if region.name in seen:
                raise ValueError(f"region {region.name!r}: listed more than once")
            seen.add(region.name)
        object.__setattr__(
            self, "regions", tuple(sorted(self.regions, key=lambda r: r.name))
        )

    # -------------------------------------------------------------- properties
    @property
    def names(self) -> Tuple[str, ...]:
        """Region names in canonical order."""
        return tuple(region.name for region in self.regions)

    @property
    def total_workers(self) -> int:
        """Total devices across every region."""
        return sum(region.fleet.total_workers for region in self.regions)

    @property
    def total_capacity_units(self) -> float:
        """Speed-normalised capacity across every region."""
        return sum(region.capacity_units for region in self.regions)

    def __len__(self) -> int:
        return len(self.regions)

    def __iter__(self):
        return iter(self.regions)

    def region(self, name: str) -> RegionSpec:
        """Look up a region by name (one-line error on miss)."""
        for region in self.regions:
            if region.name == name:
                return region
        raise KeyError(f"unknown region {name!r}; regions: {', '.join(self.names)}")

    def token(self) -> str:
        """Canonical, process-independent string form (cache keys, labels)."""
        return "|".join(
            f"{r.name}({r.fleet.token()})@{r.rtt_s!r}w{r.weight!r}" for r in self.regions
        )

    def __str__(self) -> str:
        return self.token()

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "GeoTopology":
        """The ``--geo`` JSON form: region names mapped to region specs.

        Each spec is ``{"fleet": {class: count}, "rtt_ms": number,
        "weight": number}`` (``rtt_ms``/``weight`` optional)::

            {"us-east": {"fleet": {"a100": 8}, "rtt_ms": 15},
             "eu-west": {"fleet": {"l4": 16}, "rtt_ms": 25, "weight": 0.8}}

        Every failure is a one-line :class:`ValueError` naming the offending
        region or key.
        """
        if not payload:
            raise ValueError("--geo JSON must be a non-empty object of region: spec pairs")
        regions: List[RegionSpec] = []
        for name, spec in payload.items():
            if not isinstance(spec, dict):
                raise ValueError(f"geo region {name!r}: spec must be an object, got {spec!r}")
            unknown = sorted(set(spec) - {"fleet", "rtt_ms", "weight"})
            if unknown:
                raise ValueError(f"geo region {name!r}: unknown keys {unknown}")
            counts = spec.get("fleet")
            if not isinstance(counts, dict) or not counts:
                raise ValueError(f"geo region {name!r}: 'fleet' must be a non-empty object")
            rtt_ms = spec.get("rtt_ms", 0.0)
            weight = spec.get("weight", 1.0)
            for key, value in (("rtt_ms", rtt_ms), ("weight", weight)):
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValueError(f"geo region {name!r}: {key} must be a number, got {value!r}")
            try:
                fleet = fleet_from_counts({str(k): v for k, v in counts.items()})
            except (KeyError, ValueError) as exc:
                raise ValueError(f"geo region {name!r}: {str(exc).strip(chr(39))}") from exc
            regions.append(
                RegionSpec(name=str(name), fleet=fleet, rtt_s=float(rtt_ms) / 1000.0,
                           weight=float(weight))
            )
        return cls(regions=tuple(regions))


# --------------------------------------------------------------------------
# Topology catalog
# --------------------------------------------------------------------------


def _make_topology(entries: Sequence[Tuple[str, Mapping[str, int], float, float]]) -> GeoTopology:
    return GeoTopology(
        regions=tuple(
            RegionSpec(name=name, fleet=fleet_from_counts(counts), rtt_s=rtt, weight=weight)
            for name, counts, rtt, weight in entries
        )
    )


#: Built-in geo topology catalog.  ``single`` is the degenerate one-region
#: topology (exactly the unsharded system — pinned by a byte-identity test);
#: ``global-8`` is the fleet the 1M-query scale bench shards across.
GEO_TOPOLOGIES: Dict[str, GeoTopology] = {
    "single": _make_topology([("main", {"a100": 16}, 0.0, 1.0)]),
    "us-eu": _make_topology(
        [
            ("us-east", {"a100": 8}, 0.015, 1.2),
            ("eu-west", {"a100": 8}, 0.02, 1.0),
        ]
    ),
    "global-4": _make_topology(
        [
            ("us-east", {"a100": 8}, 0.015, 1.3),
            ("us-west", {"h100": 4}, 0.02, 1.0),
            ("eu-west", {"a100": 6, "l4": 4}, 0.02, 1.1),
            ("apac", {"l4": 12}, 0.035, 0.8),
        ]
    ),
    "global-8": _make_topology(
        [
            ("us-east", {"a100": 8}, 0.015, 1.3),
            ("us-west", {"a100": 8}, 0.02, 1.1),
            ("eu-west", {"a100": 8}, 0.02, 1.2),
            ("eu-north", {"a100": 8}, 0.025, 0.9),
            ("apac-ne", {"a100": 8}, 0.035, 1.0),
            ("apac-se", {"a100": 8}, 0.04, 0.8),
            ("sa-east", {"a100": 8}, 0.045, 0.7),
            ("me-south", {"a100": 8}, 0.05, 0.6),
        ]
    ),
}


# --------------------------------------------------------------------------
# Routing
# --------------------------------------------------------------------------


@dataclass
class RegionLoad:
    """Cumulative routing/completion accounting the router keeps per region."""

    routed: int = 0
    completed: int = 0
    dropped: int = 0

    @property
    def backlog(self) -> int:
        """Queries routed to the region that have not finished yet."""
        return self.routed - self.completed - self.dropped


@dataclass
class RoutingDecision:
    """Where one query goes and what the network costs it."""

    region: str
    network_delay_s: float
    spilled: bool


class GeoRouter:
    """Latency-aware, epoch-synchronous query-to-region assignment.

    Each query prefers its origin region; when the origin's normalised
    backlog (queries per speed-normalised capacity unit) exceeds
    ``spill_threshold``, the router picks the region minimising
    ``normalised backlog + rtt_penalty * spill round-trip`` — ties broken by
    canonical region order.  Within an epoch the router's own routed counts
    update incrementally, so a burst spreads instead of dog-piling the first
    under-loaded region.
    """

    def __init__(
        self,
        topology: GeoTopology,
        *,
        spill_threshold: float = 4.0,
        rtt_penalty: float = 20.0,
    ) -> None:
        if spill_threshold <= 0:
            raise ValueError("spill_threshold must be positive")
        if rtt_penalty < 0:
            raise ValueError("rtt_penalty must be non-negative")
        self.topology = topology
        self.spill_threshold = float(spill_threshold)
        self.rtt_penalty = float(rtt_penalty)
        self.loads: Dict[str, RegionLoad] = {r.name: RegionLoad() for r in topology.regions}
        self._capacity = {r.name: max(r.capacity_units, 1e-9) for r in topology.regions}
        self.spilled = 0
        #: Regions currently cut off by a link partition (fault injection):
        #: no spilling out of or into a partitioned region.  Updated at epoch
        #: boundaries by the shard supervisor, keeping sharded == serial.
        self.partitioned: frozenset = frozenset()

    def set_partitioned(self, regions) -> None:
        """Replace the set of partitioned regions (epoch-synchronous)."""
        unknown = sorted(set(regions) - set(self.topology.names))
        if unknown:
            raise KeyError(f"unknown partitioned region(s): {', '.join(unknown)}")
        self.partitioned = frozenset(regions)

    # ------------------------------------------------------------ epoch stats
    def observe(self, region: str, completed: int, dropped: int) -> None:
        """Fold one region's cumulative completion counts (at a barrier)."""
        load = self.loads[region]
        load.completed = int(completed)
        load.dropped = int(dropped)

    def _normalised_backlog(self, name: str) -> float:
        return self.loads[name].backlog / self._capacity[name]

    # --------------------------------------------------------------- routing
    def route(self, origin: RegionSpec) -> RoutingDecision:
        """Assign one query originating in ``origin`` to a serving region."""
        regions = self.topology.regions
        target = origin
        spilled = False
        if (
            len(regions) > 1
            and origin.name not in self.partitioned
            and self._normalised_backlog(origin.name) > self.spill_threshold
        ):
            best = None
            for region in regions:
                penalty = 0.0
                if region.name != origin.name:
                    if region.name in self.partitioned:
                        continue  # the link into a partitioned region is down
                    penalty = self.rtt_penalty * (origin.rtt_s + region.rtt_s)
                score = self._normalised_backlog(region.name) + penalty
                if best is None or score < best[0]:
                    best = (score, region)
            target = best[1]
            spilled = target.name != origin.name
        self.loads[target.name].routed += 1
        if spilled:
            self.spilled += 1
        delay = origin.rtt_s if not spilled else origin.rtt_s + target.rtt_s
        return RoutingDecision(region=target.name, network_delay_s=delay, spilled=spilled)


def sample_origins(topology: GeoTopology, n: int, rng: np.random.Generator) -> np.ndarray:
    """Origin-region index per query, weighted by region population.

    Sampled in one vectorised draw from a dedicated stream *before* any
    region simulates, so origins are identical for every shard count.
    """
    weights = np.array([region.weight for region in topology.regions], dtype=float)
    if len(topology) == 1:
        return np.zeros(n, dtype=np.int64)
    return rng.choice(len(topology), size=n, p=weights / weights.sum())
