"""The name-or-JSON grid dimensions: one registry, one grammar.

Five grid dimensions — ``geo``, ``resources``, ``faults``, ``autoscale`` and
``prices`` — take either a catalog name or a JSON object.  Each is one
:class:`Dimension` record: its spec field (and ``--<name>`` flag), its
catalog, the nouns of its catalog-miss error, its flag help, and a
``from_json`` callable holding only that dimension's JSON schema.
:meth:`Dimension.parse` and :meth:`Dimension.lookup` implement the grammar
once; :class:`~repro.runner.spec.ExperimentSpec` (validation, tokens,
labels) and the CLI (flags, eager validation) loop over :data:`DIMENSIONS`.

Fleets and workload params use a different grammar (``k=v`` pairs or JSON)
and stay outside the registry, but share :func:`decode_json_object`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Mapping, Optional

from repro.core.autoscaler import SCALE_POLICIES, ScalePolicy
from repro.core.config import RESOURCE_MODELS, ResourceConfig, dataclass_from_json
from repro.core.geo import GEO_TOPOLOGIES, GeoTopology
from repro.core.pricing import PRICE_TRACES, PriceTrace
from repro.faults.plan import FAULT_PLANS, FaultPlan

__all__ = ["DIMENSIONS", "Dimension", "decode_json_object"]


def _reject_duplicate_keys(pairs) -> Dict[str, Any]:
    payload: Dict[str, Any] = {}
    for key, value in pairs:
        if key in payload:
            raise ValueError(f"duplicate key {key!r}")
        payload[key] = value
    return payload


def decode_json_object(text: str, flag: str) -> Dict[str, Any]:
    """Decode the JSON value of ``flag``, which must be an object.

    Duplicate keys are rejected at every nesting level: plain ``json.loads``
    keeps the last one, which would silently drop part of the spec.
    """
    try:
        payload = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON for {flag}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{flag} JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{flag} JSON must be an object, got {payload!r}")
    return payload


def _is_json(text: str) -> bool:
    return text.startswith(("{", "["))


@dataclass(frozen=True)
class Dimension:
    """One name-or-JSON grid dimension.

    ``name`` is both the :class:`~repro.runner.spec.ExperimentSpec` field
    and the flag (``--<name>``); ``noun``/``nouns`` word the catalog-miss
    error (``unknown <noun> 'x'; known <nouns>: ...``).
    """

    name: str
    catalog: Mapping[str, Any]
    noun: str
    nouns: str
    help: str
    from_json: Callable[[Dict[str, Any]], Any]

    @property
    def flag(self) -> str:
        return f"--{self.name}"

    def lookup(self, name: str) -> Any:
        """The catalog entry ``name`` (one-line :class:`KeyError` on miss)."""
        try:
            return self.catalog[name]
        except KeyError:
            known = ", ".join(sorted(self.catalog))
            raise KeyError(f"unknown {self.noun} {name!r}; known {self.nouns}: {known}") from None

    def parse(self, text: Optional[str]) -> Any:
        """Parse a flag value: ``None`` if blank, else a catalog name or JSON.

        Every rejection is a one-line :class:`ValueError` naming the bad
        name or key.
        """
        stripped = (text or "").strip()
        if not stripped:
            return None
        if not _is_json(stripped):
            try:
                return self.lookup(stripped)
            except KeyError as exc:
                raise ValueError(exc.args[0]) from None
        return self.from_json(decode_json_object(stripped, self.flag))

    def label(self, text: str) -> str:
        """Short cell-label bit: ``<name>-<catalog name>`` or ``<name>-json``."""
        stripped = text.strip()
        return f"{self.name}-{'json' if _is_json(stripped) else stripped}"


#: Every name-or-JSON dimension, in spec-field (and token) order.
DIMENSIONS: Dict[str, Dimension] = {
    dim.name: dim
    for dim in (
        Dimension(
            name="geo",
            catalog=GEO_TOPOLOGIES,
            noun="geo topology",
            nouns="topologies",
            help=(
                "geo topology, either a catalog name (single, us-eu, global-4, "
                "global-8) or a JSON object mapping region names to "
                "'{\"fleet\": {class: count}, \"rtt_ms\": number, \"weight\": number}'; "
                "cells run every region through the shard supervisor and become a "
                "cached grid dimension"
            ),
            from_json=GeoTopology.from_json,
        ),
        Dimension(
            name="resources",
            catalog=RESOURCE_MODELS,
            noun="resource model",
            nouns="models",
            help=(
                "attach the multi-resource worker model: 'default' (built-in "
                "footprint catalog, reload-aware), 'oblivious' (same catalog, "
                "reload-oblivious planning), or a JSON object mapping variant "
                "names to checkpoint GB with optional 'reload_aware' (bool) and "
                "'egress_gb_per_image' (number) keys; becomes a cached grid "
                "dimension (omit to keep the legacy execution model)"
            ),
            from_json=ResourceConfig.from_json,
        ),
        Dimension(
            name="faults",
            catalog=FAULT_PLANS,
            noun="fault plan",
            nouns="plans",
            help=(
                "inject a deterministic fault scenario: a catalog name (quiet, "
                "crash, crash-norecovery, storm, storm-norecovery, revocation, "
                "solver-timeout, chaos) or a JSON object with a 'faults' list of "
                "{kind, ...} entries (kinds: crash, revocation, straggler, "
                "bandwidth, partition, solver-timeout, crash-storm) and an "
                "optional 'recovery' key (true/false or a config object); becomes "
                "a cached grid dimension (omit to keep runs fault-free)"
            ),
            from_json=FaultPlan.from_json,
        ),
        Dimension(
            name="autoscale",
            catalog=SCALE_POLICIES,
            noun="autoscale policy",
            nouns="policies",
            help=(
                "attach an epoch-synchronous autoscaling policy to the DiffServe "
                "system: a catalog name (static, reactive, cost-aware) or a JSON "
                "object with ScalePolicy fields ('{\"kind\": \"cost-aware\", "
                "\"max_factor\": 1.5, \"step\": 2}'); requires --replan-epoch and "
                "becomes a cached grid dimension (omit to keep fleets fixed)"
            ),
            from_json=partial(dataclass_from_json, ScalePolicy, where="--autoscale"),
        ),
        Dimension(
            name="prices",
            catalog=PRICE_TRACES,
            noun="price trace",
            nouns="traces",
            help=(
                "price the fleet on a deterministic spot-market trace: a catalog "
                "name (flat, spot-calm, spot-diurnal, spot-storm) or a JSON object "
                "with PriceTrace fields ('{\"spot_classes\": [\"l4\", \"t4\"], "
                "\"volatility\": 0.5}'); meters the time-integrated fleet_cost "
                "summary key and becomes a cached grid dimension"
            ),
            from_json=PriceTrace.from_json,
        ),
    )
}
