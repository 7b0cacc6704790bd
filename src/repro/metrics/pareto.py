"""Pareto-frontier utilities.

The resource-allocation analysis (Figure 1c) and the static-trace comparison
(Figure 4) reason about Pareto frontiers over two objectives — e.g. response
quality (FID, lower is better) vs. serving throughput (higher is better) or
SLO violation ratio (lower is better).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Sequence


@dataclass(frozen=True)
class ParetoPoint:
    """A point in a two-objective trade-off space.

    ``x`` and ``y`` are the two objectives; ``payload`` carries the
    configuration that produced the point (threshold, batch sizes, placement).
    """

    x: float
    y: float
    payload: Any = None


def _better_or_equal(a: float, b: float, minimize: bool) -> bool:
    return a <= b if minimize else a >= b


def _strictly_better(a: float, b: float, minimize: bool) -> bool:
    return a < b if minimize else a > b


def is_pareto_dominated(
    point: ParetoPoint,
    others: Iterable[ParetoPoint],
    *,
    minimize_x: bool = True,
    minimize_y: bool = True,
) -> bool:
    """True if some other point is at least as good in both objectives and
    strictly better in at least one."""
    for other in others:
        if other is point:
            continue
        geq_x = _better_or_equal(other.x, point.x, minimize_x)
        geq_y = _better_or_equal(other.y, point.y, minimize_y)
        strict = _strictly_better(other.x, point.x, minimize_x) or _strictly_better(
            other.y, point.y, minimize_y
        )
        if geq_x and geq_y and strict:
            return True
    return False


def pareto_frontier(
    points: Sequence[ParetoPoint],
    *,
    minimize_x: bool = True,
    minimize_y: bool = True,
) -> List[ParetoPoint]:
    """Non-dominated subset of ``points``, sorted along the x-axis."""
    frontier = [
        p
        for p in points
        if not is_pareto_dominated(p, points, minimize_x=minimize_x, minimize_y=minimize_y)
    ]
    frontier.sort(key=lambda p: (p.x, p.y))
    # Remove duplicate coordinates while keeping the first payload.  The key
    # must compare coordinates exactly: rounding merges distinct near-zero
    # points and would drop a non-dominated point from the frontier.
    seen: set = set()
    unique: List[ParetoPoint] = []
    for p in frontier:
        key = (p.x, p.y)
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return unique
