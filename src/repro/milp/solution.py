"""MILP solution objects."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional


class SolveStatus(enum.Enum):
    """Outcome of a solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NODE_LIMIT = "node_limit"
    ERROR = "error"


@dataclass
class MILPSolution:
    """Result of solving a :class:`~repro.milp.problem.MILPProblem`.

    Attributes
    ----------
    status:
        Solve outcome.
    objective:
        Objective value of the incumbent (``None`` when infeasible).
    values:
        Variable assignment of the incumbent.
    nodes_explored:
        Branch-and-bound nodes processed (assignments checked for the
        exhaustive solver).
    lp_solves:
        Number of LP relaxations solved (the dominant cost of a solve; used
        by the warm-start benchmarks as a wall-clock-independent cost model).
    warm_start_used:
        Whether a caller-provided warm start was feasible and seeded the
        incumbent.
    """

    status: SolveStatus
    objective: Optional[float] = None
    values: Dict[str, float] = field(default_factory=dict)
    nodes_explored: int = 0
    lp_solves: int = 0
    warm_start_used: bool = False

    @property
    def is_optimal(self) -> bool:
        """Whether an optimal solution was found."""
        return self.status == SolveStatus.OPTIMAL

    def __getitem__(self, name: str) -> float:
        return self.values[name]

    def get_int(self, name: str) -> int:
        """Integer value of an integral variable."""
        return int(round(self.values[name]))
