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
    lp_solves:
        HiGHS solves the solve ran: one per MIP, one per continuous LP of the
        exhaustive solver (the dominant cost of a solve; the benchmarks read
        it as a wall-clock-independent cost model).
    warm_start_used:
        Whether a caller-provided warm start was feasible and seeded the
        incumbent.
    """

    status: SolveStatus
    objective: Optional[float] = None
    values: Dict[str, float] = field(default_factory=dict)
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
