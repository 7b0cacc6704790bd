"""Best-first branch-and-bound MILP solver over HiGHS LP relaxations."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.milp.highs import LinearProgram
from repro.milp.problem import ACCEPT_TOL, MILPProblem
from repro.milp.solution import MILPSolution, SolveStatus

Bounds = Dict[str, Tuple[float, Optional[float]]]

#: Node cap per solve: a guard against a runaway search, which the
#: allocation problems (a handful of nodes each) never reach.
MAX_NODES = 10000
#: A node is pruned unless its LP bound beats the incumbent by more than this.
MIP_GAP = 1e-6


@dataclass(order=True)
class _Node:
    # Max-heap on the LP bound: store negative bound for heapq.
    neg_bound: float
    seq: int
    bounds: Bounds = field(compare=False)
    #: Relaxation solution already computed for exactly these bounds (set for
    #: the root, whose LP is solved before it is pushed); ``None`` for child
    #: nodes, whose ``neg_bound`` is the parent's bound.
    relaxation: Optional[Tuple[Dict[str, float], float]] = field(compare=False, default=None)


class BranchAndBoundSolver:
    """Solves MILPs via LP-relaxation branch-and-bound.

    The search is best-first on the LP relaxation bound; branching picks the
    integral variable whose relaxed value is most fractional.  The small
    allocation problems produced by DiffServe solve in a handful of nodes.
    The problem is lowered to a :class:`~repro.milp.highs.LinearProgram` once
    per solve; each node changes only the column bounds and is solved by
    HiGHS from a cleared solver.

    A caller that re-solves a slowly drifting problem (the online re-planner)
    can pass ``warm_start`` — an assignment from the previous solve.  If it is
    feasible for the *current* problem it seeds the incumbent, so every node
    whose LP bound cannot beat it is pruned without exploration; when the root
    relaxation bound already matches the warm objective the solve finishes
    after a single LP.
    """

    def __init__(self, *, tol: float = 1e-6) -> None:
        self.tol = tol
        #: Cumulative LP relaxations solved over the solver's lifetime (the
        #: dominant solve cost; benchmarks read this as a deterministic,
        #: wall-clock-independent cost model).
        self.total_lp_solves = 0

    # -------------------------------------------------------------- LP solve
    @staticmethod
    def _solve_relaxation(
        problem: MILPProblem, lp: LinearProgram, bounds: Bounds
    ) -> Tuple[Optional[Dict[str, float]], Optional[float], str]:
        result = lp.solve(problem.column_bounds(bounds))
        if result.status != "optimal":
            return None, None, result.status
        values = {name: float(v) for name, v in zip(problem.variable_order(), result.x)}
        objective = -float(result.fun)  # we minimised the negated objective
        return values, objective, "optimal"

    def _most_fractional(self, problem: MILPProblem, values: Dict[str, float]) -> Optional[str]:
        best_name = None
        best_frac = self.tol
        for name, var in problem.variables.items():
            if not var.is_integral:
                continue
            value = values[name]
            # Distance from the nearest integer measures "fractionality".
            frac = abs(value - round(value))
            if frac > best_frac:
                best_frac = frac
                best_name = name
        return best_name

    # ------------------------------------------------------------ warm start
    def _seed_incumbent(
        self, problem: MILPProblem, warm_start: Optional[Mapping[str, float]]
    ) -> Tuple[Optional[Dict[str, float]], float, bool]:
        """Validate a warm start against the *current* problem.

        The previous epoch's solution is only a valid incumbent if it is still
        feasible after the problem drifted (demand moved, bounds changed); its
        objective is re-evaluated under the current objective, which is the
        bound reuse the re-planner relies on.  Integral variables are rounded
        exactly before the feasibility check.
        """
        rounded = problem.validated_assignment(warm_start)
        if rounded is None:
            return None, -np.inf, False
        return rounded, problem.objective_value(rounded), True

    # ----------------------------------------------------------------- solve
    def solve(
        self, problem: MILPProblem, *, warm_start: Optional[Mapping[str, float]] = None
    ) -> MILPSolution:
        """Solve ``problem`` to optimality (or until the node limit).

        ``warm_start`` optionally seeds the incumbent from a previous solution
        of a drifted instance of the same problem (see the class docs).
        """
        counter = itertools.count()
        root_bounds: Bounds = {}
        lp_solves = 0

        incumbent, incumbent_obj, warm_used = self._seed_incumbent(problem, warm_start)

        mats = problem.to_matrices()
        lp = LinearProgram(mats["c"], mats["A_ub"], mats["b_ub"], mats["A_eq"], mats["b_eq"])
        values, bound, status = self._solve_relaxation(problem, lp, root_bounds)
        lp_solves += 1
        self.total_lp_solves += 1
        if status == "infeasible":
            return MILPSolution(status=SolveStatus.INFEASIBLE, lp_solves=lp_solves)
        if status == "unbounded":
            return MILPSolution(status=SolveStatus.UNBOUNDED, lp_solves=lp_solves)
        if status == "error" or values is None or bound is None:
            return MILPSolution(status=SolveStatus.ERROR, lp_solves=lp_solves)

        heap: list[_Node] = [
            _Node(
                neg_bound=-bound,
                seq=next(counter),
                bounds=root_bounds,
                relaxation=(values, bound),
            )
        ]
        nodes = 0

        while heap and nodes < MAX_NODES:
            node = heapq.heappop(heap)
            nodes += 1
            # Prune against the incumbent.  With a warm start whose objective
            # already matches the root relaxation bound this fires on the root
            # itself and the solve finishes after one LP.
            if -node.neg_bound <= incumbent_obj + MIP_GAP:
                continue
            if node.relaxation is not None:
                values, bound = node.relaxation
            else:
                values, bound, status = self._solve_relaxation(problem, lp, node.bounds)
                lp_solves += 1
                self.total_lp_solves += 1
                if status != "optimal" or values is None or bound is None:
                    continue
            if bound <= incumbent_obj + MIP_GAP:
                continue
            branch_var = self._most_fractional(problem, values)
            if branch_var is None:
                # Integral solution: round integral vars exactly and accept.
                rounded = {
                    name: (round(v) if problem.variables[name].is_integral else v)
                    for name, v in values.items()
                }
                obj = problem.objective_value(rounded)
                if obj > incumbent_obj and problem.is_feasible(rounded, tol=ACCEPT_TOL):
                    incumbent_obj = obj
                    incumbent = rounded
                continue
            value = values[branch_var]
            floor_v = float(np.floor(value))
            ceil_v = float(np.ceil(value))
            lo, hi = node.bounds.get(branch_var, (-np.inf, None))

            down_bounds = dict(node.bounds)
            down_bounds[branch_var] = (lo, floor_v if hi is None else min(hi, floor_v))
            up_bounds = dict(node.bounds)
            up_bounds[branch_var] = (max(lo, ceil_v), hi)
            for child in (down_bounds, up_bounds):
                heapq.heappush(heap, _Node(neg_bound=-bound, seq=next(counter), bounds=child))

        if incumbent is None:
            status_out = SolveStatus.NODE_LIMIT if heap else SolveStatus.INFEASIBLE
            return MILPSolution(status=status_out, nodes_explored=nodes, lp_solves=lp_solves)
        status_out = (
            SolveStatus.OPTIMAL if not heap or nodes < MAX_NODES else SolveStatus.NODE_LIMIT
        )
        return MILPSolution(
            status=status_out,
            objective=incumbent_obj,
            values=incumbent,
            nodes_explored=nodes,
            lp_solves=lp_solves,
            warm_start_used=warm_used,
        )
