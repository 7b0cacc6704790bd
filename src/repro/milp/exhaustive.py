"""Exhaustive MILP solver for small, fully bounded integer problems.

Used to cross-check the HiGHS MIP solver in tests and as a fallback
when every variable is integral with small bounded domains (the DiffServe
allocation problem has at most a few thousand candidate assignments).

Problems with at most one continuous variable — the online ``fraction``
formulation of the allocator — are solved without any LP at all: with the
integral variables fixed, every constraint is an interval bound on the single
continuous variable, so its optimum sits at an interval endpoint.  That makes
the exhaustive path pure arithmetic, which is why the allocator prefers it
below a search-space cutoff.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.milp.highs import LinearProgram
from repro.milp.problem import ACCEPT_TOL, MILPProblem, Sense
from repro.milp.solution import MILPSolution, SolveStatus

#: Feasibility slack used when reducing constraints on the single continuous
#: variable (matches the tolerance of :meth:`MILPProblem.is_feasible` checks).
_TOL = 1e-9


class ExhaustiveSolver:
    """Enumerates all integral assignments; continuous variables are optimised
    per assignment (closed form for one variable, an LP otherwise)."""

    def __init__(self, max_combinations: int = 2_000_000) -> None:
        if max_combinations < 1:
            raise ValueError("max_combinations must be >= 1")
        self.max_combinations = max_combinations
        #: Cumulative HiGHS solves, one per continuous LP (stays 0 on the
        #: closed-form path).
        self.total_lp_solves = 0

    def _integer_domains(self, problem: MILPProblem) -> Dict[str, List[int]]:
        domains: Dict[str, List[int]] = {}
        for name, var in problem.variables.items():
            if not var.is_integral:
                continue
            if var.upper is None:
                raise ValueError(
                    f"exhaustive solver requires bounded integer variables; {name!r} is unbounded"
                )
            lo = int(np.ceil(var.lower))
            hi = int(np.floor(var.upper))
            domains[name] = list(range(lo, hi + 1))
        return domains

    def search_space(self, problem: MILPProblem) -> Optional[int]:
        """Number of integral assignments, or ``None`` if any is unbounded."""
        total = 1
        for var in problem.variables.values():
            if not var.is_integral:
                continue
            if var.upper is None:
                return None
            total *= max(int(np.floor(var.upper)) - int(np.ceil(var.lower)) + 1, 0)
        return total

    def solve(
        self, problem: MILPProblem, *, warm_start: Optional[Mapping[str, float]] = None
    ) -> MILPSolution:
        """Enumerate the integral grid and return the best feasible assignment.

        A feasible ``warm_start`` seeds the running best, so assignments that
        cannot strictly beat the previous solution are discarded without
        optimising their continuous part — and ties resolve to the warm
        solution, keeping re-planned allocations stable.
        """
        lp_before = self.total_lp_solves
        domains = self._integer_domains(problem)
        int_names = list(domains)
        cont_names = [n for n, v in problem.variables.items() if not v.is_integral]

        total = 1
        for values in domains.values():
            total *= len(values)
        if total > self.max_combinations:
            raise ValueError(
                f"search space too large for exhaustive solver ({total} combinations)"
            )

        best_obj = -np.inf
        best_values: Optional[Dict[str, float]] = None
        seeded = problem.validated_assignment(warm_start)
        warm_used = seeded is not None
        if seeded is not None:
            best_obj = problem.objective_value(seeded)
            best_values = seeded

        for combo in itertools.product(*(domains[name] for name in int_names)):
            assignment = {name: float(v) for name, v in zip(int_names, combo)}
            if len(cont_names) == 1:
                full = self._optimise_single_continuous(problem, assignment, cont_names[0])
                if full is None:
                    continue
            elif cont_names:
                full = self._optimise_continuous(problem, assignment, cont_names)
                if full is None:
                    continue
            else:
                if not problem.is_feasible(assignment):
                    continue
                full = assignment
            obj = problem.objective_value(full)
            if obj > best_obj:
                best_obj = obj
                best_values = dict(full)

        lp_solves = self.total_lp_solves - lp_before
        if best_values is None:
            return MILPSolution(status=SolveStatus.INFEASIBLE, lp_solves=lp_solves)
        return MILPSolution(
            status=SolveStatus.OPTIMAL,
            objective=best_obj,
            values=best_values,
            lp_solves=lp_solves,
            warm_start_used=warm_used,
        )

    def _optimise_single_continuous(
        self, problem: MILPProblem, fixed: Dict[str, float], cont_name: str
    ) -> Optional[Dict[str, float]]:
        """Closed-form optimum over one continuous variable, integrals fixed.

        Each constraint reduces to a one-sided (or two-sided, for equalities)
        bound on the variable; a linear objective over an interval is
        maximised at an endpoint.
        """
        var = problem.variables[cont_name]
        lo = var.lower
        hi = np.inf if var.upper is None else var.upper
        for con in problem.constraints:
            a = con.coefficients.get(cont_name, 0.0)
            const = sum(
                coeff * fixed[name]
                for name, coeff in con.coefficients.items()
                if name != cont_name
            )
            rhs = con.rhs - const
            if a == 0.0:
                if con.sense == Sense.LE and const > con.rhs + _TOL:
                    return None
                if con.sense == Sense.GE and const < con.rhs - _TOL:
                    return None
                if con.sense == Sense.EQ and abs(const - con.rhs) > _TOL:
                    return None
                continue
            if con.sense == Sense.EQ:
                pinned = rhs / a
                lo = max(lo, pinned)
                hi = min(hi, pinned)
            elif (con.sense == Sense.LE) == (a > 0.0):
                hi = min(hi, rhs / a)
            else:
                lo = max(lo, rhs / a)
        if lo > hi:
            if lo > hi + _TOL:
                return None
            lo = hi = (lo + hi) / 2.0  # degenerate interval within tolerance
        coeff = problem.objective.get(cont_name, 0.0)
        if not np.isfinite(hi) and coeff > 0:
            return None  # unbounded objective for this assignment
        value = hi if coeff > 0 else lo
        if not np.isfinite(value):
            value = lo if np.isfinite(lo) else 0.0
        full = dict(fixed)
        full[cont_name] = float(min(max(value, lo), hi))
        return full

    def _optimise_continuous(
        self, problem: MILPProblem, fixed: Dict[str, float], cont_names: List[str]
    ) -> Optional[Dict[str, float]]:
        """LP over the continuous variables with the integral ones fixed."""
        index = {name: i for i, name in enumerate(cont_names)}
        c = np.zeros(len(cont_names))
        for name, coeff in problem.objective.items():
            if name in index:
                c[index[name]] = -coeff
        A_ub, b_ub, A_eq, b_eq = [], [], [], []
        for con in problem.constraints:
            row = np.zeros(len(cont_names))
            const = 0.0
            for name, coeff in con.coefficients.items():
                if name in index:
                    row[index[name]] = coeff
                else:
                    const += coeff * fixed[name]
            rhs = con.rhs - const
            if con.sense == Sense.LE:
                A_ub.append(row)
                b_ub.append(rhs)
            elif con.sense == Sense.GE:
                A_ub.append(-row)
                b_ub.append(-rhs)
            else:
                A_eq.append(row)
                b_eq.append(rhs)
        bounds = [
            (problem.variables[n].lower, problem.variables[n].upper) for n in cont_names
        ]
        self.total_lp_solves += 1
        result = LinearProgram(
            c,
            np.vstack(A_ub) if A_ub else None,
            np.array(b_ub) if b_ub else None,
            np.vstack(A_eq) if A_eq else None,
            np.array(b_eq) if b_eq else None,
        ).solve(bounds)
        if result.status != "optimal":
            return None
        full = dict(fixed)
        full.update({name: float(v) for name, v in zip(cont_names, result.x)})
        if not problem.is_feasible(full, tol=ACCEPT_TOL):
            return None
        return full
