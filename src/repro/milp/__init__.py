"""A small mixed-integer linear programming (MILP) toolkit.

The paper solves its resource-allocation problem with Gurobi.  Gurobi is not
available offline, so this package provides a from-scratch MILP solver built
on HiGHS LP relaxations with best-first branch-and-bound, plus an exhaustive
enumerator used for cross-checking on small problems.  Both solvers accept the
same declarative problem description, and every LP either of them solves goes
through :mod:`repro.milp.highs`, which calls the HiGHS bindings shipped with
scipy directly rather than through :func:`scipy.optimize.linprog`.
"""

from repro.milp.problem import Constraint, MILPProblem, Sense, Variable, VarType
from repro.milp.solution import MILPSolution, SolveStatus
from repro.milp.branch_and_bound import BranchAndBoundSolver
from repro.milp.exhaustive import ExhaustiveSolver

__all__ = [
    "Variable",
    "VarType",
    "Constraint",
    "Sense",
    "MILPProblem",
    "MILPSolution",
    "SolveStatus",
    "BranchAndBoundSolver",
    "ExhaustiveSolver",
]
