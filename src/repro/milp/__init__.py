"""A small mixed-integer linear programming (MILP) toolkit.

The paper solves its resource-allocation problem with Gurobi.  Gurobi is not
available offline, so this package hands each MILP to the branch-and-cut
solver of HiGHS, which ships with scipy (:class:`HighsMILPSolver`), and keeps
an exhaustive enumerator as an independent oracle and as the LP-free path
for small problems.  Both solvers accept the same declarative problem
description and the same warm-start and acceptance rules, and every HiGHS
call goes through :mod:`repro.milp.highs`, which calls scipy's bindings
directly rather than through :func:`scipy.optimize.linprog` or
:func:`scipy.optimize.milp`.
"""

from repro.milp.problem import Constraint, MILPProblem, Sense, Variable, VarType
from repro.milp.solution import MILPSolution, SolveStatus
from repro.milp.highs import HighsMILPSolver
from repro.milp.exhaustive import ExhaustiveSolver

__all__ = [
    "Variable",
    "VarType",
    "Constraint",
    "Sense",
    "MILPProblem",
    "MILPSolution",
    "SolveStatus",
    "HighsMILPSolver",
    "ExhaustiveSolver",
]
