"""The HiGHS entry point of :mod:`repro.milp`: LPs and MILPs handed straight to HiGHS.

Every solve goes through the HiGHS bindings that :func:`scipy.optimize.linprog`
and :func:`scipy.optimize.milp` themselves call
(``scipy.optimize._highspy._core``), skipping their wrappers, which
re-clean the inputs, re-validate every option and package a full result on
each call.  Two entry points share one lowering to HiGHS's column-wise form:

* :class:`LinearProgram` solves an LP (the exhaustive solver's continuous
  completions);
* :class:`HighsMILPSolver` solves a :class:`~repro.milp.problem.MILPProblem`
  with one call to HiGHS's own branch-and-cut (the allocator's per-pair
  MILP).

The LP path keeps ``linprog(method="highs")``'s answers exactly:

* the handle's options are the ones ``linprog`` sets (presolve on, dual
  simplex, no debug checks, no output);
* the matrix is the same CSC stack of the ``<=`` rows over the ``==`` rows,
  with ``-inf`` row lower bounds on the ``<=`` rows and infinities replaced
  by ``kHighsInf``;
* every solve starts from a cleared solver, so no basis carries over and
  HiGHS returns the same vertex ``linprog`` would;
* HiGHS model statuses map to outcomes as ``linprog`` maps them.

Each path has its own handle, process-local and created on first use.  A
handle never lives on a solver object, because solvers are pickled into
shard and pool processes.

``_core`` is loaded straight from its file rather than imported through the
``scipy.optimize`` package.  The extension is self-contained, but the
package's ``__init__`` pulls in ``scipy.linalg``, ``scipy.sparse``,
``scipy.fft`` and more, none of which the solver calls; that was more than
half of the ~1 s every CLI start (and every shard or pool worker on a
platform without ``fork``) paid to import :mod:`repro`.  The module is
registered in ``sys.modules`` under its canonical name, so a later ``import
scipy.optimize`` finds it there, and an entry scipy made first is reused:
whichever imports it first, a process holds one module object, and the
extension is never initialised twice.  The matrix is lowered to CSC with
numpy for the same reason, so ``scipy.sparse`` is not imported either.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from types import ModuleType
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.milp.problem import ACCEPT_TOL, MILPProblem
from repro.milp.solution import MILPSolution, SolveStatus

_CORE = "scipy.optimize._highspy._core"


def _load_core() -> ModuleType:
    """scipy's HiGHS extension, loaded from its file without importing
    ``scipy.optimize`` and registered in ``sys.modules`` under its own name."""
    core = sys.modules.get(_CORE)
    if core is not None:
        return core
    scipy = importlib.util.find_spec("scipy")
    if scipy is not None and scipy.submodule_search_locations:
        directory = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy")
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(directory, "_core" + suffix)
            if os.path.isfile(path):
                loader = ExtensionFileLoader(_CORE, path)
                spec = importlib.util.spec_from_file_location(_CORE, path, loader=loader)
                core = importlib.util.module_from_spec(spec)
                sys.modules[_CORE] = core
                loader.exec_module(core)
                return core
    raise ImportError("repro.milp needs scipy>=1.15 (for scipy.optimize._highspy._core)")


_h = _load_core()
_simplex = _h.simplex_constants
_INF = _h.kHighsInf

#: HiGHS model statuses with their ``linprog`` outcome; anything else
#: (``kUnboundedOrInfeasible`` included) is an error.
_OUTCOMES = {
    _h.HighsModelStatus.kOptimal: "optimal",
    _h.HighsModelStatus.kInfeasible: "infeasible",
    _h.HighsModelStatus.kModelError: "infeasible",
    _h.HighsModelStatus.kUnbounded: "unbounded",
}

#: The MIP is solved to proven optimality: no relative or absolute gap.
MIP_GAP = 0.0
#: A warm incumbent is returned unless HiGHS's optimum beats it by more than
#: this, so ties resolve toward the previous plan.
WARM_MARGIN = 1e-6

#: Options of each path's handle, beside silence.  The LP path's are the ones
#: ``linprog`` sets.  The MIP path accepts a row, bound or integrality within
#: ``ACCEPT_TOL``: the slack every solver here accepts and the allocator's
#: pair bound assumes.
_OPTIONS = {
    "lp": {
        "presolve": "on",
        "simplex_strategy": _simplex.SimplexStrategy.kSimplexStrategyDual,
        "highs_debug_level": _h.HighsDebugLevel.kHighsDebugLevelNone,
    },
    "mip": {
        "mip_rel_gap": MIP_GAP,
        "mip_abs_gap": MIP_GAP,
        "mip_feasibility_tolerance": ACCEPT_TOL,
    },
}

_handles: Dict[str, "_h._Highs"] = {}


def _highs(path: str) -> "_h._Highs":
    """The process-local HiGHS handle of ``path`` (``lp`` or ``mip``)."""
    highs = _handles.get(path)
    if highs is None:
        options = _h.HighsOptions()
        options.output_flag = False
        options.log_to_console = False
        for name, value in _OPTIONS[path].items():
            setattr(options, name, value)
        highs = _h._Highs()
        if highs.passOptions(options) == _h.HighsStatus.kError:
            raise RuntimeError(f"HiGHS rejected the {path} option set")
        _handles[path] = highs
    return highs


def csc_lowering(dense: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, data)`` of ``dense`` in canonical CSC form, as
    ``scipy.sparse.csc_array(dense)`` builds it: zeros (``-0.0`` included)
    dropped, rows sorted within each column, int32 indices."""
    cols, rows = np.nonzero(dense.T)
    counts = np.bincount(cols, minlength=dense.shape[1])
    indptr = np.zeros(dense.shape[1] + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return indptr, rows.astype(np.int32), dense.T[cols, rows]


def _finite(values: np.ndarray) -> np.ndarray:
    """``values`` (a fresh float array) with +-inf replaced by +-``kHighsInf``."""
    infs = np.isinf(values)
    values[infs] = np.sign(values[infs]) * _INF
    return values


class LPResult(NamedTuple):
    """Outcome of one LP: ``status`` is ``optimal``, ``infeasible``,
    ``unbounded`` or ``error``; ``x`` and ``fun`` (the minimised objective)
    are set only when optimal."""

    status: str
    x: Optional[np.ndarray] = None
    fun: Optional[float] = None


class LinearProgram:
    """``min c @ x`` s.t. ``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq``, lowered
    once to HiGHS's column-wise form.

    The column bounds are given per :meth:`solve`.
    """

    def __init__(
        self,
        c: np.ndarray,
        A_ub: Optional[np.ndarray],
        b_ub: Optional[np.ndarray],
        A_eq: Optional[np.ndarray],
        b_eq: Optional[np.ndarray],
    ) -> None:
        n = len(c)
        A_ub = np.empty((0, n)) if A_ub is None else A_ub
        A_eq = np.empty((0, n)) if A_eq is None else A_eq
        b_ub = np.empty(0) if b_ub is None else np.asarray(b_ub, dtype=float)
        b_eq = np.empty(0) if b_eq is None else np.asarray(b_eq, dtype=float)
        A = np.vstack((A_ub, A_eq))
        indptr, indices, data = csc_lowering(A)
        lp = _h.HighsLp()
        lp.num_col_ = n
        lp.num_row_ = A.shape[0]
        lp.a_matrix_.num_col_ = n
        lp.a_matrix_.num_row_ = A.shape[0]
        lp.a_matrix_.format_ = _h.MatrixFormat.kColwise
        lp.a_matrix_.start_ = indptr
        lp.a_matrix_.index_ = indices
        lp.a_matrix_.value_ = data
        lp.col_cost_ = np.asarray(c, dtype=float)
        lp.row_lower_ = _finite(np.concatenate((np.full(len(b_ub), -np.inf), b_eq)))
        lp.row_upper_ = _finite(np.concatenate((b_ub, b_eq)))
        self._lp = lp

    def solve(self, bounds: Sequence[Tuple[float, Optional[float]]]) -> LPResult:
        """Solve under per-column ``(lower, upper)`` bounds (``None`` upper is
        +infinity), from a cleared solver."""
        return self._run(_highs("lp"), bounds)

    def _run(
        self, highs: "_h._Highs", bounds: Sequence[Tuple[float, Optional[float]]]
    ) -> LPResult:
        lower = np.array([lo for lo, _ in bounds], dtype=float)
        upper = np.array([np.inf if hi is None else hi for _, hi in bounds], dtype=float)
        self._lp.col_lower_ = _finite(lower)
        self._lp.col_upper_ = _finite(upper)
        highs.clearSolver()
        if highs.passModel(self._lp) == _h.HighsStatus.kError:
            return LPResult("infeasible")  # linprog reports kModelError
        ran = highs.run() != _h.HighsStatus.kError
        status = _OUTCOMES.get(highs.getModelStatus(), "error")
        if status != "optimal":
            return LPResult(status)
        if not ran:
            return LPResult("error")
        x = np.array(highs.getSolution().col_value)
        return LPResult("optimal", x, highs.getInfo().objective_function_value)


_STATUSES = {"infeasible": SolveStatus.INFEASIBLE, "unbounded": SolveStatus.UNBOUNDED}


class HighsMILPSolver:
    """Solves a :class:`~repro.milp.problem.MILPProblem` with one call to
    HiGHS's branch-and-cut, proven optimal to a zero gap.

    HiGHS's integral values are rounded exactly, and the rounded assignment
    must hold every bound, row and integrality within
    :data:`~repro.milp.problem.ACCEPT_TOL` to be accepted.

    A caller that re-solves a slowly drifting problem (the online re-planner)
    can pass ``warm_start``, an assignment from the previous solve.  If it is
    feasible for the *current* problem it is returned unless HiGHS's optimum
    beats it by more than :data:`WARM_MARGIN`, so a re-plan keeps the previous
    split on ties.
    """

    def __init__(self) -> None:
        #: HiGHS solves run over the solver's lifetime, one per :meth:`solve`
        #: (a deterministic, wall-clock-independent cost model; the name is
        #: shared with :class:`~repro.milp.exhaustive.ExhaustiveSolver`).
        self.total_lp_solves = 0

    def solve(
        self, problem: MILPProblem, *, warm_start: Optional[Mapping[str, float]] = None
    ) -> MILPSolution:
        """Solve ``problem`` to optimality, keeping a feasible ``warm_start``
        on ties (see the class docs)."""
        incumbent = problem.validated_assignment(warm_start)
        mats = problem.to_matrices()
        lp = LinearProgram(mats["c"], mats["A_ub"], mats["b_ub"], mats["A_eq"], mats["b_eq"])
        lp._lp.integrality_ = [
            _h.HighsVarType.kInteger if var.is_integral else _h.HighsVarType.kContinuous
            for var in problem.variables.values()
        ]
        self.total_lp_solves += 1
        result = lp._run(_highs("mip"), problem.column_bounds())
        optimum = None
        if result.status == "optimal":
            optimum = {
                name: (round(value) if var.is_integral else float(value))
                for (name, var), value in zip(problem.variables.items(), result.x)
            }
            if not problem.is_feasible(optimum, tol=ACCEPT_TOL):
                optimum = None
        if incumbent is not None:
            floor = problem.objective_value(incumbent) + WARM_MARGIN
            if optimum is None or problem.objective_value(optimum) <= floor:
                optimum = incumbent
        if optimum is None:
            status = _STATUSES.get(result.status, SolveStatus.ERROR)
            return MILPSolution(status=status, lp_solves=1)
        return MILPSolution(
            status=SolveStatus.OPTIMAL,
            objective=problem.objective_value(optimum),
            values=optimum,
            lp_solves=1,
            warm_start_used=incumbent is not None,
        )
