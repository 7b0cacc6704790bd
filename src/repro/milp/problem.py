"""Declarative MILP problem description.

A :class:`MILPProblem` holds variables (continuous or integer, bounded),
linear constraints, and a linear objective, and can lower itself to the
``A_ub``/``A_eq`` matrix form that :mod:`repro.milp.highs` hands to HiGHS.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

#: Constraint slack within which both solvers accept an assignment: a warm
#: start (:meth:`MILPProblem.validated_assignment`), HiGHS's MIP optimum (its
#: ``mip_feasibility_tolerance`` too) and an exhaustive LP completion.
#: Callers that bound what a solve can return (the allocator's pair bound)
#: widen their rows by it.
ACCEPT_TOL = 1e-5


class VarType(enum.Enum):
    """Variable domain."""

    CONTINUOUS = "continuous"
    INTEGER = "integer"
    BINARY = "binary"


class Sense(enum.Enum):
    """Constraint sense."""

    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass(frozen=True)
class Variable:
    """A decision variable.

    Attributes
    ----------
    name:
        Unique variable name.
    lower, upper:
        Bounds (``upper`` may be ``None`` for +infinity).
    vtype:
        Domain of the variable.
    """

    name: str
    lower: float = 0.0
    upper: Optional[float] = None
    vtype: VarType = VarType.CONTINUOUS

    def __post_init__(self) -> None:
        if self.upper is not None and self.upper < self.lower:
            raise ValueError(f"variable {self.name}: upper bound below lower bound")
        if self.vtype == VarType.BINARY:
            object.__setattr__(self, "lower", max(0.0, self.lower))
            object.__setattr__(self, "upper", 1.0 if self.upper is None else min(1.0, self.upper))

    @property
    def is_integral(self) -> bool:
        """Whether the variable must take integer values."""
        return self.vtype in (VarType.INTEGER, VarType.BINARY)


@dataclass(frozen=True)
class Constraint:
    """A linear constraint ``sum(coeff * var) SENSE rhs``."""

    coefficients: Mapping[str, float]
    sense: Sense
    rhs: float
    name: str = ""

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("constraint needs at least one coefficient")


class MILPProblem:
    """A mixed-integer linear program.

    The objective is always expressed as *maximisation*; solvers negate
    internally where needed.
    """

    def __init__(self, name: str = "milp") -> None:
        self.name = name
        self.variables: Dict[str, Variable] = {}
        self.constraints: List[Constraint] = []
        self.objective: Dict[str, float] = {}

    # ------------------------------------------------------------ variables
    def add_variable(
        self,
        name: str,
        *,
        lower: float = 0.0,
        upper: Optional[float] = None,
        vtype: VarType = VarType.CONTINUOUS,
    ) -> Variable:
        """Add a decision variable and return it."""
        if name in self.variables:
            raise ValueError(f"variable {name!r} already exists")
        var = Variable(name=name, lower=lower, upper=upper, vtype=vtype)
        self.variables[name] = var
        return var

    def add_integer(self, name: str, lower: float = 0.0, upper: Optional[float] = None) -> Variable:
        """Add an integer variable."""
        return self.add_variable(name, lower=lower, upper=upper, vtype=VarType.INTEGER)

    def add_continuous(
        self, name: str, lower: float = 0.0, upper: Optional[float] = None
    ) -> Variable:
        """Add a continuous variable."""
        return self.add_variable(name, lower=lower, upper=upper, vtype=VarType.CONTINUOUS)

    def add_binary(self, name: str) -> Variable:
        """Add a 0/1 variable."""
        return self.add_variable(name, lower=0.0, upper=1.0, vtype=VarType.BINARY)

    # ----------------------------------------------------------- constraints
    def add_constraint(
        self, coefficients: Mapping[str, float], sense: Sense, rhs: float, name: str = ""
    ) -> Constraint:
        """Add a linear constraint."""
        unknown = set(coefficients) - set(self.variables)
        if unknown:
            raise KeyError(f"constraint references unknown variables: {sorted(unknown)}")
        constraint = Constraint(dict(coefficients), sense, float(rhs), name)
        self.constraints.append(constraint)
        return constraint

    def add_le(self, coefficients: Mapping[str, float], rhs: float, name: str = "") -> Constraint:
        """Add a ``<=`` constraint."""
        return self.add_constraint(coefficients, Sense.LE, rhs, name)

    def add_ge(self, coefficients: Mapping[str, float], rhs: float, name: str = "") -> Constraint:
        """Add a ``>=`` constraint."""
        return self.add_constraint(coefficients, Sense.GE, rhs, name)

    def add_eq(self, coefficients: Mapping[str, float], rhs: float, name: str = "") -> Constraint:
        """Add an ``==`` constraint."""
        return self.add_constraint(coefficients, Sense.EQ, rhs, name)

    # ------------------------------------------------------------- objective
    def set_objective(self, coefficients: Mapping[str, float]) -> None:
        """Set the (maximisation) objective."""
        unknown = set(coefficients) - set(self.variables)
        if unknown:
            raise KeyError(f"objective references unknown variables: {sorted(unknown)}")
        self.objective = dict(coefficients)

    # -------------------------------------------------------------- lowering
    def variable_order(self) -> List[str]:
        """Deterministic variable ordering used in matrix form."""
        return list(self.variables)

    def to_matrices(self) -> Dict[str, object]:
        """Lower to ``A_ub``/``A_eq`` matrix form.

        Column bounds are not part of the lowering: they come from
        :meth:`column_bounds`.

        Returns
        -------
        dict with keys ``c`` (minimisation objective), ``A_ub``, ``b_ub``,
        ``A_eq``, ``b_eq`` and ``order``.
        """
        order = self.variable_order()
        index = {name: i for i, name in enumerate(order)}
        n = len(order)

        c = np.zeros(n)
        for name, coeff in self.objective.items():
            c[index[name]] = -coeff  # maximisation -> minimisation

        A_ub_rows: List[np.ndarray] = []
        b_ub: List[float] = []
        A_eq_rows: List[np.ndarray] = []
        b_eq: List[float] = []
        for con in self.constraints:
            row = np.zeros(n)
            for name, coeff in con.coefficients.items():
                row[index[name]] = coeff
            if con.sense == Sense.LE:
                A_ub_rows.append(row)
                b_ub.append(con.rhs)
            elif con.sense == Sense.GE:
                A_ub_rows.append(-row)
                b_ub.append(-con.rhs)
            else:
                A_eq_rows.append(row)
                b_eq.append(con.rhs)

        return {
            "c": c,
            "A_ub": np.vstack(A_ub_rows) if A_ub_rows else None,
            "b_ub": np.array(b_ub) if b_ub else None,
            "A_eq": np.vstack(A_eq_rows) if A_eq_rows else None,
            "b_eq": np.array(b_eq) if b_eq else None,
            "order": order,
        }

    def column_bounds(self) -> List[Tuple[float, Optional[float]]]:
        """Per-variable ``(lower, upper)`` in :meth:`variable_order` (``None``
        upper is +infinity)."""
        return [(var.lower, var.upper) for var in self.variables.values()]

    # ------------------------------------------------------------ evaluation
    def validated_assignment(
        self, candidate: Optional[Mapping[str, float]], tol: float = ACCEPT_TOL
    ) -> Optional[Dict[str, float]]:
        """Round and feasibility-check a candidate (warm-start) assignment.

        Integral variables are rounded exactly; ``None`` is returned when the
        candidate is ``None``, misses a variable or violates any bound,
        integrality or constraint within ``tol``.  Both solvers use this to validate a
        warm start against the *current* problem, so acceptance stays
        consistent regardless of which solver an instance is routed to.
        """
        if candidate is None:
            return None
        try:
            rounded = {
                name: (round(candidate[name]) if var.is_integral else float(candidate[name]))
                for name, var in self.variables.items()
            }
        except KeyError:
            return None
        if not self.is_feasible(rounded, tol=tol):
            return None
        return rounded

    def objective_value(self, assignment: Mapping[str, float]) -> float:
        """Objective value of an assignment."""
        return float(sum(coeff * assignment[name] for name, coeff in self.objective.items()))

    def is_feasible(self, assignment: Mapping[str, float], tol: float = 1e-6) -> bool:
        """Whether an assignment satisfies all bounds, integrality and constraints."""
        for name, var in self.variables.items():
            if name not in assignment:
                return False
            value = assignment[name]
            if value < var.lower - tol:
                return False
            if var.upper is not None and value > var.upper + tol:
                return False
            if var.is_integral and abs(value - round(value)) > tol:
                return False
        for con in self.constraints:
            lhs = sum(coeff * assignment[name] for name, coeff in con.coefficients.items())
            if con.sense == Sense.LE and lhs > con.rhs + tol:
                return False
            if con.sense == Sense.GE and lhs < con.rhs - tol:
                return False
            if con.sense == Sense.EQ and abs(lhs - con.rhs) > tol:
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"<MILPProblem {self.name!r}: {len(self.variables)} vars, "
            f"{len(self.constraints)} constraints>"
        )
