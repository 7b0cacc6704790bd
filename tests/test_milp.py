"""Tests for the MILP toolkit (problem construction, HiGHS MIP and exhaustive solvers)."""

import numpy as np
import pytest

from repro.milp.exhaustive import ExhaustiveSolver
from repro.milp.highs import WARM_MARGIN, HighsMILPSolver
from repro.milp.problem import ACCEPT_TOL, MILPProblem, Variable
from repro.milp.solution import SolveStatus


def knapsack_problem():
    """A tiny knapsack: maximise 10a + 6b + 4c s.t. 5a + 4b + 3c <= 8, binary."""
    p = MILPProblem("knapsack")
    for name in ("a", "b", "c"):
        p.add_binary(name)
    p.set_objective({"a": 10, "b": 6, "c": 4})
    p.add_le({"a": 5, "b": 4, "c": 3}, 8)
    return p


def test_problem_construction_and_validation():
    p = MILPProblem()
    p.add_integer("x", lower=0, upper=5)
    p.add_continuous("y", lower=0, upper=1)
    with pytest.raises(ValueError):
        p.add_integer("x")  # duplicate
    with pytest.raises(KeyError):
        p.add_le({"z": 1.0}, 1.0)  # unknown variable
    with pytest.raises(KeyError):
        p.set_objective({"z": 1.0})
    with pytest.raises(ValueError):
        Variable(name="bad", lower=2.0, upper=1.0)


def test_is_feasible_checks_bounds_integrality_and_constraints():
    p = MILPProblem()
    p.add_integer("x", lower=0, upper=5)
    p.add_le({"x": 1.0}, 3.0)
    assert p.is_feasible({"x": 2.0})
    assert not p.is_feasible({"x": 2.5})  # not integral
    assert not p.is_feasible({"x": 4.0})  # violates constraint
    assert not p.is_feasible({"x": -1.0})  # below bound
    assert not p.is_feasible({})  # missing variable


def test_objective_value():
    p = knapsack_problem()
    assert p.objective_value({"a": 1, "b": 0, "c": 1}) == pytest.approx(14.0)


def test_branch_and_bound_solves_knapsack():
    solution = HighsMILPSolver().solve(knapsack_problem())
    assert solution.is_optimal
    assert solution.objective == pytest.approx(14.0)
    assert solution.get_int("a") == 1 and solution.get_int("c") == 1


def test_exhaustive_solves_knapsack():
    solution = ExhaustiveSolver().solve(knapsack_problem())
    assert solution.is_optimal
    assert solution.objective == pytest.approx(14.0)


def test_mixed_integer_continuous_problem():
    # maximise 3x + y with x integer <= 4.3 constraint region.
    p = MILPProblem()
    p.add_integer("x", lower=0, upper=10)
    p.add_continuous("y", lower=0, upper=10)
    p.set_objective({"x": 3, "y": 1})
    p.add_le({"x": 1, "y": 1}, 6.5)
    p.add_le({"x": 1}, 4.3)
    for solver in (HighsMILPSolver(), ExhaustiveSolver()):
        solution = solver.solve(p)
        assert solution.is_optimal
        assert solution.get_int("x") == 4
        assert solution["y"] == pytest.approx(2.5, abs=1e-5)
        assert solution.objective == pytest.approx(14.5, abs=1e-5)


def test_infeasible_problem_detected():
    p = MILPProblem()
    p.add_integer("x", lower=0, upper=5)
    p.set_objective({"x": 1})
    p.add_ge({"x": 1}, 10)
    for solver in (HighsMILPSolver(), ExhaustiveSolver()):
        assert solver.solve(p).status == SolveStatus.INFEASIBLE


def test_equality_constraints_respected():
    p = MILPProblem()
    p.add_integer("x", lower=0, upper=10)
    p.add_integer("y", lower=0, upper=10)
    p.set_objective({"x": 1, "y": 2})
    p.add_eq({"x": 1, "y": 1}, 7)
    solution = HighsMILPSolver().solve(p)
    assert solution.is_optimal
    assert solution.get_int("x") + solution.get_int("y") == 7
    assert solution.get_int("y") == 7  # maximising prefers all-y


def test_branch_and_bound_matches_exhaustive_on_random_problems():
    rng = np.random.default_rng(42)
    for trial in range(10):
        p = MILPProblem(f"random-{trial}")
        n = 4
        for i in range(n):
            p.add_integer(f"x{i}", lower=0, upper=4)
        p.set_objective({f"x{i}": float(rng.uniform(0.5, 3)) for i in range(n)})
        # Two random <= constraints keep the problem bounded and non-trivial.
        for c in range(2):
            coeffs = {f"x{i}": float(rng.uniform(0.5, 2)) for i in range(n)}
            p.add_le(coeffs, float(rng.uniform(4, 10)))
        mip = HighsMILPSolver().solve(p)
        exh = ExhaustiveSolver().solve(p)
        assert mip.is_optimal and exh.is_optimal
        assert mip.objective == pytest.approx(exh.objective, abs=1e-6)


def test_exhaustive_rejects_unbounded_integer():
    p = MILPProblem()
    p.add_integer("x", lower=0, upper=None)
    p.set_objective({"x": 1})
    with pytest.raises(ValueError):
        ExhaustiveSolver().solve(p)


def test_exhaustive_respects_combination_limit():
    p = MILPProblem()
    for i in range(6):
        p.add_integer(f"x{i}", lower=0, upper=9)
    p.set_objective({"x0": 1})
    with pytest.raises(ValueError):
        ExhaustiveSolver(max_combinations=1000).solve(p)


def test_binary_formulation_to_matrices_roundtrip():
    p = knapsack_problem()
    mats = p.to_matrices()
    assert mats["A_ub"].shape == (1, 3)
    bounds = p.column_bounds()
    assert len(bounds) == 3
    assert all(b == (0.0, 1.0) for b in bounds)
    # Objective is negated for minimisation.
    assert mats["c"][mats["order"].index("a")] == pytest.approx(-10.0)


def test_solution_solve_time_recorded():
    # The deterministic cost of a MIP is its one HiGHS solve.
    solution = HighsMILPSolver().solve(knapsack_problem())
    assert solution.lp_solves == 1


# ------------------------------------------------------------- warm starts
def fraction_problem(demand, *, t1=2.1, t2=1.3, S=16):
    """The allocator's online formulation: max f over (x1, x2, f)."""
    p = MILPProblem("fraction")
    p.add_integer("x1", lower=1, upper=S)
    p.add_integer("x2", lower=0, upper=S)
    p.add_continuous("f", lower=0.0, upper=1.0)
    p.set_objective({"f": 1.0})
    p.add_ge({"x1": t1}, demand, name="light-throughput")
    p.add_le({"f": demand, "x2": -t2}, 0.0, name="heavy-throughput")
    p.add_le({"x1": 1.0, "x2": 1.0}, S, name="device-budget")
    return p


def test_warm_start_seeds_incumbent_and_matches_cold_optimum():
    problem = fraction_problem(14.0)
    cold = HighsMILPSolver().solve(problem)
    assert cold.is_optimal and not cold.warm_start_used

    warm = HighsMILPSolver().solve(problem, warm_start=cold.values)
    assert warm.is_optimal
    assert warm.warm_start_used
    assert warm.objective == pytest.approx(cold.objective)
    assert warm.lp_solves <= cold.lp_solves


def test_warm_start_prunes_root_when_relaxation_is_tight():
    # Low demand: the optimum hits the f <= 1 cap, so a warm incumbent
    # matching it is returned after the one HiGHS solve.
    problem = fraction_problem(2.0)
    cold = HighsMILPSolver().solve(problem)
    assert cold.objective == pytest.approx(1.0)
    warm = HighsMILPSolver().solve(problem, warm_start=cold.values)
    assert warm.is_optimal and warm.warm_start_used
    assert warm.lp_solves == 1


def test_infeasible_warm_start_is_ignored():
    problem = fraction_problem(14.0)
    # x1 too small for the light-throughput constraint at this demand.
    bogus = {"x1": 1.0, "x2": 10.0, "f": 0.9}
    solution = HighsMILPSolver().solve(problem, warm_start=bogus)
    assert solution.is_optimal
    assert not solution.warm_start_used
    assert solution.objective == pytest.approx(HighsMILPSolver().solve(problem).objective)


def test_warm_start_with_missing_variables_is_ignored():
    problem = fraction_problem(14.0)
    solution = HighsMILPSolver().solve(problem, warm_start={"x1": 7.0})
    assert solution.is_optimal
    assert not solution.warm_start_used


def test_solver_counts_lp_relaxations():
    # The counter keeps its name but counts HiGHS solves: one per MIP.
    solver = HighsMILPSolver()
    assert solver.total_lp_solves == 0
    first = solver.solve(fraction_problem(14.0))
    assert first.lp_solves == 1
    assert solver.total_lp_solves == first.lp_solves
    second = solver.solve(fraction_problem(20.0))
    assert solver.total_lp_solves == first.lp_solves + second.lp_solves


def test_row_holding_within_accept_tol_is_accepted():
    """The acceptance contract is ``ACCEPT_TOL``: an assignment whose rows
    hold within it is feasible, for HiGHS as for a warm start and the
    allocator's pair bound.  At this demand seven light workers miss the
    light-throughput row by 5e-7 of ``D``, so ``x1=7, x2=9`` is accepted and
    beats ``x1=8, x2=8``."""
    demand = 7 * 2.1 * (1 + 5e-7)
    problem = fraction_problem(demand)
    assert problem.is_feasible({"x1": 7, "x2": 9, "f": 9 * 1.3 / demand}, tol=ACCEPT_TOL)
    solution = HighsMILPSolver().solve(problem)
    assert solution.is_optimal
    assert solution.get_int("x1") == 7 and solution.get_int("x2") == 9
    assert solution.objective == pytest.approx(0.79592, abs=1e-5)


def test_highs_warm_start_keeps_previous_solution_on_ties():
    p = MILPProblem("ties")
    p.add_integer("x", lower=0, upper=4)
    p.add_integer("y", lower=0, upper=4)
    p.set_objective({"x": 1.0, "y": 1.0})
    p.add_le({"x": 1.0, "y": 1.0}, 4.0)
    # Many assignments reach the optimum 4; a feasible warm start at the
    # optimum must be returned verbatim (plan stability under ties), as the
    # exhaustive solver returns it.
    solution = HighsMILPSolver().solve(p, warm_start={"x": 1.0, "y": 3.0})
    assert solution.is_optimal and solution.warm_start_used
    assert solution.objective == pytest.approx(4.0)
    assert solution.values == {"x": 1, "y": 3}


def test_highs_replaces_a_warm_start_it_beats_by_more_than_the_margin():
    p = MILPProblem("margin")
    p.add_integer("x", lower=0, upper=4)
    p.add_continuous("y", lower=0.0, upper=1.0)
    p.set_objective({"x": 1.0, "y": 1.0})
    p.add_le({"x": 1.0}, 3.0)
    # Within the margin the incumbent stands; beyond it HiGHS's optimum wins.
    kept = HighsMILPSolver().solve(p, warm_start={"x": 3.0, "y": 1.0 - WARM_MARGIN / 2})
    assert kept.values == {"x": 3, "y": 1.0 - WARM_MARGIN / 2} and kept.warm_start_used
    beaten = HighsMILPSolver().solve(p, warm_start={"x": 2.0, "y": 1.0})
    assert beaten.warm_start_used
    assert beaten.get_int("x") == 3 and beaten.objective == pytest.approx(4.0)


# --------------------------------------------- exhaustive closed-form path
def test_exhaustive_single_continuous_runs_without_lps():
    solver = ExhaustiveSolver()
    problem = fraction_problem(8.0, S=6)
    solution = solver.solve(problem)
    reference = HighsMILPSolver().solve(problem)
    assert solution.is_optimal
    assert solution.objective == pytest.approx(reference.objective)
    assert solution.lp_solves == 0
    assert solver.total_lp_solves == 0
    assert problem.is_feasible(solution.values, tol=1e-6)


def test_exhaustive_single_continuous_equality_pin():
    p = MILPProblem("pin")
    p.add_integer("x", lower=0, upper=3)
    p.add_continuous("y", lower=0.0, upper=10.0)
    p.set_objective({"x": 1.0, "y": 1.0})
    p.add_eq({"y": 2.0, "x": 1.0}, 4.0)  # y = (4 - x) / 2
    solution = ExhaustiveSolver().solve(p)
    assert solution.is_optimal
    # x=0 gives y=2 (obj 2); x=3 gives y=0.5 (obj 3.5) — the max.
    assert solution.objective == pytest.approx(3.5)
    assert solution.values["x"] == pytest.approx(3.0)
    assert solution.lp_solves == 0


def test_exhaustive_warm_start_keeps_previous_solution_on_ties():
    p = MILPProblem("ties")
    p.add_integer("x", lower=0, upper=4)
    p.add_integer("y", lower=0, upper=4)
    p.set_objective({"x": 1.0, "y": 1.0})
    p.add_le({"x": 1.0, "y": 1.0}, 4.0)
    # Many assignments reach the optimum 4; a feasible warm start at the
    # optimum must be returned verbatim (plan stability under ties).
    warm = {"x": 1.0, "y": 3.0}
    solution = ExhaustiveSolver().solve(p, warm_start=warm)
    assert solution.is_optimal and solution.warm_start_used
    assert solution.objective == pytest.approx(4.0)
    assert solution.values == {"x": 1, "y": 3}


def test_exhaustive_infeasible_warm_start_ignored():
    p = fraction_problem(8.0, S=6)
    solution = ExhaustiveSolver().solve(p, warm_start={"x1": 1.0, "x2": 1.0, "f": 1.0})
    assert solution.is_optimal
    assert not solution.warm_start_used
