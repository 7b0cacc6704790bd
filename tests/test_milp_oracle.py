"""Both MILP solvers against HiGHS's MIP solver behind ``scipy.optimize.milp``.

``test_milp_highs.py`` checks the LPs bitwise against ``linprog``; this is
the integral check.  Problems come from
:meth:`DiffServeAllocator.build_problem` in four shapes:

* ``homogeneous`` — one A100 class, the paper's problem;
* ``heterogeneous`` — two or three device classes;
* ``reload`` — a reload-aware resource model plus a current plan, which adds
  the continuous reload variables ``r{1,2}[class]`` to the objective;
* ``price`` — a spot price trace on a mixed fleet, which adds the per-class
  placement tie-break.

``HighsMILPSolver`` (the direct path, with the package's acceptance
tolerance) and ``ExhaustiveSolver`` must agree with ``milp``
(``mip_rel_gap=0``) on feasibility and on the optimal objective within 1e-6
relative, and return an assignment that is feasible and scores its own
objective.  Fleets the allocator cannot host (no class fits the light
variant) are skipped.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core.allocator import (
    AllocationPlan,
    ControlContext,
    DiffServeAllocator,
    fleet_order_split,
)
from repro.core.config import FleetSpec, ResourceConfig, fleet_from_counts
from repro.core.pricing import PRICE_TRACES
from repro.discriminators.deferral import DeferralProfile
from repro.milp.exhaustive import ExhaustiveSolver
from repro.milp.highs import HighsMILPSolver
from repro.milp.solution import SolveStatus
from repro.models.zoo import get_cascade

_SETTINGS = dict(max_examples=200, deadline=None, suppress_health_check=list(HealthCheck))

#: Largest integral search space handed to the exhaustive solver.
_EXHAUSTIVE_LIMIT = 50_000

_BATCHES = (1, 2, 4, 8, 16)
_CLASSES = ("a100", "h100", "a10g", "l4", "t4")


def _allocator(cascade_name):
    cascade = get_cascade(cascade_name)
    # build_problem's fraction formulation never reads the profile; any
    # valid profile will do.
    profile = DeferralProfile(np.linspace(0.0, 1.0, 41))
    return DiffServeAllocator(cascade.light, cascade.heavy, profile)


def _oracle(problem):
    """(status, objective) from HiGHS's branch-and-cut, maximisation sense."""
    mats = problem.to_matrices()
    constraints = []
    if mats["A_ub"] is not None:
        constraints.append(LinearConstraint(mats["A_ub"], -np.inf, mats["b_ub"]))
    if mats["A_eq"] is not None:
        constraints.append(LinearConstraint(mats["A_eq"], mats["b_eq"], mats["b_eq"]))
    bounds = problem.column_bounds()
    result = milp(
        mats["c"],
        constraints=constraints,
        integrality=[1 if var.is_integral else 0 for var in problem.variables.values()],
        bounds=Bounds([lo for lo, _ in bounds], [np.inf if hi is None else hi for _, hi in bounds]),
        options={"mip_rel_gap": 0.0},
    )
    status = {0: "optimal", 2: "infeasible"}.get(result.status, f"status-{result.status}")
    return status, None if result.fun is None else -float(result.fun)


def _fleet(draw, homogeneous):
    if homogeneous:
        return FleetSpec.homogeneous(draw(st.integers(min_value=1, max_value=16)))
    names = draw(st.lists(st.sampled_from(_CLASSES), min_size=2, max_size=3, unique=True))
    return fleet_from_counts({name: draw(st.integers(min_value=1, max_value=5)) for name in names})


@st.composite
def problems(draw):
    shape = draw(st.sampled_from(["homogeneous", "heterogeneous", "reload", "price"]))
    allocator = _allocator(draw(st.sampled_from(["sdturbo", "sdxs", "sdxlltn"])))
    # Reload problems come on both fleet kinds; price tie-breaks need a mix.
    homogeneous = shape == "homogeneous" or (shape == "reload" and draw(st.booleans()))
    fleet = _fleet(draw, homogeneous)
    kwargs = {}
    if shape == "reload":
        light = float(draw(st.sampled_from([2.0, 6.0, 12.0, 30.0])))
        heavy = float(draw(st.sampled_from([8.0, 20.0, 60.0])))
        kwargs["resources"] = ResourceConfig.from_weights(
            {allocator.light.name: light, allocator.heavy.name: heavy}
        )
        total = fleet.total_workers
        num_light = draw(st.integers(min_value=0, max_value=total))
        light, heavy = fleet_order_split(
            fleet, num_light, draw(st.integers(min_value=0, max_value=total - num_light))
        )
        kwargs["current_plan"] = AllocationPlan(
            light_assignment=light,
            heavy_assignment=heavy,
            light_batch=1,
            heavy_batch=1,
            threshold=0.5,
        )
    elif shape == "price":
        kwargs["prices"] = PRICE_TRACES[draw(st.sampled_from(["spot-calm", "spot-diurnal"]))]
        kwargs["price_time"] = draw(st.floats(min_value=0.0, max_value=600.0))
        kwargs["revocation_risk"] = {
            name: draw(st.sampled_from([0.0, 0.1, 0.5])) for name, _ in fleet.devices
        }
    ctx = ControlContext(
        demand=draw(st.floats(min_value=0.0, max_value=40.0)), slo=5.0, fleet=fleet, **kwargs
    )
    b1, b2 = draw(st.sampled_from(_BATCHES)), draw(st.sampled_from(_BATCHES))
    try:
        allocator._hostable_classes(fleet, ctx.resources)
    except ValueError:
        assume(False)
    return allocator.build_problem(ctx, b1, b2, max(ctx.demand, 1e-3))


def _agrees(problem, solution, status, objective):
    if status == "infeasible":
        assert solution.status == SolveStatus.INFEASIBLE
        return
    assert status == "optimal"
    assert solution.status == SolveStatus.OPTIMAL
    assert abs(solution.objective - objective) <= 1e-6 * max(1.0, abs(objective))
    assert problem.is_feasible(solution.values)
    assert solution.objective == pytest.approx(problem.objective_value(solution.values))


@given(problem=problems())
@settings(**_SETTINGS)
def test_custom_solvers_match_highs_mip(problem):
    status, objective = _oracle(problem)
    _agrees(problem, HighsMILPSolver().solve(problem), status, objective)
    size = ExhaustiveSolver().search_space(problem)
    if size is not None and size <= _EXHAUSTIVE_LIMIT:
        _agrees(problem, ExhaustiveSolver().solve(problem), status, objective)
