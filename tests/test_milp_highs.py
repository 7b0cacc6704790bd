"""The direct HiGHS LP path of ``repro.milp`` against ``scipy.optimize.linprog``.

:class:`repro.milp.highs.LinearProgram` calls scipy's private HiGHS bindings
with the options and model layout ``linprog(method="highs")`` uses, and
promises the same answers bit for bit.  ``linprog`` is the public oracle: on
random LPs, status, ``x`` and objective must match exactly.  A scipy release
that changes the private bindings fails here rather than silently moving a
golden.  The MIP path is checked against ``scipy.optimize.milp`` in
``test_milp_oracle.py``.
"""

import pickle

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.core.allocator import ControlContext, DiffServeAllocator
from repro.core.config import FleetSpec, fleet_from_counts
from repro.milp.highs import LinearProgram
from repro.milp.problem import MILPProblem, Sense

_SETTINGS = dict(max_examples=200, deadline=None, suppress_health_check=list(HealthCheck))
_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def _oracle(problem):
    mats = problem.to_matrices()
    result = linprog(
        c=mats["c"],
        A_ub=mats["A_ub"],
        b_ub=mats["b_ub"],
        A_eq=mats["A_eq"],
        b_eq=mats["b_eq"],
        bounds=problem.column_bounds(),
        method="highs",
    )
    return _STATUS.get(result.status, "error"), result.x, result.fun


def _assert_same(problem):
    status, x, fun = _oracle(problem)
    mats = problem.to_matrices()
    lp = LinearProgram(mats["c"], mats["A_ub"], mats["b_ub"], mats["A_eq"], mats["b_eq"])
    result = lp.solve(problem.column_bounds())
    assert result.status == status
    if status == "optimal":
        assert result.x.tobytes() == x.tobytes()
        assert result.fun == fun
    else:
        assert result.x is None and result.fun is None
    return status


# ------------------------------------------------------------- random LPs
_coeff = st.one_of(
    st.integers(min_value=-5, max_value=5).filter(bool).map(float),
    st.floats(min_value=-4.0, max_value=4.0).filter(lambda v: abs(v) > 1e-3),
)


@st.composite
def lps(draw):
    """Small LPs with LE/GE/EQ rows and bounded, half-bounded and free columns."""
    problem = MILPProblem("random-lp")
    n = draw(st.integers(min_value=1, max_value=5))
    for i in range(n):
        kind = draw(st.sampled_from(["free", "lower", "boxed"]))
        lower = -np.inf if kind == "free" else float(draw(st.integers(-5, 5)))
        upper = None
        if kind == "boxed":
            upper = lower + float(draw(st.integers(0, 10)))
        problem.add_continuous(f"x{i}", lower, upper)
    names = list(problem.variables)
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        coeffs = draw(st.dictionaries(st.sampled_from(names), _coeff, min_size=1))
        sense = draw(st.sampled_from(list(Sense)))
        problem.add_constraint(coeffs, sense, float(draw(st.integers(-10, 10))))
    problem.set_objective(draw(st.dictionaries(st.sampled_from(names), _coeff)))
    return problem


@given(problem=lps())
@settings(**_SETTINGS)
def test_random_lps_match_linprog_bitwise(problem):
    _assert_same(problem)


def test_infeasible_and_unbounded_match_linprog():
    infeasible = MILPProblem("infeasible")
    infeasible.add_continuous("x", 0.0, 10.0)
    infeasible.add_ge({"x": 1.0}, 5.0)
    infeasible.add_le({"x": 1.0}, 3.0)
    infeasible.set_objective({"x": 1.0})
    assert _assert_same(infeasible) != "optimal"

    unbounded = MILPProblem("unbounded")
    unbounded.add_continuous("x", -np.inf, None)
    unbounded.add_continuous("y", 0.0, None)
    unbounded.add_le({"y": 1.0}, 4.0)
    unbounded.set_objective({"x": 1.0, "y": 1.0})
    assert _assert_same(unbounded) != "optimal"

    # Without constraints HiGHS still sees the bounds: an empty row set.
    boxed = MILPProblem("boxed")
    boxed.add_continuous("x", -2.0, 3.0)
    boxed.set_objective({"x": -1.0})
    assert _assert_same(boxed) == "optimal"


# ------------------------------------------------------------ allocators
def _allocator(cascade, profile, discriminator):
    return DiffServeAllocator(
        cascade.light, cascade.heavy, profile, discriminator_latency=discriminator.latency_s
    )


def _cold_ramp():
    return [
        ControlContext(demand=d, slo=5.0, fleet=FleetSpec.homogeneous(16))
        for d in (0.5, 4.0, 10.0, 18.0, 26.0, 32.0)
    ]


def _mixed_fleet():
    fleet = fleet_from_counts({"a100": 4, "l4": 8})
    return [ControlContext(demand=d, slo=5.0, fleet=fleet) for d in (1.0, 5.0, 12.0)]


# ------------------------------------------------------------------ pickle
def test_allocator_pickled_after_plan_replans_identically(
    cascade1, deferral_profile, trained_discriminator
):
    """The HiGHS handle is process-local, never solver state, so an allocator
    that has already solved still pickles into shard and pool processes."""
    allocator = _allocator(cascade1, deferral_profile, trained_discriminator)
    contexts = _cold_ramp()[:3] + _mixed_fleet()[:2]
    first = [allocator.plan(ctx) for ctx in contexts]
    clone = pickle.loads(pickle.dumps(allocator))
    lps_before = allocator.solver.total_lp_solves
    assert clone.solver.total_lp_solves == lps_before
    assert [clone.plan(ctx) for ctx in contexts] == first
    assert [allocator.plan(ctx) for ctx in contexts] == first
    assert clone.solver.total_lp_solves == allocator.solver.total_lp_solves == 2 * lps_before
