"""What a fresh interpreter pays to reach HiGHS.

Every CLI start imports :mod:`repro` before it simulates anything; geo
shards and ``run_grid`` pool workers fork with it already imported where the
platform offers ``fork``, and import it themselves elsewhere.
:mod:`repro.milp.highs` loads scipy's HiGHS extension
(``scipy.optimize._highspy._core``) from its file, so that import loads no
scipy subpackage: ``scipy.optimize``'s ``__init__`` alone pulls in
``scipy.linalg``, ``scipy.sparse``, ``scipy.fft`` and more, none of which
the solver calls.  These checks count modules, not
seconds:

* a fresh interpreter that imports what a shard, a pool worker or the CLI
  imports and solves one allocation plan has none of the heavy scipy
  subpackages loaded;
* in either import order (repro first, or ``linprog`` first) the process ends
  with one ``_core`` module object, and the direct path answers bit for bit
  as ``linprog`` does;
* the numpy CSC lowering equals ``scipy.sparse.csc_array``'s canonical form.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse import csc_array

import repro
from repro.milp.highs import csc_lowering

#: scipy subpackages importing repro and solving one plan must not load.
HEAVY = ("scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.stats", "scipy.special")


def _run(script: str) -> dict:
    """Run ``script`` in a fresh interpreter and parse the JSON it prints last."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_worker_imports_and_one_plan_load_no_heavy_scipy_subpackage():
    loaded = _run(
        """
        import json, sys
        import numpy as np
        import repro.core.sharding, repro.experiments.harness, repro.runner.executor
        from repro.core.allocator import ControlContext, DiffServeAllocator
        from repro.core.config import FleetSpec
        from repro.discriminators.deferral import DeferralProfile
        from repro.models.zoo import get_cascade

        cascade = get_cascade("sdturbo")
        profile = DeferralProfile(np.linspace(0.0, 1.0, 41))
        allocator = DiffServeAllocator(cascade.light, cascade.heavy, profile)
        ctx = ControlContext(demand=8.0, slo=cascade.slo, fleet=FleetSpec.homogeneous(16))
        plan = allocator.plan(ctx)
        assert plan.feasible and allocator.solver.total_lp_solves > 0
        print(json.dumps(sorted(sys.modules)))
        """
    )
    assert "scipy.optimize._highspy._core" in loaded
    assert [name for name in HEAVY if name in loaded] == []


_ORDER_SCRIPT = """
    import json, sys
    import numpy as np

    if {repro_first}:
        from repro.milp.highs import LinearProgram
        from scipy.optimize import linprog
    else:
        from scipy.optimize import linprog
        from repro.milp.highs import LinearProgram

    import repro.milp.highs as highs
    from scipy.optimize._highspy import _core, _highs_wrapper

    rng = np.random.default_rng(7)
    same, optimal = [], 0
    for _ in range(20):
        n, m_ub, m_eq = 4, 3, 1
        c = rng.integers(-5, 6, n).astype(float)
        A_ub = rng.integers(-3, 4, (m_ub, n)).astype(float)
        b_ub = rng.integers(0, 10, m_ub).astype(float)
        A_eq = rng.integers(-3, 4, (m_eq, n)).astype(float)
        b_eq = rng.integers(0, 5, m_eq).astype(float)
        bounds = [(0.0, float(rng.integers(1, 6))) for _ in range(n)]
        ref = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
        got = LinearProgram(c, A_ub, b_ub, A_eq, b_eq).solve(bounds)
        status = {{0: "optimal", 2: "infeasible", 3: "unbounded"}}.get(ref.status, "error")
        optimal += status == "optimal"
        same.append(
            got.status == status
            and (status != "optimal" or (got.x.tobytes() == ref.x.tobytes() and got.fun == ref.fun))
        )
    core = sys.modules["scipy.optimize._highspy._core"]
    print(json.dumps({{
        "one_core": core is highs._h is _core is _highs_wrapper._h,
        "optimal": optimal,
        "all_same": all(same),
    }}))
"""


def test_repro_first_then_linprog_shares_one_core():
    result = _run(_ORDER_SCRIPT.format(repro_first=True))
    assert result["one_core"]
    assert result["all_same"] and result["optimal"] > 0


def test_linprog_first_then_repro_shares_one_core():
    result = _run(_ORDER_SCRIPT.format(repro_first=False))
    assert result["one_core"]
    assert result["all_same"] and result["optimal"] > 0


_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.25, 1e-300, 7.0])


@settings(max_examples=200, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    dense=hnp.arrays(
        np.float64,
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        elements=_ENTRIES,
    ),
    zero_cols=st.lists(st.integers(0, 5), max_size=3),
)
def test_csc_lowering_matches_scipy_sparse(dense, zero_cols):
    for col in zero_cols:
        if col < dense.shape[1]:
            dense[:, col] = 0.0
    indptr, indices, data = csc_lowering(dense)
    oracle = csc_array(dense)
    assert indptr.dtype == oracle.indptr.dtype == np.int32
    assert indices.dtype == oracle.indices.dtype
    assert indptr.tolist() == oracle.indptr.tolist()
    assert indices.tolist() == oracle.indices.tolist()
    assert data.dtype == oracle.data.dtype
    assert data.tobytes() == oracle.data.tobytes()


def test_csc_lowering_of_no_rows_and_negative_zero():
    indptr, indices, data = csc_lowering(np.empty((0, 3)))
    assert indptr.tolist() == [0, 0, 0, 0] and indices.size == 0 and data.size == 0
    indptr, indices, data = csc_lowering(np.array([[-0.0, 1.0], [0.0, -0.0]]))
    assert indptr.tolist() == [0, 0, 1] and indices.tolist() == [0] and data.tolist() == [1.0]
