"""Planning work of the ``fig-cell`` benchmark cell, pinned per DiffServe system.

The end-to-end benchmark times a ``fig-cell`` pass; this test counts the
planning work inside it, which does not depend on the host: how many plans
each DiffServe allocator made, how many batch pairs it solved, how many HiGHS
solves those ran (one MIP per pair solved here; the counter keeps its
``total_lp_solves`` name) and how many pairs the sweep's bounds pruned.
The allocators are the receivers of ``DiffServeAllocator.plan``, recorded as
``benchmarks/e2e/layers.py`` records them.  Every system's control epochs
are pinned too, from its ``replan_history``: each system runs the
Controller's one epoch loop, cold and every 5 s when its policy is dynamic,
never when it is static.

A change that raises a count edits its pin here and says why; a change that
lowers one can claim the saving without wall-clock noise.
"""

import os
import sys

from repro.core.allocator import DiffServeAllocator
from repro.experiments import harness
from repro.runner import executor
from repro.runner.cache import ArtifactCache

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from benchmarks.e2e.suite import WORKLOADS  # noqa: E402

#: system -> (plans, batch pairs solved, HiGHS solves, pairs pruned).
FIG_CELL_PLANNING = {
    "diffserve": (40, 50, 50, 81),
    "diffserve-static": (1, 2, 2, 3),
}

#: system -> (control epochs, epochs that re-solved, epochs warm-started).
FIG_CELL_EPOCHS = {
    "clipper-light": (0, 0, 0),
    "clipper-heavy": (0, 0, 0),
    "proteus": (39, 39, 0),
    "diffserve-static": (0, 0, 0),
    "diffserve": (39, 39, 0),
}


def test_fig_cell_planning_work_is_pinned(monkeypatch, tmp_path):
    receivers, plans, pairs, systems = [], {}, {}, {}
    plan, solve_pair = DiffServeAllocator.plan, DiffServeAllocator._solve_pair
    build = harness.build_comparison_systems

    def recording_plan(self, *args, **kwargs):
        if self not in receivers:
            receivers.append(self)
        plans[self] = plans.get(self, 0) + 1
        return plan(self, *args, **kwargs)

    def counting_solve_pair(self, *args, **kwargs):
        pairs[self] = pairs.get(self, 0) + 1
        return solve_pair(self, *args, **kwargs)

    def recording_build(*args, **kwargs):
        systems.update(build(*args, **kwargs))
        return systems

    monkeypatch.setattr(DiffServeAllocator, "plan", recording_plan)
    monkeypatch.setattr(DiffServeAllocator, "_solve_pair", counting_solve_pair)
    monkeypatch.setattr(harness, "build_comparison_systems", recording_build)
    (spec,) = WORKLOADS["fig-cell"](0).specs
    _, results = executor.run_cell_results(spec, cache=ArtifactCache(root=tmp_path))

    names = {
        system.policy.allocator: name
        for name, system in systems.items()
        if isinstance(getattr(system.policy, "allocator", None), DiffServeAllocator)
    }
    assert sorted(names.values()) == sorted(FIG_CELL_PLANNING)
    work = {
        names[allocator]: (
            plans[allocator],
            pairs.get(allocator, 0),
            allocator.solver.total_lp_solves + allocator.exhaustive_solver.total_lp_solves,
            allocator.pairs_pruned_by_bound,
        )
        for allocator in receivers
    }
    assert work == FIG_CELL_PLANNING
    epochs = {
        name: (
            len(result.replan_history),
            sum(snap.replanned for snap in result.replan_history),
            sum(snap.warm_started for snap in result.replan_history),
        )
        for name, result in results.items()
    }
    assert epochs == FIG_CELL_EPOCHS
