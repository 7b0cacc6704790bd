"""Section 4.5: overhead of the MILP resource-allocation solver.

The paper measures the average runtime of the Gurobi MILP solve at ~10 ms and
notes that it never sits on the critical path of query serving.  This module
measures the runtime of the allocator's HiGHS MIP solves across demand
levels, and checks HiGHS against the exhaustive optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Sequence

import numpy as np

from repro.core.allocator import ControlContext, DiffServeAllocator
from repro.core.config import FleetSpec
from repro.discriminators.deferral import DeferralProfile
from repro.experiments.harness import BENCH_SCALE, ExperimentScale, format_table
from repro.milp.exhaustive import ExhaustiveSolver
from repro.milp.highs import HighsMILPSolver
from repro.models.zoo import get_cascade
from repro.runner.artifacts import cached_dataset, cached_default_discriminator

#: HiGHS solves one allocation plan may cost: the sweep solves at most one
#: batch pair per light batch size, of which the allocator has five.  Today's
#: plans take 1-2.
MAX_LPS_PER_PLAN = 5


@dataclass
class MILPOverheadResult:
    """Solver runtimes, LP counts and plan agreement across demand levels."""

    demands: List[float] = field(default_factory=list)
    plan_times_s: List[float] = field(default_factory=list)
    #: HiGHS solves each allocation solve cost, one per batch pair solved
    #: (deterministic, unlike ``plan_times_s``).
    lp_solves: List[int] = field(default_factory=list)
    thresholds: List[float] = field(default_factory=list)
    agreement_with_exhaustive: List[bool] = field(default_factory=list)

    @property
    def mean_time_ms(self) -> float:
        """Mean wall-clock time of one full allocation solve, in milliseconds."""
        return float(np.mean(self.plan_times_s)) * 1e3 if self.plan_times_s else 0.0

    @property
    def max_time_ms(self) -> float:
        """Worst-case allocation solve time in milliseconds."""
        return float(np.max(self.plan_times_s)) * 1e3 if self.plan_times_s else 0.0

    @property
    def always_agrees(self) -> bool:
        """Whether HiGHS matched the exhaustive optimum everywhere."""
        return all(self.agreement_with_exhaustive) if self.agreement_with_exhaustive else True


def run_milp_overhead(
    cascade_name: str = "sdturbo",
    scale: ExperimentScale = BENCH_SCALE,
    *,
    demands: Optional[Sequence[float]] = None,
    num_workers: int = 16,
    slo: Optional[float] = None,
) -> MILPOverheadResult:
    """Measure allocation solve times across demand levels and check each
    chosen pair's HiGHS optimum against the exhaustive one."""
    cascade = get_cascade(cascade_name)
    slo = slo if slo is not None else cascade.slo
    dataset = cached_dataset(cascade.dataset, scale.dataset_size, scale.seed)
    discriminator = cached_default_discriminator(
        dataset, cascade.light, cascade.heavy, seed=scale.seed
    )
    profile = DeferralProfile.profile(discriminator, dataset, cascade.light, seed=scale.seed)
    allocator = DiffServeAllocator(
        cascade.light,
        cascade.heavy,
        profile,
        discriminator_latency=discriminator.latency_s,
    )

    if demands is None:
        demands = np.linspace(2.0, 2.0 * num_workers, 9)

    result = MILPOverheadResult()
    exhaustive = ExhaustiveSolver()
    for demand in demands:
        ctx = ControlContext(
            demand=float(demand),
            slo=slo,
            fleet=FleetSpec.homogeneous(num_workers),
            observed_deferral=0.4,
        )
        lp_before = allocator.solver.total_lp_solves
        start = perf_counter()
        plan = allocator.plan(ctx)
        result.plan_times_s.append(perf_counter() - start)
        result.demands.append(float(demand))
        result.lp_solves.append(allocator.solver.total_lp_solves - lp_before)
        result.thresholds.append(plan.threshold)

        if plan.feasible:
            problem = allocator.build_problem(
                ctx, plan.light_batch, plan.heavy_batch, float(demand) * allocator.over_provision
            )
            mip = HighsMILPSolver().solve(problem)
            exh = exhaustive.solve(problem)
            same = (
                mip.is_optimal
                and exh.is_optimal
                and abs((mip.objective or 0.0) - (exh.objective or 0.0)) < 1e-6
            )
            result.agreement_with_exhaustive.append(bool(same))
    return result


def main(scale: ExperimentScale = BENCH_SCALE) -> str:
    """Measure and print MILP solver overhead."""
    result = run_milp_overhead(scale=scale)
    rows = [
        [f"{d:.1f}", t * 1e3, thr]
        for d, t, thr in zip(result.demands, result.plan_times_s, result.thresholds)
    ]
    output = "\n".join(
        [
            "MILP solver overhead (Section 4.5)",
            format_table(["demand (QPS)", "solve time (ms)", "threshold"], rows),
            f"mean {result.mean_time_ms:.1f} ms, max {result.max_time_ms:.1f} ms, "
            f"matches exhaustive optimum: {result.always_agrees}",
        ]
    )
    print(output)
    return output


if __name__ == "__main__":
    main()
