"""Inspect the MILP resource-allocation decisions directly.

Sweeps the estimated demand from trough to peak and prints the plan DiffServe
would deploy at each level: worker split, batch sizes, confidence threshold
and the fraction of queries deferred to the heavyweight model.  Also reports
the solver runtime (Section 4.5 measures ~10ms with Gurobi; HiGHS, which
ships with scipy, is in the same ballpark).

Run with:  python examples/milp_allocation_demo.py
"""

from time import perf_counter

import numpy as np

from repro.core.allocator import ControlContext, DiffServeAllocator
from repro.core.config import FleetSpec
from repro.discriminators.deferral import DeferralProfile
from repro.discriminators.training import train_default_discriminator
from repro.experiments.harness import format_table
from repro.models.dataset import load_dataset
from repro.models.zoo import get_cascade


def main() -> None:
    cascade = get_cascade("sdturbo")
    dataset = load_dataset("coco", n=800, seed=0)
    discriminator = train_default_discriminator(dataset, cascade.light, cascade.heavy, seed=0)
    profile = DeferralProfile.profile(discriminator, dataset, cascade.light, seed=0)
    allocator = DiffServeAllocator(
        cascade.light, cascade.heavy, profile, discriminator_latency=discriminator.latency_s
    )

    rows = []
    solve_times = []
    for demand in np.linspace(2, 32, 11):
        ctx = ControlContext(demand=float(demand), slo=cascade.slo,
                             fleet=FleetSpec.homogeneous(16), observed_deferral=0.4)
        start = perf_counter()
        plan = allocator.plan(ctx)
        solve_times.append(perf_counter() - start)
        rows.append(
            [
                f"{demand:.0f}",
                plan.num_light,
                plan.num_heavy,
                plan.light_batch,
                plan.heavy_batch,
                plan.threshold,
                plan.heavy_fraction,
                f"{solve_times[-1] * 1e3:.1f} ms",
            ]
        )
    print(format_table(
        [
            "demand", "light workers", "heavy workers", "b1", "b2",
            "threshold", "deferral", "solve time",
        ],
        rows,
    ))
    print(f"\nMean allocation solve time: {np.mean(solve_times) * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
