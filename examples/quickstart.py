"""Quickstart: serve a diffusion model cascade with DiffServe.

Builds the SD-Turbo -> SDv1.5 cascade (Cascade 1 of the paper), trains the
EfficientNet discriminator, runs an Azure-Functions-like workload through the
16-worker cluster simulation, and prints the headline metrics plus how the
Controller moved the confidence threshold as demand changed.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import FleetSpec, build_system
from repro.traces import azure_functions_like_rate
from repro.traces.base import ArrivalTrace


def main() -> None:
    # 1. Build the system: dataset, discriminator and MILP allocator are all
    #    constructed behind this single call.  Any other compared system
    #    ("clipper-light", "clipper-heavy", "proteus", "diffserve-static";
    #    see repro.SYSTEMS) is built the same way.
    system = build_system(
        "sdturbo", "diffserve", fleet=FleetSpec.homogeneous(16), dataset_size=1000
    )

    # 2. Generate a workload: a diurnal trace rescaled to 4-32 queries/second,
    #    like the paper's trace_4to32qps file.
    curve = azure_functions_like_rate(4, 32, duration=360, seed=0)
    trace = ArrivalTrace.from_rate_curve(curve, np.random.default_rng(0))
    print(f"Workload: {len(trace)} queries over {curve.duration:.0f}s "
          f"(peak {curve.peak:.0f} QPS)")

    # 3. Run the simulation.
    result = system.run(trace)

    # 4. Inspect the results.
    summary = result.summary()
    print("\nHeadline metrics")
    for key, value in summary.items():
        print(f"  {key:20s} {value:10.3f}")

    times, thresholds = result.threshold_timeseries()
    print("\nConfidence threshold over time (Controller decisions)")
    for t, thr in zip(times[::4], thresholds[::4]):
        print(f"  t={t:6.1f}s  threshold={thr:5.2f}")

    print("\nLatency: ", result.latency_stats())


if __name__ == "__main__":
    main()
