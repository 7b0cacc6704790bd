"""DiffServe reproduction: query-aware model scaling for text-to-image diffusion serving.

The package is organised as:

* :mod:`repro.simulator` — discrete-event simulation substrate.
* :mod:`repro.models` — synthetic diffusion model variants, datasets and
  quality model.
* :mod:`repro.metrics` — FID, SLO and Pareto utilities.
* :mod:`repro.discriminators` — trainable discriminators and the baselines
  they are compared against.
* :mod:`repro.milp` — MILP toolkit (HiGHS branch-and-cut + exhaustive oracle).
* :mod:`repro.core` — the DiffServe serving system (workers, load balancer,
  controller, MILP resource allocator).
* :mod:`repro.baselines` — the five compared systems (Table 1) as records
  behind one :func:`~repro.baselines.registry.build_system`.
* :mod:`repro.traces` — rate curves and concrete arrival traces.
* :mod:`repro.workloads` — the arrival-process scenario engine (Poisson,
  MMPP, diurnal, flash crowd, trace replay) behind one ``ArrivalProcess`` API.
* :mod:`repro.experiments` — one runner per paper figure/table.

Quickstart::

    from repro import FleetSpec, build_system
    from repro.workloads import make_workload

    system = build_system("sdturbo", "diffserve", fleet=FleetSpec.homogeneous(16))
    workload = make_workload("mmpp", duration=120.0, qps=16.0)
    result = system.run(workload)  # sampled from the simulator's own streams
    print(result.summary())
"""

from repro.core.config import DEVICE_CLASSES, DeviceClass, FleetSpec, fleet_from_counts
from repro.baselines.registry import SYSTEMS, build_system
from repro.core.system import ServingSimulation
from repro.models.zoo import CASCADES, MODEL_ZOO, get_cascade, get_variant

__version__ = "0.1.0"

__all__ = [
    "ServingSimulation",
    "build_system",
    "SYSTEMS",
    "DeviceClass",
    "FleetSpec",
    "DEVICE_CLASSES",
    "fleet_from_counts",
    "MODEL_ZOO",
    "CASCADES",
    "get_variant",
    "get_cascade",
    "__version__",
]
