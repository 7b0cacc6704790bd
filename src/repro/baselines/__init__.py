"""The serving systems compared in the evaluation (Table 1).

* **Clipper-Light / Clipper-Heavy** — static, query-agnostic systems that send
  every query to a single model variant (Crankshaw et al., 2017).
* **Proteus** — dynamic model scaling driven by demand, but with
  content-agnostic random routing across variants (Ahmad et al., 2024).
* **DiffServe-Static** — query-aware cascade with a discriminator, but
  provisioned statically for peak demand and a fixed threshold.
* **DiffServe** — the adaptive, MILP-driven cascade (this work).

Each is one record of :data:`~repro.baselines.registry.SYSTEMS`, built by
:func:`~repro.baselines.registry.build_system`.
"""

from repro.baselines.clipper import ClipperPolicy
from repro.baselines.proteus import ProteusPolicy
from repro.baselines.static_diffserve import PeakProvisionedPolicy
from repro.baselines.registry import (
    SYSTEMS,
    baseline_table_rows,
    build_system,
    render_baseline_table,
)

__all__ = [
    "ClipperPolicy",
    "ProteusPolicy",
    "PeakProvisionedPolicy",
    "SYSTEMS",
    "build_system",
    "baseline_table_rows",
    "render_baseline_table",
]
