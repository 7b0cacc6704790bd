"""Experiment runners: the paper's figures/tables and the declarative studies.

The sweep figures (``fig4``, ``fig6``, ``fig8``, ``fig9``) and the fleet, geo,
contention, chaos and autoscale studies are records of
:data:`repro.experiments.studies.STUDIES`, served by one ``run_study`` and
printed by one ``main(name)``.  The offline cascade figures (``fig1``,
``fig1c``, ``fig7``) and the reuse study are records of
:data:`repro.experiments.offline.OFFLINE`, each a description and a renderer
over ``run_*`` functions, printed by ``offline.main(name)``.  Every other
figure/table module exposes a ``run_*`` function returning a structured
result object and a ``main()`` that prints the corresponding table.  The
benchmark harness under ``benchmarks/`` calls these runners with reduced
problem sizes; the examples call them at full scale.
"""

from repro.experiments.harness import (
    ExperimentScale,
    build_comparison_systems,
    format_table,
    run_comparison,
)

__all__ = [
    "ExperimentScale",
    "build_comparison_systems",
    "run_comparison",
    "format_table",
]
