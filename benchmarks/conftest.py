"""Benchmark harness configuration.

Each ``test_bench_*`` module regenerates one table or figure of the paper at a
reduced scale, asserts the paper's qualitative findings (who wins, by roughly
what factor), and reports the end-to-end runtime via pytest-benchmark.  Run
with ``pytest benchmarks/ --benchmark-only``.
"""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments.harness import BENCH_SCALE, ExperimentScale  # noqa: E402


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    """Smallest experiment scale that preserves the paper's qualitative findings.

    This is the scale the CI ``bench-smoke`` job runs the figure suite at
    (with ``--benchmark-disable``); the runner's artifact cache makes repeat
    runs cheap because the shared dataset/discriminator are content-addressed.
    """
    return BENCH_SCALE
