"""Benchmark E2 — Figure 1b: distribution of light-vs-heavy quality difference.

Paper shape asserted: for roughly 20-40% of queries the lightweight model
produces an image at least as good as the heavyweight model ("easy" queries),
under both the PickScore difference and the discriminator-confidence
difference.
"""

import numpy as np
import pytest

from repro.experiments.offline import run_fig1b


@pytest.mark.parametrize("cascade_name", ["sdturbo", "sdxs"])
def test_bench_fig1b(benchmark, bench_scale, cascade_name):
    result = benchmark.pedantic(
        run_fig1b, args=(cascade_name, bench_scale), iterations=1, rounds=1
    )

    # Easy-query fraction in (or near) the paper's 20-40% band.
    assert 0.10 <= result.easy_fraction_pickscore <= 0.55
    assert 0.10 <= result.easy_fraction_confidence <= 0.60

    # CDFs are proper distributions centred near (but mostly below) zero.
    for which in ("pickscore", "confidence"):
        xs, ys = result.cdf(which)
        assert np.all(np.diff(ys) >= 0)
        assert ys[0] >= 0.0 and ys[-1] == pytest.approx(1.0)
        assert xs[0] < 0 < xs[-1]  # both easy and hard queries exist
