"""Azure-Functions-like workload trace.

The paper uses the Microsoft Azure Functions trace (Shahrad et al., 2020) as a
representative real-world workload, rescaled with shape-preserving
transformations to the cluster capacity (e.g. ``trace_4to32qps`` for Cascade
1/2 on 16 workers, ``trace_1to8qps`` for Cascade 3).  The raw trace is not
redistributable, so we synthesise a statistically similar curve: a diurnal
envelope with a pronounced peak, superimposed bursts, and autocorrelated
noise, then rescale it to the requested [min, max] QPS range.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.traces.base import RateCurve


def azure_functions_like_rate(
    min_qps: float,
    max_qps: float,
    duration: float = 360.0,
    *,
    seed: int = 0,
    n_points: int = 240,
    n_bursts: int = 4,
    name: Optional[str] = None,
) -> RateCurve:
    """Synthesise an Azure-Functions-like rate curve.

    Parameters
    ----------
    min_qps, max_qps:
        Target range after shape-preserving rescaling (matching the artifact's
        ``trace_{A}to{B}qps`` naming).
    duration:
        Trace duration in seconds (the artifact's client sends for ~6 minutes).
    seed:
        Seed for burst placement and noise.
    n_points:
        Resolution of the piecewise-linear curve.
    n_bursts:
        Number of short invocation bursts layered on the diurnal envelope.
    """
    if max_qps < min_qps:
        raise ValueError("max_qps must be >= min_qps")
    if duration <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, duration, n_points)

    # Diurnal envelope: trough at the start, peak ~60% of the way through.
    phase = 2 * np.pi * (times / duration) - np.pi / 2
    envelope = 0.5 * (1 + np.sin(phase))
    envelope = envelope**1.4  # sharpen the peak like the Azure invocation counts

    # Bursts: short Gaussian bumps at random positions.
    bursts = np.zeros_like(times)
    for _ in range(n_bursts):
        center = rng.uniform(0.15, 0.9) * duration
        width = rng.uniform(0.02, 0.05) * duration
        height = rng.uniform(0.15, 0.35)
        bursts += height * np.exp(-0.5 * ((times - center) / width) ** 2)

    # Autocorrelated noise (random walk smoothed).
    noise = rng.normal(0.0, 1.0, size=n_points)
    kernel = np.ones(9) / 9.0
    noise = np.convolve(noise, kernel, mode="same")
    noise = 0.05 * noise / max(np.abs(noise).max(), 1e-9)

    shape = np.clip(envelope + bursts + noise, 0.0, None)
    curve = RateCurve(times=times, rates=shape, name=name or f"azure-{min_qps:g}to{max_qps:g}qps")
    return curve.scaled(min_qps, max_qps)


#: Named traces matching the artifact's trace files.
def trace_4to32qps(duration: float = 360.0, seed: int = 0) -> RateCurve:
    """The ``trace_4to32qps`` workload used for Cascades 1-2 on 16 workers."""
    return azure_functions_like_rate(4, 32, duration, seed=seed, name="trace_4to32qps")


def trace_1to8qps(duration: float = 360.0, seed: int = 0) -> RateCurve:
    """The ``trace_1to8qps`` workload used for Cascade 3 on 16 workers."""
    return azure_functions_like_rate(1, 8, duration, seed=seed, name="trace_1to8qps")
