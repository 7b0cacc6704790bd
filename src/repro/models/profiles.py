"""Execution-latency profiles for model variants.

The paper profiles the execution latency of each diffusion model variant for
every batch size offline and feeds the profile to both the simulator and the
MILP resource allocator (Section 3.3, "Latency Constraints").  Diffusion model
execution time is highly deterministic, so a parametric profile with a small
multiplicative jitter reproduces the testbed behaviour faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

#: Batch sizes the serving system is allowed to use.  Matches the powers of
#: two typically profiled by serving systems (Clipper, Nexus, Proteus).
DEFAULT_BATCH_SIZES: Tuple[int, ...] = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class LatencyProfile:
    """Latency model for one variant on one device class.

    The execution latency of a batch of ``b`` queries is modelled as::

        latency(b) = fixed_overhead + per_image * b * batching_efficiency(b)

    where ``batching_efficiency(b) = 1 - batching_gain * (1 - 1/b)`` captures
    the sub-linear scaling of batched diffusion inference (larger batches
    amortise attention/kernel launch overheads).  ``batching_gain`` of 0.25
    means a very large batch runs each image ~25% faster than batch size 1.

    Attributes
    ----------
    per_image:
        Per-image execution latency at batch size 1 (seconds).
    fixed_overhead:
        Fixed per-batch overhead (scheduler, tokenizer, VAE decode setup).
    batching_gain:
        Fraction of per-image time saved in the large-batch limit.
    jitter:
        Relative standard deviation of the multiplicative latency noise used
        when sampling execution times (testbed variance; the paper reports a
        ~1% simulator/testbed discrepancy caused by it).
    batch_sizes:
        Batch sizes for which the profile is considered valid.
    """

    per_image: float
    fixed_overhead: float = 0.01
    batching_gain: float = 0.25
    jitter: float = 0.02
    batch_sizes: Tuple[int, ...] = DEFAULT_BATCH_SIZES

    def __post_init__(self) -> None:
        if self.per_image <= 0:
            raise ValueError("per_image latency must be positive")
        if not 0 <= self.batching_gain < 1:
            raise ValueError("batching_gain must be in [0, 1)")
        if self.fixed_overhead < 0:
            raise ValueError("fixed_overhead must be non-negative")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")

    # ------------------------------------------------------------------ math
    def batching_efficiency(self, batch_size: int) -> float:
        """Per-image slowdown factor at ``batch_size`` (1.0 at batch size 1)."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return 1.0 - self.batching_gain * (1.0 - 1.0 / batch_size)

    def latency(self, batch_size: int) -> float:
        """Deterministic execution latency (seconds) of a batch."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return (
            self.fixed_overhead
            + self.per_image * batch_size * self.batching_efficiency(batch_size)
        )

    def throughput(self, batch_size: int) -> float:
        """Steady-state throughput (queries/second) of one worker at ``batch_size``."""
        return batch_size / self.latency(batch_size)

    def sample_latency(self, batch_size: int, rng: Optional[np.random.Generator] = None) -> float:
        """Execution latency with multiplicative jitter (used by the simulator)."""
        base = self.latency(batch_size)
        if rng is None or self.jitter == 0:
            return base
        factor = float(np.exp(rng.normal(0.0, self.jitter)))
        return base * factor

    # ---------------------------------------------------------- device classes
    def scaled(self, speed_factor: float) -> "LatencyProfile":
        """This variant's profile on a device ``speed_factor``x the baseline.

        Profiles are measured on one baseline device class (A100-80GB for the
        built-in zoo); the profile on another class scales both the per-image
        time and the fixed overhead, while the batching behaviour and the
        relative jitter — properties of the model, not the device — carry
        over unchanged.  ``speed_factor == 1`` returns ``self`` so the
        homogeneous default shares the exact profile object.
        """
        if speed_factor <= 0:
            raise ValueError("speed_factor must be positive")
        if speed_factor == 1.0:
            return self
        return LatencyProfile(
            per_image=self.per_image * speed_factor,
            fixed_overhead=self.fixed_overhead * speed_factor,
            batching_gain=self.batching_gain,
            jitter=self.jitter,
            batch_sizes=self.batch_sizes,
        )


@dataclass(frozen=True)
class ModelFootprint:
    """Memory and transfer footprint of one model variant.

    The multi-resource worker model tracks three resources per device —
    memory occupancy, weight-transfer bandwidth, and result egress.  A
    footprint declares how much of each a variant consumes: ``weights_gb``
    is both the device memory a resident copy occupies and the bytes moved
    over the transfer channel when the variant is loaded, and
    ``egress_gb_per_image`` is the result payload shipped per generated
    image through the sending stage.
    """

    weights_gb: float
    egress_gb_per_image: float = 0.003

    def __post_init__(self) -> None:
        if self.weights_gb <= 0:
            raise ValueError("footprint weights_gb must be positive")
        if self.egress_gb_per_image < 0:
            raise ValueError("footprint egress_gb_per_image must be non-negative")

    def token(self) -> str:
        """Canonical string form (cache keys)."""
        return f"{self.weights_gb:g}/{self.egress_gb_per_image:g}"


@dataclass
class ProfiledTable:
    """An empirical latency table measured online, refined via profiling updates.

    The Controller keeps one of these per (variant, worker) pair and blends
    newly observed execution times into the offline profile with an
    exponentially weighted moving average, mirroring how DiffServe updates
    model execution profiles from runtime statistics.
    """

    profile: LatencyProfile
    alpha: float = 0.2
    observed: Dict[int, float] = field(default_factory=dict)

    def observe(self, batch_size: int, latency: float) -> None:
        """Record an observed execution latency for ``batch_size``.

        The first observation is blended against the offline profile, so a
        single outlier cannot overwrite the profiled value.
        """
        if latency <= 0:
            raise ValueError("latency must be positive")
        prev = self.observed.get(batch_size, self.profile.latency(batch_size))
        self.observed[batch_size] = (1 - self.alpha) * prev + self.alpha * latency

    def latency(self, batch_size: int) -> float:
        """Best current latency estimate for ``batch_size``."""
        if batch_size in self.observed:
            return self.observed[batch_size]
        return self.profile.latency(batch_size)

    def throughput(self, batch_size: int) -> float:
        """Best current throughput estimate for ``batch_size``."""
        return batch_size / self.latency(batch_size)


def merge_profiles(profiles: Sequence[LatencyProfile]) -> LatencyProfile:
    """Average several profiles (used for heterogeneous device classes)."""
    if not profiles:
        raise ValueError("need at least one profile")
    return LatencyProfile(
        per_image=float(np.mean([p.per_image for p in profiles])),
        fixed_overhead=float(np.mean([p.fixed_overhead for p in profiles])),
        batching_gain=float(np.mean([p.batching_gain for p in profiles])),
        jitter=float(np.mean([p.jitter for p in profiles])),
        batch_sizes=profiles[0].batch_sizes,
    )
