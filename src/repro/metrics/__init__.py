"""Evaluation metrics: FID, SLO violation accounting, latency statistics, Pareto utilities."""

from repro.metrics.accumulators import GaussianStats
from repro.metrics.fid import (
    RealMoments,
    fid_score,
    frechet_distance,
    frechet_from_moments,
    windowed_fid,
)
from repro.metrics.latency import LatencyStats, percentile
from repro.metrics.pareto import ParetoPoint, pareto_frontier, is_pareto_dominated
from repro.metrics.slo import SLOReport

__all__ = [
    "GaussianStats",
    "RealMoments",
    "frechet_distance",
    "frechet_from_moments",
    "fid_score",
    "windowed_fid",
    "LatencyStats",
    "percentile",
    "ParetoPoint",
    "pareto_frontier",
    "is_pareto_dominated",
    "SLOReport",
]
