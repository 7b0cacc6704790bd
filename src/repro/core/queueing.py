"""Queueing-delay models.

DiffServe estimates per-model queueing delays with Little's law
``W = L / lambda`` using the queue lengths and per-pool demands collected by
the Controller (Section 3.3).  The "no queuing model" ablation in Section 4.5
replaces this with the heuristic used by prior work (Proteus): assume the
queueing delay is twice the execution latency.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

#: Floor on the arrival rate Little's law divides by (queries/second).
MIN_RATE = 1e-3


class QueueingModel(abc.ABC):
    """Estimates the queueing (waiting) delay of a query at a worker pool."""

    @abc.abstractmethod
    def waiting_time(
        self, queue_length: float, arrival_rate: float, execution_latency: float
    ) -> float:
        """Estimated waiting time (seconds) before a query starts executing.

        Parameters
        ----------
        queue_length:
            Total number of queries currently queued across the pool.
        arrival_rate:
            Arrival rate seen by the pool (queries/second).
        execution_latency:
            Execution latency of one batch at the pool's batch size.
        """


@dataclass
class LittlesLawModel(QueueingModel):
    """Little's law: ``W = L / lambda``, floored at *half* a batch execution.

    The floor accounts for the in-flight batch: even a query arriving at an
    empty queue must wait for the batch currently executing, which on average
    is halfway done — the same residual-service estimate the Load Balancer
    uses for heavy-pool completion times (Section 3.3).  A full-batch floor
    would double-count that residual and over-provision at low load.
    """

    def waiting_time(
        self, queue_length: float, arrival_rate: float, execution_latency: float
    ) -> float:
        if queue_length < 0 or arrival_rate < 0 or execution_latency < 0:
            raise ValueError("inputs must be non-negative")
        rate = max(arrival_rate, MIN_RATE)
        littles = queue_length / rate
        return max(littles, execution_latency / 2.0)


@dataclass
class TwoXExecutionModel(QueueingModel):
    """Prior-work heuristic: queueing delay is a fixed multiple of execution time."""

    multiplier: float = 2.0

    def waiting_time(
        self, queue_length: float, arrival_rate: float, execution_latency: float
    ) -> float:
        if execution_latency < 0:
            raise ValueError("execution_latency must be non-negative")
        return self.multiplier * execution_latency
