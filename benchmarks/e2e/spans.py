"""Span recording for the benchmark's traced pass.

The simulator is measured from outside: :func:`instrument` replaces public
methods of ``repro`` classes and modules with wrappers that record one span
per call (name, start, end, parent span, pass id) in a :class:`Tracer`, and
restores the originals on exit.  Nothing under ``src/`` changes, and the
timed passes run with no wrapper installed.

Spans nest by call stack: the innermost open span is the parent of the next
one, and a span's self time is its duration minus the time its children
cover.  Spans live in memory until :meth:`Tracer.chrome_trace` renders them
as Chrome trace-event JSON, which Perfetto and ``chrome://tracing`` open.

Spans inside pool workers and shard processes are out of reach: those
processes import ``repro`` afresh, without the wrappers.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import itertools
import os
import statistics
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """In-memory span store with per-name aggregates."""

    def __init__(self) -> None:
        self.origin = perf_counter()
        #: ``[span id, name, start, end, parent id, pass id, child seconds]``;
        #: parent id 0 marks a span opened outside any other span.
        self.spans: List[list] = []
        #: Per-name sums of a size the wrapper extracts from the call
        #: arguments (e.g. the batch length of a worker batch).
        self.sizes: Dict[str, int] = {}
        #: ``self`` objects of instrumented calls, per span name, so counters
        #: they keep (e.g. a solver's LP count) can be read after the pass.
        self.receivers: Dict[str, List[object]] = {}
        self.pass_id = 0
        self._stack: List[list] = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def in_pass(self, pass_id: int) -> Iterator[None]:
        """Tag every span opened inside the block with ``pass_id``."""
        previous, self.pass_id = self.pass_id, pass_id
        try:
            yield
        finally:
            self.pass_id = previous

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        size: Optional[Callable[[tuple], int]] = None,
        keep_receiver: bool = False,
    ) -> Callable:
        """``fn`` with a span recorded around every call."""
        spans = self.spans
        stack = self._stack
        sizes = self.sizes
        ids = self._ids
        receivers = self.receivers.setdefault(name, []) if keep_receiver else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            record = [next(ids), name, perf_counter(), 0.0,
                      parent[0] if parent is not None else 0, self.pass_id, 0.0]
            stack.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                record[3] = end
                if parent is not None:
                    parent[6] += end - record[2]
                spans.append(record)
                if size is not None:
                    sizes[name] = sizes.get(name, 0) + size(args)
                if receivers is not None and args[0] not in receivers:
                    receivers.append(args[0])

        return traced

    # ------------------------------------------------------------ aggregates
    def only(self, pass_id: int) -> "Tracer":
        """A view holding only the spans of one pass."""
        view = copy.copy(self)
        view.spans = [s for s in self.spans if s[5] == pass_id]
        return view

    def of(self, name: str) -> List[list]:
        """Spans called ``name``."""
        return [s for s in self.spans if s[1] == name]

    def count(self, name: str) -> int:
        """How many ``name`` spans were recorded."""
        return len(self.of(name))

    def total(self, name: str) -> float:
        """Summed duration of the ``name`` spans (seconds)."""
        return sum(s[3] - s[2] for s in self.of(name))

    def self_total(self, name: str) -> float:
        """Summed self time of the ``name`` spans (seconds)."""
        return sum(s[3] - s[2] - s[6] for s in self.of(name))

    def median_ms(self, name: str) -> float:
        """Median ``name`` span duration in milliseconds (0 without spans)."""
        durations = [1e3 * (s[3] - s[2]) for s in self.of(name)]
        return statistics.median(durations) if durations else 0.0

    def covered(self) -> float:
        """Summed self time of every span: the wall time spans account for."""
        return sum(s[3] - s[2] - s[6] for s in self.spans)

    # ---------------------------------------------------------------- export
    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (complete ``X`` events)."""
        pid = os.getpid()
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": pass_id,
                "args": {
                    "span": span_id,
                    "parent": parent,
                    "pass": pass_id,
                    "self_us": round((end - start - child) * 1e6, 3),
                },
            }
            for span_id, name, start, end, parent, pass_id, child in sorted(
                self.spans, key=lambda s: s[2]
            )
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _targets() -> List[Tuple[object, str, str, dict]]:
    """``(owner, attribute, span name, wrap options)`` for every layer boundary.

    Each span name is ``<layer>.<operation>``; the layer is the ``repro``
    module the call enters.
    """
    from repro.core import geo, load_balancer, results, sharding, system, worker
    from repro.core.allocator import DiffServeAllocator
    from repro.discriminators.base import Discriminator
    from repro.experiments import harness
    from repro.models.generation import ImageGenerator
    from repro.runner import artifacts, cache, executor
    from repro.workloads.base import ArrivalProcess

    targets = [
        (system.ServingSimulation, "run", "simulator.run", {}),
        (load_balancer.LoadBalancer, "submit", "load_balancer.submit", {}),
        (load_balancer.LoadBalancer, "requeue", "load_balancer.requeue", {}),
        # The batch-completion handler is the one place a whole worker batch
        # runs synchronously (generate, score, deliver), so it is the worker
        # layer's boundary even though it is not public.
        (worker.Worker, "_complete_batch", "worker.batch", {"size": lambda a: len(a[1])}),
        (ImageGenerator, "generate_batch", "models.generate", {}),
        (results.ResultCollector, "complete", "results.complete", {}),
        (results.SimulationResult, "summary", "results.summary", {}),
        (results.SimulationResult, "fid", "metrics.fid", {}),
        (results.ColumnStore, "concat", "sharding.concat", {}),
        (results.SimulationResult, "from_columns", "sharding.from_columns", {}),
        (DiffServeAllocator, "plan", "allocator.plan", {"keep_receiver": True}),
        (geo.GeoRouter, "route", "geo.route", {}),
        (sharding.ShardSupervisor, "run", "sharding.supervisor", {}),
        (cache.ArtifactCache, "get", "runner.cache_get", {}),
        (cache.ArtifactCache, "put", "runner.cache_put", {}),
        (artifacts, "cached_dataset", "runner.dataset", {}),
        (artifacts, "cached_default_discriminator", "runner.discriminator", {}),
        (harness, "build_comparison_systems", "runner.build", {}),
        (executor, "run_grid", "runner.grid", {}),
    ]
    # Abstract interfaces: wrap every class that defines its own override.
    for base, attr, name in (
        (Discriminator, "confidence_batch", "discriminators.score"),
        (ArrivalProcess, "sample", "workloads.sample"),
    ):
        pending = [base]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            method = cls.__dict__.get(attr)
            if method is not None and not getattr(method, "__isabstractmethod__", False):
                targets.append((cls, attr, name, {}))
    return targets


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Install span wrappers on every layer boundary; restore them on exit."""
    installed = []
    try:
        for owner, attr, name, options in _targets():
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(tracer.wrap(original.__func__, name, **options))
            else:
                replacement = tracer.wrap(original, name, **options)
            setattr(owner, attr, replacement)
            installed.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)
