"""Grid execution: serial or process-pool, with summary memoization.

``run_cell_results`` is the single canonical "build systems, run the trace,
collect results" implementation every experiment shares (the per-figure
modules used to hand-roll this loop).  ``run_grid`` executes many cells,
either inline or across a forked process pool with per-cell timeouts and
failure isolation, consulting the artifact cache so previously computed
cells are not re-simulated.

Cells are pure functions of their spec: every random stream inside a cell is
derived from the spec's seed (via :class:`~repro.simulator.rng.RandomStreams`
and seeded generators), so a cell computes byte-identical summaries whether
it runs inline, in a worker process, or on another machine.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeoutError
from contextlib import closing, suppress
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.runner.cache import ArtifactCache, default_cache
from repro.runner.spec import ExperimentGrid, ExperimentSpec

#: Cache namespace for per-cell summary dicts.
SUMMARY_KIND = "summaries"


@dataclass
class CellResult:
    """Outcome of one grid cell."""

    spec: ExperimentSpec
    status: str  # "ok" | "cached" | "error" | "timeout"
    summaries: Dict[str, Dict[str, float]] = field(default_factory=dict)
    error: str = ""

    @property
    def ok(self) -> bool:
        """Whether the cell produced summaries (fresh or cached)."""
        return self.status in ("ok", "cached")


@dataclass
class GridReport:
    """All cell results of one ``run_grid`` invocation, in grid order."""

    cells: List[CellResult]
    jobs: int = 1
    cache_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every cell succeeded."""
        return all(cell.ok for cell in self.cells)

    @property
    def failed(self) -> List[CellResult]:
        """Cells that errored or timed out."""
        return [cell for cell in self.cells if not cell.ok]

    @property
    def cached_count(self) -> int:
        """How many cells were served from the cache."""
        return sum(1 for cell in self.cells if cell.status == "cached")

    def summaries_list(self) -> List[Dict[str, Dict[str, float]]]:
        """Per-cell summaries in grid order (empty dict for failed cells)."""
        return [cell.summaries for cell in self.cells]


def canonical_summaries_json(summaries: Dict[str, Dict[str, float]]) -> str:
    """Byte-stable JSON encoding of a cell's summaries.

    Keys are sorted and floats use ``repr`` (shortest round-trip), so two
    equal summary dicts always serialise to identical bytes — the property
    the parallel-equals-serial acceptance check relies on.
    """
    return json.dumps(summaries, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------
# Single-cell execution
# --------------------------------------------------------------------------


def resolve_workload(spec: ExperimentSpec):
    """The spec's workload scenario as an :class:`~repro.workloads.ArrivalProcess`.

    The workload *shape* (e.g. the azure replay curve) is seeded by the
    scale's seed only; ``spec.trace.seed`` overrides just the arrival
    sampling, so the same shape can be replayed under many realisations.
    Geo cells scale the default QPS range by the topology's total device
    count — the whole point of a geo fleet is demand one cluster can't hold.
    """
    from repro.workloads import cascade_qps_range, make_workload

    topology = spec.resolve_geo()
    num_workers = spec.scale.num_workers if topology is None else topology.total_workers
    return make_workload(
        spec.trace.kind,
        duration=spec.scale.trace_duration,
        qps=spec.trace.qps,
        qps_range=cascade_qps_range(spec.cascade, num_workers),
        seed=spec.scale.seed,
        params=spec.trace.params_dict(),
    )


def resolve_trace(spec: ExperimentSpec):
    """(rate curve, arrival trace) for a spec's workload.

    The arrival sample is drawn from :class:`~repro.simulator.rng.RandomStreams`
    seeded by the spec, so equal specs yield byte-identical traces (and hence
    byte-identical cell summaries) across processes and machines.
    """
    from repro.simulator.rng import RandomStreams

    process = resolve_workload(spec)
    seed = spec.scale.seed if spec.trace.seed is None else spec.trace.seed
    trace = process.sample(RandomStreams(seed))
    return process.rate_curve(), trace


def run_cell_results(
    spec: ExperimentSpec,
    *,
    cache: Optional[ArtifactCache] = None,
    profile_sink: Optional[Dict[str, Dict[str, Tuple[int, float]]]] = None,
) -> Tuple[object, Dict[str, object]]:
    """Run one cell and return ``(rate curve, {system: SimulationResult})``.

    This is the canonical build/run/collect loop: shared components come from
    the artifact cache, every requested system is instantiated with the
    spec's parameter overrides, and each runs the same arrival trace.  Geo
    cells (and explicit ``shards``) run each system through the epoch-
    synchronous shard supervisor instead of the single event loop; both
    paths compute byte-identical summaries for equivalent scenarios.

    Passing ``profile_sink`` (a mutable dict) arms the event-loop profiler on
    every system and fills the sink with ``{system: {event: (fires, secs)}}``
    — merged across shards for sharded cells.  Profiles are live-object
    wall-clock telemetry: they come back only through the sink, never through
    the returned results or the (cacheable) summaries derived from them.
    """
    from repro.experiments.harness import build_comparison_systems, shared_components

    _, dataset, discriminator = shared_components(spec.cascade, spec.scale, cache=cache)
    curve, trace = resolve_trace(spec)
    systems = build_comparison_systems(
        spec.cascade,
        spec.scale,
        anticipated_peak_qps=spec.peak_provision_factor * curve.peak,
        dataset=dataset,
        discriminator=discriminator,
        systems=spec.systems,
        fleet=spec.resolve_fleet(),
        resources=spec.resolve_resources(),
        faults=spec.resolve_faults(),
        autoscale=spec.resolve_autoscale(),
        prices=spec.resolve_prices(),
        **spec.params_dict(),
    )
    if profile_sink is not None:
        for system in systems.values():
            system.profile = True
    topology = spec.resolve_geo()
    if topology is not None or spec.shards > 1:
        from repro.core.sharding import ShardSupervisor, run_sharded
        from repro.simulator.profiling import merge_profiles

        results = {}
        for name, system in systems.items():
            if profile_sink is None:
                results[name] = run_sharded(system, trace, topology=topology, shards=spec.shards)
            else:
                # Drive the supervisor directly: per-shard profiles exist only
                # on the live supervisor object (same rule as shard_timing).
                topo = topology if topology is not None else _single_region_topology(system)
                supervisor = ShardSupervisor(template=system, topology=topo, shards=spec.shards)
                results[name] = supervisor.run(trace)
                profile_sink[name] = merge_profiles(supervisor.shard_profiles.values())
    else:
        results = {name: system.run(trace) for name, system in systems.items()}
        if profile_sink is not None:
            for name, system in systems.items():
                profile_sink[name] = system.last_profile or {}
    return curve, results


def _single_region_topology(system):
    """The degenerate one-region topology ``run_sharded`` builds for shards>1."""
    from repro.core.geo import GeoTopology, RegionSpec

    return GeoTopology(regions=(RegionSpec(name="main", fleet=system.config.fleet),))


def run_cell(
    spec: ExperimentSpec, *, cache: Optional[ArtifactCache] = None
) -> Dict[str, Dict[str, float]]:
    """Run one cell and return its per-system summary dict (uncached)."""
    _, results = run_cell_results(spec, cache=cache)
    return {
        name: {k: float(v) for k, v in result.summary().items()}
        for name, result in results.items()
    }


# --------------------------------------------------------------------------
# Per-cell timeout enforcement
# --------------------------------------------------------------------------


class _CellTimeout(Exception):
    """Raised inside a cell when its wall-clock budget expires."""


class _cell_deadline:
    """Context manager enforcing a wall-clock budget on the current cell.

    Uses ``SIGALRM``/``setitimer`` (available on POSIX; a no-op elsewhere), so
    the budget applies to the cell's own execution time — whether the cell
    runs inline or in a pool worker, and regardless of how long it waited in
    the pool's queue.  The previous handler and timer are restored on exit.

    Code the alarm interrupts may swallow the exception: a C extension's
    module initialisation can, when the alarm lands in an import.  So an
    expired deadline also raises on exit, and the cell's result is dropped.
    """

    def __init__(self, seconds: Optional[float]) -> None:
        self.seconds = seconds
        self.active = bool(seconds) and hasattr(signal, "setitimer")
        self._previous = None
        self._expired = False

    def _timeout(self) -> _CellTimeout:
        return _CellTimeout(f"cell exceeded its {self.seconds}s budget")

    def __enter__(self) -> "_cell_deadline":
        if self.active:
            def _expire(signum, frame):
                self._expired = True
                raise self._timeout()

            self._previous = signal.signal(signal.SIGALRM, _expire)
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            if self._expired and exc_type is None:
                raise self._timeout()


# --------------------------------------------------------------------------
# Process-pool plumbing (module level: the pool pickles each call by name)
# --------------------------------------------------------------------------


def _worker_run_cell(
    spec: ExperimentSpec,
    cache_root: Optional[str],
    cache_enabled: bool,
    cell_timeout: Optional[float],
) -> Tuple[str, Dict[str, Dict[str, float]], str, Dict[str, int]]:
    """Run one cell in a worker process; never raises (failure isolation)."""
    cache = ArtifactCache(root=cache_root, enabled=cache_enabled)
    try:
        with _cell_deadline(cell_timeout):
            summaries = run_cell(spec, cache=cache)
        return ("ok", summaries, "", cache.stats.as_dict())
    except _CellTimeout as exc:
        return ("timeout", {}, str(exc), cache.stats.as_dict())
    except Exception:  # noqa: BLE001 - the whole point is to isolate failures
        return ("error", {}, traceback.format_exc(), cache.stats.as_dict())


def _exit_with_parent(watch_end, parent_end) -> None:
    """Pool worker initializer: end this worker once its parent is gone.

    Only the parent keeps ``parent_end`` open (a forked worker closes the
    copy it inherits here), so ``watch_end`` reads EOF exactly when the
    parent has exited or been killed, even while this worker is running a
    cell.  Without the watch, a worker whose parent was SIGKILLed waits on
    the call queue forever: it holds a write end of that queue itself.
    """
    parent_end.close()

    def watch() -> None:
        with suppress(EOFError):
            watch_end.recv_bytes()  # nothing is ever sent: only EOF ends the wait
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


# --------------------------------------------------------------------------
# Grid execution
# --------------------------------------------------------------------------


def run_grid(
    grid: ExperimentGrid,
    *,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
    use_cache: bool = True,
    cell_timeout: Optional[float] = None,
) -> GridReport:
    """Execute every cell of ``grid`` and return a :class:`GridReport`.

    Parameters
    ----------
    jobs:
        Number of worker processes; ``1`` runs inline (no subprocesses).
    cache:
        Artifact cache (defaults to the environment-resolved cache).  Cell
        summaries found under the spec's cache key are returned without any
        simulation; fresh results are stored for the next invocation.
    use_cache:
        Disable to bypass the cache entirely for this run — no summary
        lookups, and cells recompute their datasets/discriminators instead of
        reading stored artifacts.  The cache on disk is left untouched.
    cell_timeout:
        Per-cell wall-clock budget in seconds, enforced on the cell's own
        execution time (via ``SIGALRM``, so POSIX only; ignored elsewhere) in
        both inline and parallel mode.  An overrunning cell is reported as
        ``status="timeout"`` and the remaining cells continue.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    cache = cache if cache is not None else default_cache()
    # Cells read shared artifacts through this handle; bypassing the cache
    # means they must recompute those too, not just the summaries.
    cell_cache = cache if use_cache else ArtifactCache(root=cache.root, enabled=False)

    cells: List[Optional[CellResult]] = [None] * len(grid)
    pending: List[Tuple[int, ExperimentSpec]] = []
    for index, spec in enumerate(grid):
        if use_cache:
            # The cache key resolves the spec's cascade; an invalid spec must
            # surface as a failed cell, not crash the whole grid.
            try:
                hit = cache.get(SUMMARY_KIND, spec.cache_key)
            except Exception:  # noqa: BLE001 - failure isolation
                cells[index] = CellResult(spec=spec, status="error", error=traceback.format_exc())
                continue
            if hit is not None:
                cells[index] = CellResult(spec=spec, status="cached", summaries=hit)
                continue
        pending.append((index, spec))

    if jobs == 1:
        for index, spec in pending:
            cells[index] = _run_one_inline(spec, cache, cell_cache, use_cache, cell_timeout)
    elif pending:
        _run_pending_pool(pending, cells, jobs, cache, cell_cache, use_cache, cell_timeout)

    report = GridReport(
        cells=[cell for cell in cells if cell is not None],
        jobs=jobs,
        cache_stats=cache.stats.as_dict(),
    )
    return report


def _run_one_inline(
    spec: ExperimentSpec,
    cache: ArtifactCache,
    cell_cache: ArtifactCache,
    use_cache: bool,
    cell_timeout: Optional[float],
) -> CellResult:
    try:
        with _cell_deadline(cell_timeout):
            summaries = run_cell(spec, cache=cell_cache)
    except _CellTimeout as exc:
        return CellResult(spec=spec, status="timeout", error=str(exc))
    except Exception:  # noqa: BLE001 - failure isolation
        return CellResult(spec=spec, status="error", error=traceback.format_exc())
    if use_cache:
        cache.put(SUMMARY_KIND, spec.cache_key, summaries)
    return CellResult(spec=spec, status="ok", summaries=summaries)


def _run_pending_pool(
    pending: List[Tuple[int, ExperimentSpec]],
    cells: List[Optional[CellResult]],
    jobs: int,
    cache: ArtifactCache,
    cell_cache: ArtifactCache,
    use_cache: bool,
    cell_timeout: Optional[float],
) -> None:
    from repro.core.sharding import process_context

    cache_root = str(cell_cache.root) if cell_cache.enabled else None
    # The cells police their own budget; the parent only keeps a generous
    # backstop for cells wedged in uninterruptible native code.
    backstop = None
    if cell_timeout is not None:
        backstop = cell_timeout * len(pending) + 30.0
    timed_out = False
    context = process_context()
    watch_end, parent_end = context.Pipe(duplex=False)
    pool = ProcessPoolExecutor(
        max_workers=min(jobs, len(pending)),
        mp_context=context,
        initializer=_exit_with_parent,
        initargs=(watch_end, parent_end),
    )
    # The pipe closes after the pool has shut down, so no worker sees EOF
    # while it is still being joined.
    with closing(watch_end), closing(parent_end), pool:
        started = time.perf_counter()
        futures = [
            (
                index,
                spec,
                pool.submit(
                    _worker_run_cell, spec, cache_root, cell_cache.enabled, cell_timeout
                ),
            )
            for index, spec in pending
        ]
        for index, spec, future in futures:
            timeout = None
            if backstop is not None:
                timeout = max(backstop - (time.perf_counter() - started), 0.001)
            try:
                status, summaries, error, worker_stats = future.result(timeout=timeout)
            except FutureTimeoutError:
                future.cancel()
                timed_out = True
                cells[index] = CellResult(spec=spec, status="timeout", error="cell timed out")
                continue
            except Exception:  # noqa: BLE001 - e.g. BrokenProcessPool
                cells[index] = CellResult(spec=spec, status="error", error=traceback.format_exc())
                continue
            # Fold the worker's artifact-cache traffic into this run's stats.
            cache.stats.hits += worker_stats.get("hits", 0)
            cache.stats.misses += worker_stats.get("misses", 0)
            cache.stats.puts += worker_stats.get("puts", 0)
            cache.stats.errors += worker_stats.get("errors", 0)
            if status == "ok" and use_cache:
                cache.put(SUMMARY_KIND, spec.cache_key, summaries)
            cells[index] = CellResult(spec=spec, status=status, summaries=summaries, error=error)
        if timed_out:
            # Don't wait for stragglers that already blew their budget: cancel
            # queued futures and hard-kill the worker processes (a running
            # cell cannot be cancelled cooperatively).  The process table must
            # be snapshotted first — shutdown(wait=False) clears it.
            stragglers = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for process in stragglers:
                process.terminate()
