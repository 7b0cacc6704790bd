"""End-to-end benchmark of the DiffServe simulator.

Runs one named workload (see ``suite.py`` and ``README.md``) and prints its
metrics; the last line of standard output is one JSON object::

    python3 benchmarks/e2e/run.py --workload fig-cell --seed 0 --seconds 10 --trace 0

A run measures three things:

1. ``setup_s`` -- the cold set-up (dataset, discriminator, deferral profile,
   trace sampling, system construction) from an empty artifact cache; one
   before the passes and one after each timed pass, reported as the median;
2. the timed passes -- one discarded warm-up pass, then passes over the
   same input until ``--seconds`` of them have run, with tracing and
   profiling off.  The reference kernel (``reference.py``) runs between
   passes, on as many cores as the workload keeps busy, and ``wall_ref`` is
   the median of each pass's wall time divided by the kernel's wall time
   around it: the pass's cost in kernel runs, which a shared, drifting host
   changes far less than the raw seconds (those are printed too);
3. with ``--trace 1``, one more pass with span wrappers and the event-loop
   profiler on, which yields the per-layer metrics instead of the
   end-to-end ones.  ``--trace-out PATH`` writes its spans as Chrome
   trace-event JSON.

Every pass must produce byte-identical summaries and pass the workload's
accounting checks; a failed check makes the run print ``"correct": false``
and exit 1.  ``--workload all`` runs every workload, each in its own child
process.

Everything the run writes (artifact caches, temporary files) lives under
``.bench_e2e/`` at the repository root and is removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Pool and shard workers are spawned and re-import this module, so importing
# it must do nothing beyond making ``repro`` importable.
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402
from compare import quartiles  # noqa: E402
from repro.runner.cache import ArtifactCache  # noqa: E402

#: Cold set-ups per run, at least; ``setup_s`` is their median.
SETUP_REPS = 7
#: Timed passes per run, however long they take.
MIN_PASSES = 3


def peak_rss_mb() -> float:
    """Peak resident set of this process or any of its (waited-for) children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def sim_metrics(arms):
    """The ``sim_*`` metrics from the reporting arm's summary of every cell.

    A multi-cell workload reports the mean FID and the largest p99 over its
    cells.
    """
    return {
        "sim_fid": statistics.fmean(arm["fid"] for arm in arms),
        "sim_p99_latency_s": max(arm["p99_latency"] for arm in arms),
    }


def measure(workload: suite.Workload, seconds: float, trace: bool, scratch: Path):
    """Set up, warm up, time and (optionally) trace one workload.

    Returns ``(result JSON, report lines, tracer or None)``.
    """
    setups = []

    def cold_setup():
        cache = ArtifactCache(root=scratch / f"cache-{len(setups)}")
        start = perf_counter()
        workload.setup(cache)
        setups.append(perf_counter() - start)
        return cache.root

    # The passes read the artifacts of the first set-up.  The others are
    # spread over the run, one after each timed pass, so their median
    # samples the host over the whole run rather than over its first second.
    warm_root = cold_setup()

    def one_pass():
        cache = ArtifactCache(root=warm_root)
        result = workload.run_pass(cache, traced=False)
        result.checks += workload.after_pass(cache, result, traced=False)
        # Untimed passes keep nothing heavy alive, so peak RSS does not grow
        # with the number of passes.
        result.detail.clear()
        return result

    warmup = one_pass()
    kernel = reference.Reference(workload.cores)
    try:
        refs = [kernel.seconds(), kernel.seconds()]
        passes, costs = [], []
        start = perf_counter()
        while len(passes) < MIN_PASSES or (
            perf_counter() - start + statistics.median(p.wall for p in passes) <= seconds
        ):
            passes.append(one_pass())
            refs.append(kernel.seconds())
            costs.append(passes[-1].wall / statistics.fmean(refs[-2:]))
            cold_setup()
    finally:
        kernel.close()
    while len(setups) < SETUP_REPS:
        cold_setup()
    c1, cost, c3 = quartiles(costs)
    w1, wall, w3 = quartiles([p.wall for p in passes])

    tracer = traced = None
    if trace:
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            cache = ArtifactCache(root=warm_root)
            with tracer.in_pass(layers.TRACED_PASS):
                traced = workload.run_pass(cache, traced=True)
            with tracer.in_pass(layers.AFTER_PASS):
                traced.checks += workload.after_pass(cache, traced, traced=True)

    checked = [warmup, *passes] + ([traced] if traced else [])
    checks = [check for p in checked for check in p.checks]
    checks.append(
        (
            "every pass produced byte-identical summaries",
            all(p.summaries == warmup.summaries for p in checked),
        )
    )
    failed = [name for name, ok in checks if not ok]
    attempted = sum(p.operations for p in passes) + len(checks)

    lines = [
        f"workload {workload.name}, seed {workload.seed}: {len(passes)} timed passes, "
        f"{warmup.queries} simulated queries per pass",
        f"  wall per pass: median {wall:.4f} s, quartiles {w1:.4f} .. {w3:.4f} s",
        f"  reference kernel on {workload.cores} core(s): "
        f"median {statistics.median(refs):.4f} s over {len(refs)} runs",
        f"  pass cost: median {cost:.3f} refs, quartiles {c1:.3f} .. {c3:.3f}",
        f"  set-up: {len(setups)} cold set-ups, "
        f"median {statistics.median(setups):.4f} s (min {min(setups):.4f} s)",
        f"  checks: {len(checks) - len(failed)}/{len(checks)} passed",
        *(f"  FAILED: {name}" for name in failed),
    ]
    if traced is None:
        metrics = {
            "wall_ref": cost,
            "sim_queries_per_ref": warmup.queries / cost,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
            **sim_metrics(warmup.arm),
        }
    else:
        metrics = layers.layer_metrics(tracer, traced, wall)
    result = {
        "correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics
    }
    return result, lines, tracer


def run_one(args, bench: dict) -> int:
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    workload = suite.WORKLOADS[args.workload](args.seed)

    base = ROOT / ".bench_e2e"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    # Anything that falls back to the default cache or the temp directory
    # (spawned workers included) stays inside the run's scratch directory.
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "default-cache")
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    try:
        result, lines, tracer = measure(workload, args.seconds, bool(args.trace), scratch)
    finally:
        # The runner joins its pool and shard workers, but the resource
        # tracker multiprocessing starts beside them would outlive this
        # process; stop it and wait for it.
        resource_tracker._resource_tracker._stop()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    metrics = result["metrics"]
    if set(metrics) != set(units):
        extra, missing = sorted(set(metrics) - set(units)), sorted(set(units) - set(metrics))
        raise RuntimeError(
            f"computed {kind} metrics differ from BENCHMARK.json: extra {extra}, missing {missing}"
        )
    result["metrics"] = {
        name: {"value": float(metrics[name]), "unit": units[name]} for name in units
    }
    if tracer is not None and args.trace_out:
        Path(args.trace_out).write_text(json.dumps(tracer.chrome_trace()))
        lines.append(f"  trace: {len(tracer.spans)} spans written to {args.trace_out}")
    for line in lines:
        print(line)
    for name, entry in result["metrics"].items():
        print(f"  {name:<28} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process (clean RSS and caches)."""
    failures = 0
    for name in suite.WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.trace_out:
            out = Path(args.trace_out)
            command += ["--trace-out", str(out.with_name(f"{out.stem}.{name}{out.suffix}"))]
        failures += subprocess.run(command, check=False).returncode != 0
    return 1 if failures else 0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*suite.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="arrival-realisation seed")
    parser.add_argument(
        "--seconds", type=float, default=bench["run_seconds"],
        help="how long the timed passes run (at least %d passes)" % MIN_PASSES,
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: add a traced pass and report the per-layer metrics",
    )
    parser.add_argument("--trace-out", help="write the traced pass's spans (Chrome JSON) here")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
