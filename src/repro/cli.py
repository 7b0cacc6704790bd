"""Command-line entry point for the experiment runners.

Usage::

    python -m repro.cli list
    python -m repro.cli fig5 --dataset-size 500 --duration 240
    python -m repro.cli all --fast
    python -m repro.cli run --grid "cascades=sdturbo;seeds=0,1" --jobs 4
    python -m repro.cli run --workload mmpp,flash-crowd --workload-params "burst_factor=6"

Each experiment prints the table its ``repro.experiments`` module's
``main()`` renders; an ``offline.OFFLINE`` or ``studies.STUDIES`` record is
printed by its module's ``main(name)``.  ``all`` runs the full suite in
order.  ``run`` executes an arbitrary experiment grid through the parallel
runner with artifact caching (see :mod:`repro.runner`): repeated
invocations are served from the cache without firing a single simulation
event.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments import drift_adaptation, fig5_real_trace, milp_overhead, offline, studies
from repro.experiments.harness import BENCH_SCALE, ExperimentScale
from repro.runner.dimensions import DIMENSIONS, decode_json_object

#: Experiment name -> (description, runner main function).
EXPERIMENTS: Dict[str, tuple] = {
    "fig5": ("Figure 5 Azure-like trace comparison (Cascade 1)", fig5_real_trace.main),
    "milp": ("Section 4.5 MILP solver overhead", milp_overhead.main),
    "drift": ("Drift adaptation: static vs. online re-planned plans", drift_adaptation.main),
    **{
        name: (description, partial(offline.main, name))
        for name, (description, _) in offline.OFFLINE.items()
    },
    **{
        name: (study.description, partial(studies.main, name))
        for name, study in studies.STUDIES.items()
    },
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="DiffServe reproduction experiment runner"
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "list", "run"],
        help=(
            "experiment to run, 'all' for every experiment, 'list' to enumerate "
            "them, 'run' to execute a grid through the parallel runner"
        ),
    )
    parser.add_argument("--dataset-size", type=int, default=1000, help="number of prompts")
    parser.add_argument("--duration", type=float, default=360.0, help="trace duration (s)")
    parser.add_argument("--workers", type=int, default=16, help="cluster size")
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    parser.add_argument(
        "--fast", action="store_true", help="use a reduced scale (~10x faster)"
    )
    runner = parser.add_argument_group("grid runner ('run' only)")
    runner.add_argument(
        "--grid",
        default="cascades=sdturbo",
        help=(
            "grid spec as ';'-separated key=value pairs; keys: cascades (comma-"
            "separated), seeds (comma-separated ints), qps (nominal mean rates; "
            "omit for each workload's cascade default), slos (SLO sweep), "
            "workloads (comma-separated scenario kinds, see --workload), systems "
            "('+'-separated subset of the five systems)"
        ),
    )
    runner.add_argument(
        "--workload",
        default=None,
        help=(
            "workload scenario kind(s), comma-separated: static, mmpp, diurnal, "
            "flash-crowd, azure.  Adds a workload axis to the grid (overrides a "
            "'workloads=' grid key)"
        ),
    )
    runner.add_argument(
        "--workload-params",
        default=None,
        help=(
            "workload knobs, either comma-separated key=value floats "
            "('burst_factor=6,dwell_burst=5') or a JSON object "
            "('{\"burst_factor\": 6}'), forwarded to the workload catalog"
        ),
    )
    runner.add_argument(
        "--fleet",
        default=None,
        help=(
            "typed device fleet, either comma-separated class=count pairs "
            "('a100=8,l4=16') or a JSON object ('{\"a100\": 8, \"l4\": 16}'); "
            "classes come from the built-in catalog (a100, h100, a10g, l4, t4) "
            "and the fleet becomes a cached grid dimension replacing --workers"
        ),
    )
    for dim in DIMENSIONS.values():
        runner.add_argument(dim.flag, default=None, help=dim.help)
    runner.add_argument(
        "--shards",
        default="1",
        help=(
            "worker processes per cell for sharded execution ('auto' picks from "
            "the CPU count); results are byte-identical for any value — this "
            "only chooses how many processes the regions are packed into"
        ),
    )
    runner.add_argument(
        "--replan-epoch",
        type=float,
        default=None,
        help=(
            "enable DiffServe's online re-planning control plane with this epoch "
            "(seconds); becomes a cached grid dimension"
        ),
    )
    runner.add_argument(
        "--replan-policy",
        choices=["static", "periodic", "adaptive"],
        default=None,
        help=(
            "re-plan policy for --replan-epoch (defaults to 'periodic' when an "
            "epoch is given); 'adaptive' only re-solves on demand drift or SLO "
            "pressure"
        ),
    )
    runner.add_argument(
        "--profile",
        action="store_true",
        help=(
            "arm the deterministic event-loop profiler: cells run inline "
            "(ignoring --jobs) with the summary cache bypassed, and a per-"
            "event-name fire-count/wall-clock table is printed for every "
            "cell and system; summaries stay byte-identical with profiling "
            "on or off"
        ),
    )
    runner.add_argument("--jobs", type=int, default=1, help="worker processes for 'run'")
    runner.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the artifact cache entirely (recompute datasets/discriminators/summaries)",
    )
    runner.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help="wall-clock budget per cell in seconds (POSIX; applies to inline and parallel runs)",
    )
    runner.add_argument(
        "--json", dest="json_path", default=None, help="write per-cell summaries to FILE"
    )
    return parser


def scale_from_args(args: argparse.Namespace) -> ExperimentScale:
    """Build the experiment scale requested on the command line."""
    if args.fast:
        return replace(BENCH_SCALE, num_workers=args.workers, seed=args.seed)
    return ExperimentScale(
        dataset_size=args.dataset_size,
        trace_duration=args.duration,
        num_workers=args.workers,
        seed=args.seed,
    )


def list_experiments() -> str:
    """Human-readable list of available experiments."""
    lines = ["Available experiments:"]
    for name in sorted(EXPERIMENTS):
        description, _ = EXPERIMENTS[name]
        lines.append(f"  {name:8s} {description}")
    text = "\n".join(lines)
    print(text)
    return text


def parse_workload_params(text: Optional[str]) -> Dict[str, float]:
    """Parse a ``--workload-params`` string.

    Accepts comma-separated ``key=value`` floats or a JSON object; every
    failure mode raises :class:`ValueError` with a one-line message naming
    the bad key (or the JSON syntax error), which the ``run`` command turns
    into a clean CLI error instead of a traceback.
    """
    stripped = (text or "").strip()
    if stripped.startswith(("{", "[")):
        decoded = decode_json_object(stripped, "--workload-params")
        params: Dict[str, float] = {}
        for key, value in decoded.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"workload param {key!r} must be a number, got {value!r}")
            params[str(key)] = float(value)
        return params
    params = {}
    for part in stripped.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep or not value:
            raise ValueError(f"malformed workload param {part!r}; expected key=value")
        key = key.strip()
        if key in params:
            raise ValueError(f"duplicate workload param {key!r}")
        try:
            params[key] = float(value)
        except ValueError:
            raise ValueError(f"workload param {key!r} must be a number, got {value!r}")
    return params


def parse_fleet(text: Optional[str]) -> Optional[Dict[str, int]]:
    """Parse a ``--fleet`` string into ``{device class: count}``.

    Accepts comma-separated ``class=count`` pairs or a JSON object; every
    failure mode raises :class:`ValueError` with a one-line message naming
    the bad key (mirroring ``--workload-params``).  Class names and counts
    are validated against the device catalog via the central
    :class:`~repro.core.config.FleetSpec` checks.
    """
    stripped = (text or "").strip()
    if not stripped:
        return None
    counts: Dict[str, int] = {}
    if stripped.startswith(("{", "[")):
        items = decode_json_object(stripped, "--fleet").items()
    else:
        items = []
        for part in stripped.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            if not sep or not value:
                raise ValueError(f"malformed fleet entry {part!r}; expected class=count")
            items.append((key.strip(), value.strip()))
    for key, value in items:
        key = str(key)
        if key in counts:
            raise ValueError(f"duplicate fleet class {key!r}")
        if isinstance(value, bool) or (
            not isinstance(value, int) and not (isinstance(value, str) and value.isdigit())
        ):
            raise ValueError(
                f"fleet class {key!r}: count must be a positive integer, got {value!r}"
            )
        counts[key] = int(value)
    from repro.core.config import fleet_from_counts

    try:
        # Central validation: unknown classes / bad counts fail here with the
        # catalog's one-line message.
        fleet_from_counts(counts)
    except KeyError as exc:
        raise ValueError(str(exc).strip("'\"")) from exc
    return counts


def parse_shards(text: Optional[str]) -> int:
    """Parse a ``--shards`` value: a positive integer or ``auto``.

    ``auto`` resolves against the machine's CPU count (capped), so CI and
    laptops pick sensible process counts without per-host flags.
    """
    stripped = (text or "1").strip().lower()
    if stripped == "auto":
        from repro.core.sharding import default_shards

        return default_shards()
    try:
        shards = int(stripped)
    except ValueError:
        raise ValueError(f"--shards must be a positive integer or 'auto', got {text!r}") from None
    if shards < 1:
        raise ValueError(f"--shards must be >= 1, got {shards}")
    return shards


def _grid_names(key: str, text: str, sep: str = ",") -> list:
    """Split grid key ``key``'s value ``text`` on ``sep``, skipping empty entries.

    A key given with no entry at all (``cascades=,``, ``systems=+``) is an
    error, not an empty axis that would silently make the grid empty or fall
    back to the defaults.
    """
    names = [item.strip() for item in text.split(sep) if item.strip()]
    if text and not names:
        raise ValueError(f"grid key {key!r} has no values")
    return names


def _grid_numbers(
    fields: Dict[str, str], key: str, convert: Callable[[str], float], default: str = ""
) -> list:
    """Pop grid key ``key`` as a comma list of numbers, skipping empty entries."""
    values = []
    for item in _grid_names(key, fields.pop(key, default)):
        try:
            values.append(convert(item))
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise ValueError(f"grid key {key!r}: {item!r} is not {kind}") from None
    return values


def parse_grid(
    text: str,
    scale: ExperimentScale,
    *,
    workloads: Optional[str] = None,
    workload_params: Optional[str] = None,
    replan_epoch: Optional[float] = None,
    replan_policy: Optional[str] = None,
    fleet: Optional[str] = None,
    shards: int = 1,
    **dims: Optional[str],
):
    """Build an :class:`~repro.runner.spec.ExperimentGrid` from a ``--grid`` spec.

    The spec is ``;``-separated ``key=value`` pairs; the grid is the cross
    product of every axis given.  Example::

        cascades=sdturbo,sdxs;seeds=0,1;qps=8,16;workloads=static,mmpp;systems=diffserve

    ``workloads``/``workload_params`` (the ``--workload``/``--workload-params``
    flags) override the ``workloads=`` grid key; each workload kind crossed
    with each ``qps`` value (if any) becomes one trace axis entry.  Workload
    parameter *values* are validated eagerly (the scenario is instantiated
    once per trace axis entry), so a bad knob fails the parse with a one-line
    error instead of surfacing as a traceback from inside a grid cell.
    ``replan_epoch``/``replan_policy`` (the ``--replan-*`` flags) attach the
    online re-planning control plane to every cell as cached grid params.
    ``fleet`` (the ``--fleet`` flag) runs every cell on a typed device fleet
    instead of the homogeneous ``--workers`` cluster — a real (cached) grid
    dimension, validated eagerly against the device catalog.
    ``dims`` are the name-or-JSON grid dimensions (the ``--geo``,
    ``--resources``, ``--faults``, ``--autoscale`` and ``--prices`` flags;
    see :data:`~repro.runner.dimensions.DIMENSIONS`), each attached to every
    cell as a cached grid dimension and validated eagerly with the same
    one-line errors.  ``shards`` packs a geo cell's regions into that many
    worker processes — sharding never changes summaries, only wall-clock.
    ``--autoscale`` additionally requires ``--replan-epoch``: scale
    decisions are evaluated at replan epochs.
    """
    from repro.runner.spec import DEFAULT_SYSTEMS, ExperimentGrid, TraceSpec

    fields: Dict[str, str] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep or not value:
            raise ValueError(f"malformed grid field {part!r}; expected key=value")
        fields[key.strip()] = value.strip()

    cascades = _grid_names("cascades", fields.pop("cascades", "sdturbo"))
    seeds = _grid_numbers(fields, "seeds", int, str(scale.seed))
    qps = _grid_numbers(fields, "qps", float)
    slos = _grid_numbers(fields, "slos", float)
    kinds_text = fields.pop("workloads", "")
    kinds = _grid_names("workloads", kinds_text if workloads is None else workloads)
    systems = tuple(_grid_names("systems", fields.pop("systems", ""), "+")) or DEFAULT_SYSTEMS
    if fields:
        raise ValueError(f"unknown grid keys {sorted(fields)}")

    from repro.workloads import WORKLOAD_PARAMS

    wparams = parse_workload_params(workload_params)
    if not kinds:
        # Bare qps values keep their historical meaning: static Poisson traces.
        kinds = ["static"] if qps else ["azure"]
    # Each kind takes the subset of params it understands (one flag can feed a
    # multi-workload sweep); a param no selected kind accepts is a user error.
    orphans = sorted(
        key
        for key in wparams
        if not any(key in WORKLOAD_PARAMS.get(kind, ()) for kind in kinds)
    )
    if orphans:
        raise ValueError(f"workload params {orphans} apply to none of the workloads {kinds}")
    traces = [
        TraceSpec(
            kind=kind,
            qps=q,
            params=tuple(
                sorted((k, v) for k, v in wparams.items() if k in WORKLOAD_PARAMS.get(kind, ()))
            ),
        )
        for kind in kinds
        for q in (qps or [None])
    ]
    from repro.workloads import validate_workload

    for trace in traces:
        # Instantiate each scenario once so out-of-range values (not just
        # unknown keys) fail the parse with the offending key named.
        validate_workload(
            trace.kind, trace.params_dict(), qps=trace.qps, duration=scale.trace_duration
        )
    params_list = [{"slo": s} for s in slos] or [{}]
    replan: Dict[str, object] = {}
    if replan_epoch is not None:
        replan["replan_epoch"] = float(replan_epoch)
    if replan_policy is not None:
        replan["replan_policy"] = replan_policy
    if replan:
        params_list = [{**params, **replan} for params in params_list]
    scales = [replace(scale, seed=s) for s in seeds]
    for name, dim in DIMENSIONS.items():
        # Eager validation: a bad catalog name / malformed JSON / bad key
        # fails the parse with a one-line error, not inside a grid cell.
        dim.parse(dims.get(name))
    if dims.get("autoscale") is not None and replan_epoch is None:
        # The autoscaler is evaluated by the re-planner's epoch loop.
        raise ValueError(
            "--autoscale requires --replan-epoch (scale decisions are evaluated at replan epochs)"
        )
    return ExperimentGrid.product(
        cascades=cascades,
        scales=scales,
        systems=systems,
        traces=traces,
        params_list=params_list,
        fleets=(parse_fleet(fleet),),
        geos=(dims.pop("geo", None),),
        shards=shards,
        **dims,
    )


#: Columns of the per-system result table ``repro run`` prints.
RESULT_HEADERS = ["cell", "system", "status", "FID", "SLO viol", "p99 (s)"]


def result_rows(cells) -> List[list]:
    """One table row per (cell, system), plus one dash row per failed cell."""
    rows: List[list] = []
    for cell in cells:
        for system, summary in sorted(cell.summaries.items()):
            rows.append(
                [
                    cell.spec.label,
                    system,
                    cell.status,
                    summary["fid"],
                    summary["slo_violation_ratio"],
                    summary["p99_latency"],
                ]
            )
        if not cell.ok:
            rows.append([cell.spec.label, "-", cell.status, "-", "-", "-"])
    return rows


def write_results_json(path: str, cells) -> None:
    """Write one canonical JSON line per cell (``--json``)."""
    from repro.runner.executor import canonical_summaries_json

    lines = [
        json.dumps(
            {
                "label": cell.spec.label,
                "spec": cell.spec.content_hash,
                "status": "ok" if cell.ok else cell.status,
                "summaries": json.loads(canonical_summaries_json(cell.summaries)),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        for cell in cells
    ]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def run_profiled_grid(args: argparse.Namespace, grid) -> int:
    """Execute ``run --profile``: every cell inline with the profiler armed.

    Wall-clock telemetry lives only on the simulator objects that measured
    it, so a profiled run never consults or writes the summary cache and
    always executes inline regardless of ``--jobs``.  Shared components
    (datasets, discriminators) still come from the artifact cache — those
    carry no timing.  The summaries printed (and written via ``--json``) are
    byte-identical to an unprofiled run of the same grid.
    """
    from repro.experiments.harness import format_table
    from repro.runner.cache import default_cache
    from repro.runner.executor import CellResult, run_cell_results
    from repro.simulator.profiling import format_profile_table

    cache = None if args.no_cache else default_cache()
    cells: List[CellResult] = []
    tables: List[str] = []
    for spec in grid:
        profiles: Dict[str, Dict[str, tuple]] = {}
        _, results = run_cell_results(spec, cache=cache, profile_sink=profiles)
        summaries = {
            name: {k: float(v) for k, v in result.summary().items()}
            for name, result in results.items()
        }
        cells.append(CellResult(spec=spec, status="ok", summaries=summaries))
        for system in sorted(profiles):
            tables.append(
                format_profile_table(profiles[system], title=f"{spec.label} / {system}")
            )
    print(format_table(RESULT_HEADERS, result_rows(cells)))
    print(f"cells={len(grid)} profiled inline (summary cache bypassed)")
    for table in tables:
        print()
        print(table)
    if args.json_path:
        write_results_json(args.json_path, cells)
    return 0


def run_grid_command(args: argparse.Namespace) -> int:
    """Execute the ``run`` subcommand: a grid through the parallel runner."""
    from repro.experiments.harness import format_table
    from repro.runner.cache import default_cache
    from repro.runner.executor import run_grid

    scale = scale_from_args(args)
    try:
        grid = parse_grid(
            args.grid,
            scale,
            workloads=args.workload,
            workload_params=args.workload_params,
            replan_epoch=args.replan_epoch,
            replan_policy=args.replan_policy,
            fleet=args.fleet,
            shards=parse_shards(args.shards),
            **{name: getattr(args, name) for name in DIMENSIONS},
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.profile:
        return run_profiled_grid(args, grid)

    report = run_grid(
        grid,
        jobs=max(args.jobs, 1),
        use_cache=not args.no_cache,
        cell_timeout=args.cell_timeout,
    )

    print(format_table(RESULT_HEADERS, result_rows(report.cells)))

    cache = default_cache()
    print(
        f"cells={len(report.cells)} ok={sum(1 for c in report.cells if c.status == 'ok')} "
        f"cached={report.cached_count} failed={len(report.failed)} jobs={report.jobs}"
    )
    print(f"grid={grid.content_hash[:16]} cache={cache.root} stats={report.cache_stats}")
    for cell in report.failed:
        print(f"--- {cell.spec.label} ({cell.status}) ---\n{cell.error}", file=sys.stderr)

    if args.json_path:
        write_results_json(args.json_path, report.cells)

    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        list_experiments()
        return 0
    if args.experiment == "run":
        return run_grid_command(args)
    scale = scale_from_args(args)
    names: List[str] = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        description, runner = EXPERIMENTS[name]
        print(f"=== {name}: {description} ===")
        runner(scale)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
