"""Merging and formatting for the simulator's opt-in event-loop profiler.

A *profile* is the mapping :meth:`~repro.simulator.simulation.Simulator.
profile_snapshot` returns: ``{event name: (fires, cumulative callback
seconds)}``.  Event names are per-actor by convention (``worker-3-batch``,
``replan-epoch``, ``arrival``), so the table doubles as a per-actor
breakdown.

Everything here is display-side telemetry.  Wall-clock seconds live only on
the process that measured them — they are reported in CLI tables and timing
reports and must never be written into cached or merged summaries (PR 7's
rule), so profiling can never perturb byte-identical determinism gates.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

Profile = Dict[str, Tuple[int, float]]


def merge_profiles(profiles: Iterable[Mapping[str, Tuple[int, float]]]) -> Profile:
    """Sum fire counts and seconds per event name across several profiles.

    Used to aggregate per-region profiles into one fleet-wide table; counts
    are deterministic, seconds are whatever wall-clock each region measured.
    """
    merged: Dict[str, List[float]] = {}
    for profile in profiles:
        for name, (count, seconds) in profile.items():
            record = merged.get(name)
            if record is None:
                merged[name] = [int(count), float(seconds)]
            else:
                record[0] += int(count)
                record[1] += float(seconds)
    return {name: (int(count), float(seconds)) for name, (count, seconds) in merged.items()}


def profile_rows(profile: Mapping[str, Tuple[int, float]], *, top: int = 0) -> List[Tuple[str, int, float]]:
    """``(name, fires, seconds)`` rows, heaviest cumulative seconds first.

    Ties (and the zero-clock case) break by descending fire count, then by
    name, so row order is stable run to run.  ``top`` truncates; 0 keeps all.
    """
    rows = sorted(
        ((name or "(unnamed)", count, seconds) for name, (count, seconds) in profile.items()),
        key=lambda row: (-row[2], -row[1], row[0]),
    )
    return rows[:top] if top else rows


def format_profile_table(
    profile: Mapping[str, Tuple[int, float]], *, top: int = 20, title: str = "event-loop profile"
) -> str:
    """Render one profile as a fixed-width table (heaviest events first)."""
    rows = profile_rows(profile, top=top)
    if not rows:
        return f"{title}: no events profiled (run with profiling enabled)"
    total_fires = sum(count for _, (count, _) in profile.items())
    total_seconds = sum(seconds for _, (_, seconds) in profile.items())
    name_width = max(len("event"), *(len(name) for name, _, _ in rows))
    lines = [
        f"{title} — {total_fires} events, {total_seconds:.3f}s in callbacks",
        f"{'event':<{name_width}}  {'fires':>12}  {'seconds':>10}  {'%time':>6}  {'us/fire':>8}",
    ]
    for name, count, seconds in rows:
        share = 100.0 * seconds / total_seconds if total_seconds > 0 else 0.0
        per_fire = 1e6 * seconds / count if count else 0.0
        lines.append(
            f"{name:<{name_width}}  {count:>12}  {seconds:>10.3f}  {share:>5.1f}%  {per_fire:>8.1f}"
        )
    hidden = len(profile) - len(rows)
    if hidden > 0:
        lines.append(f"... {hidden} more event name(s) truncated")
    return "\n".join(lines)
