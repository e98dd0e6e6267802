"""Plain-text rendering of experiment results.

The benchmarks print the same rows/series as the paper's figures; these
helpers keep the formatting in one place (and out of the benchmark logic).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.experiments.harness import (
    AccuracyMeasurement,
    CleaningMeasurement,
    QueryTimeMeasurement,
)

__all__ = [
    "format_table",
    "cleaning_table",
    "query_time_table",
    "accuracy_table",
]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A minimal fixed-width table (no external dependencies)."""
    materialised = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    parts = [line(list(headers)), line(["-" * w for w in widths])]
    parts.extend(line(row) for row in materialised)
    return "\n".join(parts)


def cleaning_table(measurements: Sequence[CleaningMeasurement]) -> str:
    """Fig. 8(a)/8(b)-style rows: cleaning time by duration and config."""
    rows = [
        (m.dataset, m.config, m.duration, m.trajectories,
         f"{m.mean_seconds * 1000:.1f}", f"{m.mean_nodes:.0f}",
         f"{m.mean_edges:.0f}", f"{m.mean_bytes / 1024:.0f}")
        for m in measurements
    ]
    return format_table(
        ["dataset", "config", "duration", "n", "clean_ms",
         "nodes", "edges", "size_kB"], rows)


def query_time_table(measurements: Sequence[QueryTimeMeasurement]) -> str:
    """Fig. 8(c)-style rows: query time by duration and config."""
    rows = [
        (m.dataset, m.config, m.duration, m.queries,
         f"{m.mean_stay_seconds * 1000:.2f}",
         f"{m.mean_trajectory_seconds * 1000:.2f}",
         f"{m.mean_seconds * 1000:.2f}")
        for m in measurements
    ]
    return format_table(
        ["dataset", "config", "duration", "queries", "stay_ms",
         "trajectory_ms", "mean_ms"], rows)


def accuracy_table(measurements: Sequence[AccuracyMeasurement]) -> str:
    """Fig. 9-style rows: accuracy by config (and query length if present)."""
    with_length = any(m.query_length is not None for m in measurements)
    headers = ["dataset", "config", "kind"]
    if with_length:
        headers.append("qlen")
    headers += ["queries", "accuracy"]
    rows: List[Sequence[object]] = []
    for m in measurements:
        row: List[object] = [m.dataset, m.config, m.kind]
        if with_length:
            row.append("-" if m.query_length is None else m.query_length)
        row += [m.queries, f"{m.accuracy:.3f}"]
        rows.append(row)
    return format_table(headers, rows)
