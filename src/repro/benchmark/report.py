"""Paper-style rendering of benchmark results.

:func:`render_comparison` prints the Section 10 table layout::

    Database Server Version
    Intvl  Resource      OStore  Texas+TC  Texas  OStore-mm  Texas-mm
    0.5X   elapsed sec    1.424     1.469  1.402      1.384     1.407
           user cpu sec     ...
           sys cpu sec      ...
           majflt           ...
           size (bytes)     ...   (persistent versions only; "-" for mm)
    1.0X   ...

plus helpers for the extended stats the ablation benches report.
"""

from __future__ import annotations

from repro.benchmark.harness import ComparisonResult, RunResult
from repro.obs.registry import METRIC_NAMES
from repro.storage.stats import LAYERS, STAT_FIELDS, STAT_LAYERS
from repro.util.fmt import format_table

_RESOURCES = ("elapsed sec", "user cpu sec", "sys cpu sec", "majflt", "size (bytes)")


def render_comparison(comparison: ComparisonResult, title: str | None = None) -> str:
    """The paper's per-interval resource table, all server versions."""
    headers = ["Intvl", "Resource"] + [run.server for run in comparison.runs]
    rows: list[list[str]] = []
    for label in comparison.interval_labels:
        for row_index, resource in enumerate(_RESOURCES):
            row = [label if row_index == 0 else "", resource]
            for run in comparison.runs:
                usage = run.usage_for(label)
                row.append(dict(usage.as_rows())[resource])
            rows.append(row)
        rows.append([])  # spacer between interval groups
    if rows and not rows[-1]:
        rows.pop()
    return format_table(
        headers,
        rows,
        title=title or "Database Server Version",
        align_right=tuple(range(2, 2 + len(comparison.runs))),
    )


def render_run(run: RunResult, title: str | None = None) -> str:
    """One server's per-interval table (resources as columns)."""
    headers = ["Intvl"] + list(_RESOURCES)
    rows = []
    for interval in run.intervals:
        values = dict(interval.usage.as_rows())
        rows.append([interval.label] + [values[resource] for resource in _RESOURCES])
    return format_table(
        headers,
        rows,
        title=title or f"Server version: {run.server}",
        align_right=tuple(range(1, len(headers))),
    )


def render_stats(comparison: ComparisonResult) -> str:
    """Storage-counter totals per server (the locality evidence).

    Every ``StorageStats`` counter, grouped by its owning layer (bottom
    of the stack first), then every registered gauge over the whole
    run.  Both row sets are generated from the declarations, so a new
    counter or gauge shows up here without an edit.
    """
    runs = comparison.runs
    rows: list[list[str]] = []
    for layer in LAYERS:
        counters = [name for name in STAT_FIELDS if STAT_LAYERS[name] == layer]
        for index, counter in enumerate(counters):
            rows.append(
                [layer if index == 0 else "", counter]
                + [f"{run.final_stats[counter]:,}" for run in runs]
            )
    for index, name in enumerate(METRIC_NAMES):
        rows.append(
            ["gauges" if index == 0 else "", name]
            + [f"{run.final_gauges[name]:.3f}" for run in runs]
        )
    return format_table(
        ["Layer", "Counter"] + [run.server for run in runs],
        rows,
        title="Storage counters (whole run)",
        align_right=tuple(range(2, 2 + len(runs))),
    )


def render_workload(run: RunResult) -> str:
    """Operation mix actually executed (identical across servers)."""
    all_ops: set[str] = set()
    for interval in run.intervals:
        all_ops.update(interval.tally.operations.counts)
    headers = ["Intvl", "txns", "steps", "queries"] + sorted(all_ops)
    rows = []
    for interval in run.intervals:
        tally = interval.tally
        rows.append(
            [
                interval.label,
                tally.transactions,
                tally.steps_executed,
                tally.queries_executed,
            ]
            + [tally.operations.counts.get(op, 0) for op in sorted(all_ops)]
        )
    return format_table(
        headers,
        rows,
        title="Workload (identical for every server version)",
        align_right=tuple(range(1, len(headers))),
    )
