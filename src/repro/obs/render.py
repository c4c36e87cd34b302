"""Render paths for the observability layer.

:func:`render_sample_table` is the live render path for registered
gauges: its gauge columns are generated from
:data:`repro.obs.registry.DERIVED_METRICS`, one per gauge in registry
order, so a newly registered gauge shows up without touching this
module.  The table uses fixed column widths (not
:func:`repro.util.fmt.format_table`) so the live monitor can stream one
row per poll and stay aligned with the header it printed minutes ago.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.obs.registry import METRIC_NAMES
from repro.obs.sampler import Sample
from repro.util.fmt import format_table

#: The sample table's columns, (header, key, width): sequence number,
#: interval length, three counter deltas, then one column per gauge.
_SAMPLE_COLUMNS: tuple[tuple[str, str, int], ...] = (
    ("#", "seq", 4),
    ("dt_s", "dt", 8),
    ("commits", "commits", 8),
    ("units", "sessions_per_group", 8),
    ("majflt", "major_faults", 8),
) + tuple((name, name, max(len(name), 10)) for name in METRIC_NAMES)


def render_sample_table(samples: Sequence[Sample], title: str | None = None) -> str:
    """Interval samples as a fixed-width table; one line per sample.

    The delta columns are per-interval counter increments; the gauge
    columns are the registered ratios over the same interval.
    """
    lines: list[str] = []
    if title:
        lines.append(title)
    header = "  ".join(name.rjust(width) for name, _, width in _SAMPLE_COLUMNS)
    lines.append(header)
    lines.append("-" * len(header))
    for sample in samples:
        cells: list[str] = []
        for _name, key, width in _SAMPLE_COLUMNS:
            if key == "seq":
                cells.append(str(sample.seq).rjust(width))
            elif key == "dt":
                cells.append(f"{sample.dt:.3f}".rjust(width))
            elif key in sample.gauges:
                cells.append(f"{sample.gauges[key]:.3f}".rjust(width))
            else:
                cells.append(str(sample.delta.get(key, 0)).rjust(width))
        lines.append("  ".join(cells))
    return "\n".join(lines)


def render_phase_histograms(
    histograms: Mapping[str, Mapping[str, object]], title: str | None = None
) -> str:
    """Per-phase duration histograms from a tracer summary."""
    rows: list[Sequence[str]] = []
    for phase in sorted(histograms):
        hist = histograms[phase]
        bounds = list(hist.get("bounds", []))  # type: ignore[arg-type]
        counts = list(hist.get("counts", []))  # type: ignore[arg-type]
        total = int(hist.get("total", 0))  # type: ignore[arg-type]
        shape = " ".join(str(int(c)) for c in counts)
        top = f"<= {float(bounds[-1]):g}s + over" if bounds else ""
        rows.append((phase, str(total), shape, top))
    return format_table(
        ["phase", "units", "bucket counts", "range"],
        rows,
        title=title,
        align_right=(1,),
    )


def render_drift_table(
    drifts: Sequence[Mapping[str, object]], title: str | None = None
) -> str:
    """Baseline-comparison drift rows (see :mod:`repro.obs.baseline`)."""
    if not drifts:
        return (title + "\n" if title else "") + "no drift: all metrics within tolerance"
    rows = [
        (
            str(d.get("schema", "")),
            str(d.get("metric", "")),
            f"{float(d.get('baseline', 0.0)):g}",  # type: ignore[arg-type]
            f"{float(d.get('fresh', 0.0)):g}",  # type: ignore[arg-type]
            f"{float(d.get('tolerance', 0.0)):g}",  # type: ignore[arg-type]
            str(d.get("kind", "")),
        )
        for d in drifts
    ]
    return format_table(
        ["schema", "metric", "baseline", "fresh", "tolerance", "kind"],
        rows,
        title=title,
        align_right=(2, 3, 4),
    )
