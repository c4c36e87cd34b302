"""The metric registry: every derived gauge the system reports.

A *gauge* is a ratio derived from :class:`~repro.storage.stats.StorageStats`
counters: numerator over the sum of one or more denominator counters,
with a declared default for the empty-denominator case.
:data:`DERIVED_METRICS` is the one declaration of each gauge: its
formula, the one baseline schema that records it and that schema's
drift tolerance.  Everything else is generated from it: the baseline
schemas and tolerances (:mod:`repro.obs.baseline`), the gauge columns of
the live sample table (:mod:`repro.obs.render`) and the gauge rows of
the whole-run counter report (:mod:`repro.benchmark.report`).  The
import-time check below rejects a duplicate name or a gauge that reads
an undeclared counter, and :meth:`MetricSpec.compute` raises on a
counter block that lacks one of the gauge's counters, so a gauge can
never be computed from nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.storage.stats import STAT_FIELDS


@dataclass(frozen=True)
class MetricSpec:
    """One registered gauge: ``numerator / sum(denominator)``."""

    name: str
    description: str
    baseline: str        # the BASELINE_SCHEMAS key that records it
    tolerance: float     # absolute drift band in ``repro bench compare``
    numerator: str       # a StorageStats counter
    denominator: tuple[str, ...]  # StorageStats counters, summed
    default: float = 0.0  # value when the denominator sums to zero

    @property
    def counters(self) -> tuple[str, ...]:
        """Every counter the gauge reads, numerator first."""
        return tuple(dict.fromkeys((self.numerator, *self.denominator)))

    def compute(self, counters: Mapping[str, int]) -> float:
        """The gauge over one counter block.

        Raises ``KeyError`` when the block lacks one of the gauge's
        counters: a missing counter is not a zero.
        """
        missing = [name for name in self.counters if name not in counters]
        if missing:
            raise KeyError(
                f"gauge {self.name!r} reads missing counter(s) "
                f"{', '.join(missing)}"
            )
        denom = sum(int(counters[name]) for name in self.denominator)
        if denom == 0:
            return self.default
        return int(counters[self.numerator]) / denom


#: Every derived gauge, in render order.  Tolerances are absolute:
#: gauges are ratios in stable units.
DERIVED_METRICS: tuple[MetricSpec, ...] = (
    MetricSpec(
        name="hit_ratio",
        description="buffer-pool hits over page accesses",
        baseline="A5",
        tolerance=0.05,
        numerator="buffer_hits",
        denominator=("buffer_hits", "major_faults"),
        default=1.0,
    ),
    MetricSpec(
        name="prefetch_absorption",
        description="faults absorbed by read-ahead over all staged-or-missed",
        baseline="A5",
        tolerance=0.10,
        numerator="prefetch_hits",
        denominator=("prefetch_hits", "major_faults"),
        default=0.0,
    ),
    MetricSpec(
        name="cache_hit_ratio",
        description="object-cache reads served in memory",
        baseline="A4",
        tolerance=0.05,
        numerator="cache_hits",
        denominator=("cache_hits", "cache_misses"),
        default=1.0,
    ),
    MetricSpec(
        name="coalesce_ratio",
        description="object writes absorbed pre-commit by the cache",
        baseline="A4",
        tolerance=0.10,
        numerator="cache_coalesced",
        denominator=("cache_coalesced", "objects_written"),
        default=0.0,
    ),
    MetricSpec(
        name="group_width",
        description="mean session-units fused per group commit",
        baseline="A6",
        tolerance=0.75,  # sessions, not a ratio: the widest band
        numerator="sessions_per_group",
        denominator=("group_commits",),
        default=0.0,
    ),
    MetricSpec(
        name="commit_stall_ratio",
        description="groups forced closed by lock conflicts, per group",
        baseline="A6",
        tolerance=0.25,
        numerator="commit_stalls",
        denominator=("group_commits",),
        default=0.0,
    ),
    MetricSpec(
        name="mapped_read_ratio",
        description="demand reads served zero-copy from the map, per page read",
        baseline="A7",
        tolerance=0.10,
        numerator="mapped_reads",
        denominator=("page_reads",),
        default=0.0,
    ),
    MetricSpec(
        name="fast_path_ratio",
        description="records encoded via a fixed layout, over all encoded",
        baseline="A8",
        tolerance=0.05,
        numerator="records_fast_path",
        denominator=("records_fast_path", "records_fallback"),
        default=0.0,
    ),
)

METRIC_NAMES: tuple[str, ...] = tuple(spec.name for spec in DERIVED_METRICS)


def metric(name: str) -> MetricSpec:
    """Look up a registered gauge by name."""
    for spec in DERIVED_METRICS:
        if spec.name == name:
            return spec
    raise KeyError(f"no registered metric {name!r}")


def gauges_from(counters: Mapping[str, int]) -> dict[str, float]:
    """All registered gauges computed from one counter snapshot."""
    return {spec.name: spec.compute(counters) for spec in DERIVED_METRICS}


def _validate_registry() -> None:
    declared = set(STAT_FIELDS)
    seen: set[str] = set()
    for spec in DERIVED_METRICS:
        if spec.name in seen:
            raise ValueError(f"duplicate metric registration {spec.name!r}")
        seen.add(spec.name)
        for counter in spec.counters:
            if counter not in declared:
                raise ValueError(
                    f"metric {spec.name!r} reads undeclared counter "
                    f"{counter!r}"
                )


_validate_registry()
