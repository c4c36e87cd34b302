"""Shared pieces of the benchmark: the metric report, percentiles, the
pre-generated instrument values and small process/file probes.

Every module here is the benchmark's own code.  It drives the program
in ``src/`` only through its public surface and never edits it.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import random
import resource
import statistics
import time
from array import array
from dataclasses import dataclass, field

from repro.benchmark import blast
from repro.storage.page import PAGE_SIZE
from repro.util.rng import DeterministicRng
from repro.workflow.engine import default_value_factory
from repro.workflow.spec import ValueKind

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "spec.json")

MB = 1024 * 1024


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# -- statistics ---------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in [0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def quarters(items: list) -> tuple[list, list]:
    """The first and the last quarter of a sequence."""
    cut = len(items) // 4
    return items[:cut], items[len(items) - cut:]


# -- the report ---------------------------------------------------------------


@dataclass
class Metric:
    name: str
    value: float | None  # None = not applicable or missing
    unit: str
    note: str = ""


@dataclass
class Report:
    """Every metric of one run, the output checks, and the op tally."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    #: check name -> [all passed, times run, detail of the first failure
    #: or of the latest run]
    checks: dict[str, list] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = Metric(name, float(value), unit, note)

    def na(self, name: str, unit: str, why: str) -> None:
        self.metrics[name] = Metric(name, None, unit, f"n/a: {why}")

    def ratio(
        self, name: str, numerator: float, base: float, num_name: str,
        base_name: str, unit: str = "ratio",
    ) -> None:
        """A ratio printed with its numerator and base; a zero base is
        reported as missing, never as 0."""
        if not base:
            self.metrics[name] = Metric(
                name, None, unit, f"missing: base {base_name} = {base:g}"
            )
            return
        self.add(
            name, numerator / base, unit,
            f"{num_name} {numerator:g} / {base_name} {base:g}",
        )

    def timing(self, prefix: str, samples_ms, what: str) -> None:
        """``<prefix>_p50_ms`` and ``<prefix>_p99_ms`` over the samples."""
        if not samples_ms:
            self.na(f"{prefix}_p50_ms", "ms", f"no {what} on this workload")
            self.na(f"{prefix}_p99_ms", "ms", f"no {what} on this workload")
            return
        n = len(samples_ms)
        beyond = n - math.ceil(0.99 * n)
        self.add(f"{prefix}_p50_ms", percentile(samples_ms, 0.50), "ms", f"n={n}")
        self.add(f"{prefix}_p99_ms", percentile(samples_ms, 0.99), "ms",
                 f"n={n}, {beyond} beyond")

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one check; a check run once per pass keeps one line."""
        entry = self.checks.setdefault(name, [True, 0, detail])
        if entry[0]:
            entry[2] = detail
        entry[0] = entry[0] and bool(ok)
        entry[1] += 1
        return bool(ok)

    @property
    def failed_checks(self) -> int:
        return sum(1 for ok, _n, _d in self.checks.values() if not ok)

    @property
    def correct(self) -> bool:
        return self.failed_checks == 0 and self.failed == 0

    def render(self) -> list[str]:
        lines = []
        for metric in self.metrics.values():
            shown = "n/a" if metric.value is None else f"{metric.value:.6g}"
            if metric.value is None and metric.note.startswith("missing"):
                shown = "missing"
            note = f"  ({metric.note})" if metric.note else ""
            lines.append(f"  {metric.name:<34} {shown:>14} {metric.unit:<6}{note}")
        lines.append(
            f"  operations: {self.attempted} attempted, {self.failed} failed"
        )
        for name, (ok, times, detail) in self.checks.items():
            runs = f" x{times}" if times > 1 else ""
            lines.append(
                f"  check {name}{runs}: {'OK' if ok else 'FAILED'}"
                + (f" ({detail})" if detail else "")
            )
        return lines


class SpeedProbe:
    """How fast the host runs right now, against the reference.

    Shared virtual hosts change speed by a fifth or more, both within a
    second and over tens of seconds, longer than a run, so raw wall
    times of two runs can differ by more than any bound a change could
    be held to.  Each
    probe times a fixed pure-Python kernel (pickling, dict and list
    work, the program's own kind of work) and returns its time over the
    reference time recorded in ``spec.json``.  Timings divided by that
    factor are *calibrated*: the seconds the reference host would
    have taken.  Both figures are printed; the calibrated ones are
    reported.
    """

    REPEATS = 5

    def __init__(self, reference_s: float) -> None:
        self.reference_s = reference_s
        self.factors: list[float] = []

    def measure(self) -> float:
        times = []
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        factor = statistics.median(times) / self.reference_s
        self.factors.append(factor)
        return factor

    def kernel(self) -> None:
        _reference_kernel()

    def describe(self) -> str:
        return (f"speed factor median {statistics.median(self.factors):.3f} "
                f"over {len(self.factors)} probes")

    def close(self) -> None:
        """Stop what the probe started; this one starts nothing."""


class SegmentClock:
    """Speed probes between the segments of a timed pass.

    Call ``mark(ops_so_far)`` before the pass, at segment boundaries and
    after it.  A segment's wall time runs from the end of one probe to
    the start of the next, and its factor is the mean of the two.
    """

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        #: (ops so far, probe start, probe end, factor)
        self.marks: list[tuple[int, float, float, float]] = []

    def mark(self, ops_so_far: int) -> None:
        if self.marks and self.marks[-1][0] == ops_so_far:
            return
        start = time.perf_counter()
        factor = self.probe.measure()
        self.marks.append((ops_so_far, start, time.perf_counter(), factor))

    def segments(self) -> list[tuple[int, int, float, float]]:
        """(first op, end op, wall seconds, factor) per segment."""
        return [(a[0], b[0], b[1] - a[2], (a[3] + b[3]) / 2)
                for a, b in zip(self.marks, self.marks[1:])]


_KERNEL_RECORDS = [
    {"key": f"k{i}", "values": list(range(i % 17)), "name": "x" * (i % 23)}
    for i in range(200)
]


def _reference_kernel() -> int:
    table: dict = {}
    for _round in range(2):
        for i, record in enumerate(_KERNEL_RECORDS):
            table[record["key"]] = pickle.loads(pickle.dumps(record))
            table[i] = sorted(record["values"], reverse=True)
    return len(table)


def end_to_end_common(
    report: Report, *, setup_raw: list[float], setup_cal: list[float],
    db_bytes: int, peak_rss_bytes: int,
) -> None:
    """The run-level metrics every workload reports; set-up times come
    as wall seconds and as calibrated seconds."""
    report.add(
        "setup_s", statistics.median(setup_cal), "s",
        f"median of {len(setup_cal)} set-ups; raw {statistics.median(setup_raw):.6g} s",
    )
    report.add(
        "error_ratio",
        report.failed / report.attempted if report.attempted else 0.0,
        "ratio", f"failed {report.failed} / attempted {report.attempted}",
    )
    report.add("db_mb", db_bytes / MB, "MB")
    report.add("peak_rss_mb", peak_rss_bytes / MB, "MB")


class Figures:
    """Calibrated latencies and write volumes of one timed pass."""

    def __init__(self) -> None:
        self.update_ms = array("d")
        self.query_ms = array("d")
        #: update latencies in the first and in the last quarter of ops
        self.first_ms = array("d")
        self.last_ms = array("d")
        #: (bytes written, storage commits) over the first quarter, the
        #: last quarter and all of the pass's operations
        self.bytes_first = (0, 0)
        self.bytes_last = (0, 0)
        self.bytes_all = (0, 0)
        #: calibrated and wall-clock seconds of the pass
        self.wall = 0.0
        self.wall_raw = 0.0

    @property
    def ops(self) -> int:
        return len(self.update_ms) + len(self.query_ms)

    @property
    def raw_ops_per_s(self) -> float:
        return self.ops / self.wall_raw

    def metrics(self, *, writes: bool) -> dict[str, Metric]:
        """The pass's end-to-end figures; the write-path ones are n/a
        when the workload does not write."""
        report = Report()
        report.add("ops_per_s", self.ops / self.wall, "ops/s",
                   f"{self.ops} ops in {self.wall_raw:.3f} s, "
                   f"{self.ops / self.wall_raw:.6g} ops/s uncalibrated")
        report.timing("update", self.update_ms, "updates")
        report.timing("query", self.query_ms, "queries")
        if not writes:
            for name, unit in (("write_bytes_per_commit", "B"),
                               ("write_growth", "ratio"),
                               ("update_ms_growth", "ratio")):
                report.na(name, unit, "the workload is read-only")
            return report.metrics
        written, commits = self.bytes_all
        report.ratio("write_bytes_per_commit", written, commits,
                     "bytes written", "commits", unit="B")
        first = self.bytes_first[0] / self.bytes_first[1] if self.bytes_first[1] else 0.0
        last = self.bytes_last[0] / self.bytes_last[1] if self.bytes_last[1] else 0.0
        report.ratio("write_growth", last, first,
                     "last-quarter B/commit", "first-quarter B/commit")
        first_ms = statistics.median(self.first_ms) if self.first_ms else 0.0
        last_ms = statistics.median(self.last_ms) if self.last_ms else 0.0
        report.ratio("update_ms_growth", last_ms, first_ms,
                     "last-quarter p50 ms", "first-quarter p50 ms")
        return report.metrics


def emit_pass_medians(report: Report, passes: list[dict[str, Metric]]) -> None:
    """Each per-pass figure as its median over the run's passes."""
    for name, first in passes[0].items():
        values = [p[name].value for p in passes if p[name].value is not None]
        if not values:
            report.metrics[name] = first
            continue
        report.add(name, statistics.median(values), first.unit,
                   f"median of {len(values)} passes; last: {passes[-1][name].note}")


def page_bytes(counters: dict[str, int]) -> int:
    """Page plus checkpoint-meta bytes written, from a counter block."""
    return counters["page_writes"] * PAGE_SIZE + counters["meta_bytes_written"]


# -- probes -------------------------------------------------------------------


def peak_rss_self() -> int:
    """Peak resident set of this process, in bytes (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def store_bytes(path: str) -> int:
    """On-disk size of a store: page file plus metadata blob."""
    return sum(
        os.path.getsize(name) for name in (path, path + ".meta")
        if os.path.exists(name)
    )


def remove_store(path: str) -> None:
    for name in (path, path + ".meta", path + ".meta.tmp"):
        if os.path.exists(name):
            os.remove(name)


# -- pre-generated instrument values -----------------------------------------


@dataclass(frozen=True)
class InstrumentPools:
    """DNA reads and BLAST hit lists made from the seed before timing.

    Generating them inside the timed region made the benchmark's own
    loop a visible share of the stream's elapsed time; the workflow
    engine now receives finished values.  A stream that needs more values than a pool holds
    reuses it from the start, so the inputs stay a function of the seed.
    """

    dna: tuple[str, ...]
    hits: tuple[list, ...]

    @classmethod
    def generate(cls, seed: int, dna_reads: int, hit_lists: int) -> "InstrumentPools":
        bases = random.Random(f"perfbench-dna-{seed}")
        dna = tuple(
            "".join(bases.choices("ACGT", k=max(50, round(bases.gauss(400, 120)))))
            for _ in range(dna_reads)
        )
        rng = DeterministicRng(seed).substream("perfbench-blast")
        hits = tuple(
            blast.generate_hit_list(
                rng,
                query_length=rng.gaussian_int(400, 120, minimum=60),
                mean_hits=20,
                max_hits=120,
            )
            for _ in range(hit_lists)
        )
        return cls(dna, hits)


class PooledValues:
    """A workflow value factory that hands out pre-generated instrument
    values in order; every other attribute kind is cheap and keeps the
    engine's default generator."""

    def __init__(self, pools: InstrumentPools) -> None:
        self._pools = {ValueKind.DNA: pools.dna, ValueKind.HIT_LIST: pools.hits}
        self._next = {kind: 0 for kind in self._pools}
        self.reused = 0

    def __call__(self, step, attribute, material_key, rng):
        pool = self._pools.get(attribute.kind)
        if pool is None:
            return default_value_factory(step, attribute, material_key, rng)
        index = self._next[attribute.kind]
        self._next[attribute.kind] = index + 1
        if index >= len(pool):
            self.reused += 1
        return pool[index % len(pool)]
