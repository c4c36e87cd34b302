"""Recorded benchmark baselines and regression comparison.

``repro bench record`` canonicalizes the counter-metric results of the
A4-A8 ablations (the JSON artefacts every bench now writes under
``benchmarks/results/``) into ``BENCH_A4.json`` ... ``BENCH_A8.json``
at the repo root; ``repro bench compare`` diffs a fresh run against
those committed files and exits non-zero on drift.

What gets recorded, deliberately:

* **counters** — every integer-valued field of the bench payload,
  flattened to dotted keys.  Compared with a *relative* tolerance,
  because byte counters (pickle encodings) shift slightly across
  Python versions while remaining the same order of magnitude.
* **gauges** — the registered metrics whose spec names this schema
  (each :class:`~repro.obs.registry.MetricSpec` names exactly one),
  computed from the bench's representative counter block.  A gauge
  whose counters that block lacks is an error, not a 0.0.  Compared
  with per-gauge *absolute* tolerances from :data:`GAUGE_TOLERANCES`,
  which are the registry's ``tolerance`` fields.
* **not** wall-clock timings — any ``*_us`` / ``*_ms`` / ``*_sec``
  field is machine noise in CI; pytest-benchmark artefacts already
  capture them for humans.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Mapping

from repro.obs.registry import DERIVED_METRICS

BASELINE_VERSION = 1

#: Which benchmarks/results/<name>.json feeds each baseline schema.
BASELINE_BENCHES: dict[str, str] = {
    "A4": "a4_object_cache",
    "A5": "a5_readahead",
    "A6": "a6_group_commit",
    "A7": "a7_mmap_backend",
    "A8": "a8_codec",
}

#: Which registered gauges each schema records, and each gauge's
#: absolute drift tolerance: both generated from the registry, where
#: every gauge names its one schema.
BASELINE_SCHEMAS: dict[str, tuple[str, ...]] = {
    schema: tuple(spec.name for spec in DERIVED_METRICS if spec.baseline == schema)
    for schema in BASELINE_BENCHES
}
GAUGE_TOLERANCES: dict[str, float] = {
    spec.name: spec.tolerance for spec in DERIVED_METRICS
}


def _validate_schemas() -> None:
    for spec in DERIVED_METRICS:
        if spec.baseline not in BASELINE_BENCHES:
            raise ValueError(
                f"gauge {spec.name!r} names unknown baseline schema "
                f"{spec.baseline!r}"
            )


_validate_schemas()

#: Fields with these suffixes are timings: excluded from baselines.
_TIME_SUFFIXES = ("_us", "_ms", "_sec", "_seconds", "_ns")

#: Default relative tolerance for counter comparison.
DEFAULT_TOLERANCE = 0.10


@dataclass(frozen=True)
class Drift:
    """One metric outside tolerance (or structurally missing)."""

    schema: str
    metric: str
    baseline: float
    fresh: float
    tolerance: float
    kind: str  # "counter" | "gauge" | "missing"

    def as_dict(self) -> dict[str, object]:
        return asdict(self)


def flatten_counters(payload: object, prefix: str = "") -> dict[str, int]:
    """Integer-valued leaves of a bench payload, as dotted keys.

    Bools and timing fields are skipped; nested dicts recurse.
    """
    flat: dict[str, int] = {}
    if not isinstance(payload, dict):
        return flat
    for key in sorted(payload):
        value = payload[key]
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten_counters(value, prefix=f"{dotted}."))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, int) and not dotted.endswith(_TIME_SUFFIXES):
            flat[dotted] = value
    return flat


def representative_counters(schema: str, payload: Mapping[str, object]) -> dict[str, int]:
    """The counter block the schema's gauges are computed from.

    A4: the cache-on run of the E8 mix.  A5: the read-ahead-on cold
    scan of the best-absorbing server (max fault ratio, name-ordered
    ties).  A6: the grouped four-session sweep point the acceptance
    floor is pinned on.  A7: the mmap contender's cold demand-fault
    scan.  A8: the schema-aware codec's update-stream run.
    """
    block: object
    if schema == "A4":
        block = payload.get("on")
    elif schema == "A5":
        servers = payload.get("servers")
        ratios = payload.get("fault_ratios")
        if not isinstance(servers, dict) or not isinstance(ratios, dict):
            return {}
        best = max(sorted(servers), key=lambda name: float(ratios.get(name, 0.0)))
        entry = servers.get(best)
        block = entry.get("on") if isinstance(entry, dict) else None
    elif schema == "A6":
        block = payload.get("s4_on")
    elif schema == "A7":
        entry = payload.get("mmap")
        if not isinstance(entry, dict):
            return {}
        # The bench reports the cold scan's counters under cold_* keys;
        # the gauge reads the raw counter names.
        block = {
            key[len("cold_"):]: value
            for key, value in entry.items()
            if key.startswith("cold_")
        }
    elif schema == "A8":
        block = payload.get("labf")
    else:
        raise KeyError(f"unknown baseline schema {schema!r}")
    if not isinstance(block, dict):
        return {}
    return {
        key: int(value)
        for key, value in block.items()
        if isinstance(value, int) and not isinstance(value, bool)
    }


def canonicalize(schema: str, payload: Mapping[str, object]) -> dict[str, object]:
    """The committed ``BENCH_<schema>.json`` content for one bench run.

    Raises ``KeyError`` when the representative block lacks a counter
    one of the schema's gauges reads.
    """
    if schema not in BASELINE_SCHEMAS:
        raise KeyError(f"unknown baseline schema {schema!r}")
    source = representative_counters(schema, payload)
    gauges = {
        spec.name: round(spec.compute(source), 6)
        for spec in DERIVED_METRICS
        if spec.baseline == schema
    }
    return {
        "version": BASELINE_VERSION,
        "schema": schema,
        "bench": BASELINE_BENCHES[schema],
        "counters": flatten_counters(dict(payload)),
        "gauges": gauges,
    }


def baseline_path(schema: str, root: str) -> str:
    return os.path.join(root, f"BENCH_{schema}.json")


def results_path(schema: str, results_dir: str) -> str:
    return os.path.join(results_dir, f"{BASELINE_BENCHES[schema]}.json")


def load_json(path: str) -> dict[str, object]:
    with open(path, "r") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return payload


def dump_json(path: str, payload: Mapping[str, object]) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def record(schema: str, results_dir: str, out_dir: str) -> str:
    """Canonicalize one bench result into its committed baseline file."""
    payload = load_json(results_path(schema, results_dir))
    path = baseline_path(schema, out_dir)
    dump_json(path, canonicalize(schema, payload))
    return path


def compare(
    baseline: Mapping[str, object],
    fresh: Mapping[str, object],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[list[Drift], list[str]]:
    """Diff a fresh canonicalized run against a committed baseline.

    Returns ``(drifts, notes)``: drifts fail the comparison; notes are
    informational (new metrics that exist only in the fresh run).
    """
    schema = str(baseline.get("schema", "?"))
    drifts: list[Drift] = []
    notes: list[str] = []

    base_counters = baseline.get("counters")
    fresh_counters = fresh.get("counters")
    base_counters = base_counters if isinstance(base_counters, dict) else {}
    fresh_counters = fresh_counters if isinstance(fresh_counters, dict) else {}
    for name in sorted(base_counters):
        expected = float(base_counters[name])
        if name not in fresh_counters:
            drifts.append(
                Drift(schema, name, expected, 0.0, tolerance, "missing")
            )
            continue
        actual = float(fresh_counters[name])
        band = tolerance * max(1.0, abs(expected))
        if abs(actual - expected) > band:
            drifts.append(
                Drift(schema, name, expected, actual, tolerance, "counter")
            )
    for name in sorted(fresh_counters):
        if name not in base_counters:
            notes.append(f"{schema}: new counter {name} (not in baseline)")

    base_gauges = baseline.get("gauges")
    fresh_gauges = fresh.get("gauges")
    base_gauges = base_gauges if isinstance(base_gauges, dict) else {}
    fresh_gauges = fresh_gauges if isinstance(fresh_gauges, dict) else {}
    for name in sorted(base_gauges):
        expected = float(base_gauges[name])
        band = GAUGE_TOLERANCES.get(name, tolerance)
        if name not in fresh_gauges:
            drifts.append(Drift(schema, name, expected, 0.0, band, "missing"))
            continue
        actual = float(fresh_gauges[name])
        if abs(actual - expected) > band:
            drifts.append(Drift(schema, name, expected, actual, band, "gauge"))
    return drifts, notes


def compare_files(
    baseline_file: str,
    results_dir: str,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[list[Drift], list[str]]:
    """Compare one committed baseline against the fresh bench results."""
    baseline = load_json(baseline_file)
    schema = baseline.get("schema")
    if not isinstance(schema, str) or schema not in BASELINE_SCHEMAS:
        raise ValueError(f"{baseline_file}: unknown or missing schema")
    fresh = canonicalize(schema, load_json(results_path(schema, results_dir)))
    return compare(baseline, fresh, tolerance=tolerance)
