"""Per-layer metrics of a traced run.

Times come from the benchmark's span wrappers (``tracing``); counts come
from the program's own ``StorageStats`` over the same timed region.
Layers are named after the program's modules.
"""

from __future__ import annotations

from repro.storage.page import PAGE_SIZE

import tracing
from common import Report

LAYERS = (
    "benchmark", "workflow", "labbase", "objcache", "codec", "buffer",
    "disk", "storage", "locks", "server", "communicator",
)


def emit(
    report: Report, *, totals: dict[str, tuple[int, float]],
    counters: dict[str, int], region_s: float, pregen_s: float,
    traced_ops_per_s: float, untraced_ops_per_s: float,
    wire_s: float = 0.0, units: int = 0, retries_failed: int = 0,
) -> None:
    """Print every per-layer metric; ``totals`` maps span names to
    (calls, self seconds) inside the timed region."""

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0.0))[1]

    def count(name: str, value: float, unit: str = "count") -> None:
        report.add(name, value, unit)

    def timed(name: str, span: str, with_calls: bool = True) -> None:
        if with_calls:
            count(f"{name}.calls", calls(span))
        report.add(f"{name}.self_s", self_s(span), "s")

    c = counters
    own = sum(s for name, (_n, s) in totals.items()
              if tracing.layer_of(name) == "benchmark")
    report.add("benchmark.driver_s", own, "s")
    report.add("benchmark.pregen_s", pregen_s, "s")

    timed("workflow.advance", "workflow.advance")
    for op in tracing.LABBASE_OPS:
        timed(f"labbase.{op}", f"labbase.{op}")

    count("objcache.hits", c["cache_hits"])
    count("objcache.misses", c["cache_misses"])
    reads = c["cache_hits"] + c["cache_misses"]
    report.ratio("objcache.hit_ratio", c["cache_hits"], reads,
                 "objcache.hits", "objcache reads")
    count("objcache.evictions", c["cache_evictions"])
    count("objcache.coalesced", c["cache_coalesced"])
    timed("objcache.flush", "objcache.flush")

    timed("codec.encode", "codec.encode")
    timed("codec.decode", "codec.decode")
    timed("codec.validate", "codec.validate")
    count("codec.fast_path", c["records_fast_path"])
    count("codec.fallback", c["records_fallback"])
    report.ratio("codec.fast_path_ratio", c["records_fast_path"],
                 c["records_fast_path"] + c["records_fallback"],
                 "codec.fast_path", "records encoded")

    count("buffer.fetches", calls("buffer.fetch"))
    count("buffer.hits", c["buffer_hits"])
    count("buffer.major_faults", c["major_faults"])
    count("buffer.prefetched", c["pages_prefetched"])
    count("buffer.prefetch_hits", c["prefetch_hits"])
    report.ratio("buffer.prefetch_useful_ratio", c["prefetch_hits"],
                 c["pages_prefetched"], "buffer.prefetch_hits", "buffer.prefetched")
    timed("buffer.fetch", "buffer.fetch", with_calls=False)
    timed("buffer.flush", "buffer.flush")

    count("disk.page_reads", c["page_reads"])
    timed("disk.read", "disk.read")
    count("disk.page_writes", c["page_writes"])
    count("disk.write_bytes", c["page_writes"] * PAGE_SIZE, "B")
    count("disk.io_batches", c["io_batches"])
    timed("disk.write", "disk.write")
    count("disk.meta_bytes", c["meta_bytes_written"], "B")
    timed("disk.meta", "disk.meta")
    timed("disk.sync", "disk.sync")

    timed("storage.commit", "storage.commit")
    timed("storage.checkpoint", "storage.checkpoint")

    count("locks.acquisitions", c["lock_acquisitions"])
    count("locks.waits", c["lock_waits"])
    count("locks.upgrades", c["lock_upgrades"])
    timed("locks.acquire", "locks.acquire")

    count("server.units", units)
    report.add("server.wait_s", self_s("server.submit"), "s")
    count("server.commit_stalls", c["commit_stalls"])
    count("server.group_commits", c["group_commits"])
    count("server.sessions_per_group", c["sessions_per_group"])
    report.ratio("server.stall_ratio", c["commit_stalls"], c["group_commits"],
                 "server.commit_stalls", "server.group_commits")
    report.ratio("server.group_width", c["sessions_per_group"], c["group_commits"],
                 "server.sessions_per_group", "server.group_commits")
    timed("server.group_close", "server.group_close")
    count("server.retries_failed", retries_failed)

    report.add("communicator.wire_s", wire_s, "s")
    timed("communicator.encode", "communicator.encode", with_calls=False)
    timed("communicator.decode", "communicator.decode", with_calls=False)

    by_layer = {layer: 0.0 for layer in LAYERS}
    for name, (_n, seconds) in totals.items():
        layer = tracing.layer_of(name)
        if layer == "client":  # the client call's own share is the wire
            continue
        by_layer[layer] += seconds
    by_layer["communicator"] += wire_s
    for layer in LAYERS:
        report.add(f"layer.{layer}_s", by_layer[layer], "s")
    attributed = sum(by_layer.values())
    report.add("unattributed_s", region_s - attributed, "s",
               f"timed region {region_s:.3f} s")
    report.ratio("coverage", attributed, region_s,
                 "attributed s", "timed region s")
    report.add("tracing.traced_ops_per_s", traced_ops_per_s, "ops/s")
    report.add("tracing.untraced_ops_per_s", untraced_ops_per_s, "ops/s")
    report.ratio("tracing.overhead_ratio", untraced_ops_per_s, traced_ops_per_s,
                 "untraced ops/s", "traced ops/s")


def library_layers(
    report: Report, spans: list, window: tuple[float, float],
    counters: dict[str, int], *, ops: int, untraced_ops_per_s: float,
    pregen_s: float,
) -> None:
    """Per-layer metrics of a traced library-path pass."""
    region = window[1] - window[0]
    keep = tracing.in_window(spans, *window)
    emit(report, totals=tracing.totals(spans, keep), counters=counters,
         region_s=region, pregen_s=pregen_s, traced_ops_per_s=ops / region,
         untraced_ops_per_s=untraced_ops_per_s)
