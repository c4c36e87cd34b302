"""Counters every storage manager maintains.

The benchmark harness reads these to fill the paper's resource table:
``major_faults`` stands in for the paper's ``majflt`` column (see
``repro.util.timing`` for why), and the remaining counters feed the
locality and ablation experiments (E5, A2).

:class:`StorageStats` is the one declaration of every counter.  Each
field names its owning layer (one of :data:`LAYERS`, the layer names the
benchmark's per-layer report uses) in its field metadata; renderers and
baselines are generated from the fields.  The class has ``__slots__``,
so bumping a counter that is not declared here raises
``AttributeError`` instead of growing a silent attribute.  Derived
gauges (ratios of these counters) live in :mod:`repro.obs.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

#: Owning layers, bottom of the stack first (the render order).
LAYERS: tuple[str, ...] = (
    "disk", "buffer", "objcache", "codec", "storage", "locks", "server",
)


def _counter(layer: str) -> int:
    """A zero-initialised counter owned by ``layer``."""
    if layer not in LAYERS:
        raise ValueError(f"unknown counter layer {layer!r}")
    return field(default=0, metadata={"layer": layer})


@dataclass(slots=True)
class StorageStats:
    """Mutable counter block attached to a storage manager."""

    page_reads: int = _counter("disk")  # pages read into the buffer pool
    page_writes: int = _counter("disk")  # pages written back to disk
    major_faults: int = _counter("buffer")  # pool misses (the simulated majflt)
    buffer_hits: int = _counter("buffer")
    objects_read: int = _counter("storage")
    objects_written: int = _counter("storage")
    objects_deleted: int = _counter("storage")
    bytes_read: int = _counter("storage")  # record bytes deserialized
    bytes_written: int = _counter("storage")  # record bytes written
    swizzle_operations: int = _counter("storage")  # Texas: slots swizzled
    lock_acquisitions: int = _counter("locks")  # page-lock grants
    lock_waits: int = _counter("locks")  # lock conflicts observed
    lock_upgrades: int = _counter("locks")  # SHARED -> EXCLUSIVE promotions
    commits: int = _counter("storage")
    aborts: int = _counter("storage")
    cache_hits: int = _counter("objcache")  # reads served in memory
    cache_misses: int = _counter("objcache")  # reads that hit the SM
    cache_coalesced: int = _counter("objcache")  # writes absorbed pre-commit
    cache_evictions: int = _counter("objcache")  # LRU evictions (clean objects)
    pages_prefetched: int = _counter("buffer")  # staged by vectored reads
    prefetch_hits: int = _counter("buffer")  # faults absorbed by staged pages
    io_batches: int = _counter("disk")  # vectored transfers (>= 2 pages each)
    mapped_reads: int = _counter("disk")  # mmap demand reads served zero-copy
    records_fast_path: int = _counter("codec")  # encoded via a fixed layout
    records_fallback: int = _counter("codec")  # encoded via the pickle fallback
    intern_table_size: int = _counter("codec")  # names in the intern table
    meta_bytes_written: int = _counter("disk")  # checkpoint bytes written
    group_commits: int = _counter("server")  # storage commits closing a group
    sessions_per_group: int = _counter("server")  # units fused into groups
    commit_stalls: int = _counter("server")  # groups closed by a lock conflict

    def reset(self) -> None:
        """Zero every counter (used between benchmark intervals)."""
        for name in STAT_FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        """An immutable copy of the counters as a plain dict."""
        return {name: getattr(self, name) for name in STAT_FIELDS}

    def delta(self, earlier: dict[str, int]) -> dict[str, int]:
        """Counter increments since an earlier :meth:`snapshot`."""
        return {
            name: getattr(self, name) - earlier.get(name, 0)
            for name in STAT_FIELDS
        }


#: Every counter name, in declaration order (the ``snapshot()`` keys).
STAT_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(StorageStats))

#: Each counter's owning layer, from its field metadata.
STAT_LAYERS: dict[str, str] = {
    f.name: f.metadata["layer"] for f in fields(StorageStats)
}
