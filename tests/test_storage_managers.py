"""Behavioural tests run against every storage-manager version.

The ``any_sm`` fixture (conftest) parametrizes over all five server
versions, enforcing the paper's discipline: the application-visible
behaviour must be identical, only the mechanics differ.
"""

import pytest

from repro.errors import (
    StorageClosedError,
    TransactionError,
    UnknownOidError,
    UnknownSegmentError,
)
from repro.storage import ObjectStoreSM, TexasSM, DEFAULT_SEGMENT
from repro.storage.page import PAGE_SIZE


def test_crud_round_trip(any_sm):
    oid = any_sm.allocate_write({"a": 1, "b": [1, 2, 3]})
    assert any_sm.read(oid) == {"a": 1, "b": [1, 2, 3]}
    any_sm.write(oid, {"a": 2})
    assert any_sm.read(oid) == {"a": 2}
    any_sm.delete(oid)
    assert not any_sm.exists(oid)


def test_oids_are_unique_and_positive(any_sm):
    oids = [any_sm.allocate_write(i) for i in range(100)]
    assert len(set(oids)) == 100
    assert all(oid > 0 for oid in oids)


def test_read_unknown_oid(any_sm):
    with pytest.raises(UnknownOidError):
        any_sm.read(999_999)


def test_write_unknown_oid(any_sm):
    with pytest.raises(UnknownOidError):
        any_sm.write(999_999, {})


def test_delete_unknown_oid(any_sm):
    with pytest.raises(UnknownOidError):
        any_sm.delete(999_999)


def test_roots(any_sm):
    oid = any_sm.allocate_write("root object")
    any_sm.set_root("main", oid)
    assert any_sm.get_root("main") == oid
    assert any_sm.get_root("absent") is None


def test_root_must_reference_stored_object(any_sm):
    with pytest.raises(UnknownOidError):
        any_sm.set_root("bad", 424242)


def test_objects_are_isolated_from_caller_mutation(any_sm):
    record = {"list": [1, 2]}
    oid = any_sm.allocate_write(record)
    record["list"].append(3)  # caller mutates after store
    assert any_sm.read(oid) == {"list": [1, 2]}
    fetched = any_sm.read(oid)
    fetched["list"].append(99)  # mutating a read copy
    assert any_sm.read(oid) == {"list": [1, 2]}


def test_large_object_round_trip(any_sm):
    blob = {"seq": "ACGT" * 10_000}  # ~40 KB, far beyond one page
    oid = any_sm.allocate_write(blob)
    assert any_sm.read(oid) == blob
    any_sm.write(oid, {"seq": "small now"})
    assert any_sm.read(oid) == {"seq": "small now"}


def test_update_grow_and_shrink(any_sm):
    oid = any_sm.allocate_write("x")
    for size in (10, 3000, 100, 20_000, 1):
        any_sm.write(oid, "y" * size)
        assert any_sm.read(oid) == "y" * size


def test_transaction_commit(any_sm):
    any_sm.begin()
    oid = any_sm.allocate_write([1])
    any_sm.commit()
    assert any_sm.read(oid) == [1]


def test_transaction_abort_undoes_everything(any_sm):
    keep = any_sm.allocate_write("keep")
    any_sm.commit()
    any_sm.begin()
    new = any_sm.allocate_write("new")
    any_sm.write(keep, "modified")
    any_sm.abort()
    assert any_sm.read(keep) == "keep"
    assert not any_sm.exists(new)


def test_abort_undoes_delete(any_sm):
    oid = any_sm.allocate_write("precious")
    any_sm.commit()
    any_sm.begin()
    any_sm.delete(oid)
    any_sm.abort()
    assert any_sm.read(oid) == "precious"


def test_nested_begin_rejected(any_sm):
    any_sm.begin()
    with pytest.raises(TransactionError):
        any_sm.begin()
    any_sm.commit()


def test_abort_without_begin_rejected(any_sm):
    with pytest.raises(TransactionError):
        any_sm.abort()


def test_oids_iteration_sees_all_objects(any_sm):
    created = {any_sm.allocate_write(i) for i in range(20)}
    assert created <= set(any_sm.oids())
    assert any_sm.object_count() >= 20


def test_closed_store_refuses_everything(any_sm):
    oid = any_sm.allocate_write("x")
    any_sm.close()
    with pytest.raises(StorageClosedError):
        any_sm.read(oid)
    any_sm.close()  # idempotent


def test_close_inside_transaction_rejected(any_sm):
    any_sm.begin()
    with pytest.raises(TransactionError):
        any_sm.close()
    any_sm.commit()


def test_stats_count_operations(any_sm):
    before = any_sm.stats.snapshot()
    oid = any_sm.allocate_write("stat me")
    any_sm.read(oid)
    delta = any_sm.stats.delta(before)
    assert delta["objects_written"] == 1
    assert delta["objects_read"] == 1
    assert delta["bytes_written"] > 0


def test_segment_support_matches_declaration(any_sm):
    name = any_sm.create_segment("hot", "hot data")
    if any_sm.supports_segments:
        assert name == "hot"
        assert "hot" in any_sm.segment_names()
    else:
        assert name == DEFAULT_SEGMENT
    # placement with the returned name always works
    oid = any_sm.allocate_write("data", segment=name)
    assert any_sm.read(oid) == "data"


# -- persistence (page stores only) ---------------------------------------


def test_reopen_preserves_everything(persistent_sm, tmp_path):
    sm = persistent_sm
    sm.create_segment("hot")
    oids = [sm.allocate_write({"i": i}, segment="hot" if sm.supports_segments else None)
            for i in range(50)]
    big = sm.allocate_write({"blob": "B" * 30_000})
    sm.set_root("entry", oids[0])
    sm.commit()
    path = sm._disk.path
    sm.close()

    reopened = type(sm)(path=path)
    assert reopened.get_root("entry") == oids[0]
    assert reopened.read(oids[17]) == {"i": 17}
    assert reopened.read(big) == {"blob": "B" * 30_000}
    # allocator resumes past old ids
    fresh = reopened.allocate_write("fresh")
    assert fresh > max(oids + [big])
    reopened.close()


def test_size_is_page_multiple_plus_meta(persistent_sm):
    sm = persistent_sm
    for i in range(100):
        sm.allocate_write({"i": i, "pad": "p" * 64})
    sm.commit()
    size = sm.size_bytes()
    assert size > PAGE_SIZE
    assert (size - sm._disk.size_bytes) > 0  # metadata counted


def test_checkpoint_then_size_stable(persistent_sm):
    sm = persistent_sm
    sm.allocate_write("x")
    sm.checkpoint()
    assert sm.size_bytes() == sm.size_bytes()


# -- the size comparison (E6's mechanism) ----------------------------------


def test_texas_database_larger_than_ostore(tmp_path):
    """Power-of-two cells must cost real space vs dense packing."""
    records = [{"k": i, "pad": "x" * (40 + (i * 13) % 300)} for i in range(2000)]
    sizes = {}
    for cls, name in ((ObjectStoreSM, "ostore"), (TexasSM, "texas")):
        sm = cls(path=str(tmp_path / f"{name}.db"), buffer_pages=64)
        for record in records:
            sm.allocate_write(record)
        sm.commit()
        sizes[name] = sm.size_bytes()
        sm.close()
    ratio = sizes["texas"] / sizes["ostore"]
    assert 1.2 < ratio < 2.2, f"expected Texas ~1.45x larger, got {ratio:.2f}"


def test_swizzle_work_charged_on_texas_faults(tmp_path):
    sm = TexasSM(path=str(tmp_path / "t.db"), buffer_pages=4)
    oids = [sm.allocate_write({"i": i, "pad": "y" * 200}) for i in range(300)]
    sm.commit()
    sm.drop_buffer()
    for oid in oids[:50]:
        sm.read(oid)
    assert sm.stats.major_faults > 0
    assert sm.stats.swizzle_operations > 0
    sm.close()


# -- the public pages_of API -----------------------------------------------


def test_pages_of_small_object(any_sm):
    oid = any_sm.allocate_write({"a": 1})
    pages = any_sm.pages_of(oid)
    if any_sm.persistent:
        assert len(pages) == 1
    else:
        assert pages == []  # main-memory stores hold objects in no page


def test_pages_of_large_object_lists_every_chunk(any_sm):
    oid = any_sm.allocate_write({"blob": "B" * 30_000})
    pages = any_sm.pages_of(oid)
    if any_sm.persistent:
        assert len(pages) > 1  # chunked across pages
        assert pages == [page for page in pages]  # storage (chunk) order
    else:
        assert pages == []


def test_pages_of_unknown_oid(any_sm):
    with pytest.raises(UnknownOidError):
        any_sm.pages_of(424_242)


# -- segment-aware read-ahead (A5's mechanism) ------------------------------


def test_cold_sequential_scan_prefetches(persistent_sm):
    """A cold scan in storage order must be fed by the prefetcher: most
    pages arrive staged (prefetch_hits), not as major faults, and the
    absorbed faults account exactly for the difference."""
    sm = persistent_sm
    oids = [sm.allocate_write({"i": i, "pad": "x" * 120}) for i in range(600)]
    sm.commit()
    sm.drop_buffer()
    before_faults = sm.stats.major_faults
    for oid in oids:
        sm.read(oid)
    faults = sm.stats.major_faults - before_faults
    assert sm.stats.pages_prefetched > 0
    assert sm.stats.prefetch_hits > faults
    assert sm.stats.io_batches > 0


def test_readahead_off_never_prefetches(tmp_path):
    sm = ObjectStoreSM(path=str(tmp_path / "off.db"), buffer_pages=16,
                       readahead_pages=0)
    oids = [sm.allocate_write({"i": i, "pad": "x" * 120}) for i in range(600)]
    sm.commit()
    sm.drop_buffer()
    for oid in oids:
        sm.read(oid)
    assert sm.stats.pages_prefetched == 0
    assert sm.stats.prefetch_hits == 0
    assert sm.stats.io_batches == 0
    sm.close()


def test_readahead_stays_inside_the_faulting_segment(tmp_path):
    """OStore read-ahead must not drag a neighbouring segment's pages in:
    scanning one segment stages only that segment's pages."""
    sm = ObjectStoreSM(path=str(tmp_path / "seg.db"), buffer_pages=256)
    sm.create_segment("hot")
    sm.create_segment("cold")
    hot, cold = [], []
    for i in range(150):  # interleave so the segments' pages alternate
        hot.append(sm.allocate_write({"h": i, "pad": "h" * 150}, segment="hot"))
        cold.append(sm.allocate_write({"c": i, "pad": "c" * 150}, segment="cold"))
    sm.commit()
    sm.drop_buffer()
    for oid in hot:
        sm.read(oid)
    cold_pages = {page for oid in cold for page in sm.pages_of(oid)}
    staged_or_resident = set(sm._pool.resident_ids()) | {
        page_id for page_id in cold_pages if sm._pool.is_staged(page_id)
    }
    # No cold page was speculatively transferred by the hot scan.
    assert not (cold_pages & staged_or_resident)
    sm.close()


def test_swizzle_cost_identical_with_readahead(tmp_path):
    """Texas swizzles at *demand* time, so read-ahead absorbs faults but
    never changes the swizzling bill."""
    swizzles = {}
    for window in (0, 8):
        sm = TexasSM(path=str(tmp_path / f"t{window}.db"), buffer_pages=16,
                     readahead_pages=window)
        oids = [sm.allocate_write({"i": i, "pad": "y" * 200}) for i in range(300)]
        sm.commit()
        sm.drop_buffer()
        for oid in oids:
            sm.read(oid)
        swizzles[window] = sm.stats.swizzle_operations
        sm.close()
    assert swizzles[0] == swizzles[8]


def test_redundant_checkpoints_are_skipped(tmp_path):
    """checkpoint_every=1 on a read-mostly phase must stop re-writing the
    unchanged metadata blob (and stop advancing the epoch)."""
    sm = ObjectStoreSM(path=str(tmp_path / "ck.db"), checkpoint_every=1)
    oids = [sm.allocate_write({"i": i}) for i in range(20)]
    sm.commit()
    written_after_load = sm.stats.meta_bytes_written
    assert written_after_load > 0
    epoch = sm.commit_epoch
    for _ in range(5):  # read-only commits: nothing to persist
        for oid in oids[:5]:
            sm.read(oid)
        sm.commit()
    assert sm.stats.meta_bytes_written == written_after_load
    assert sm.commit_epoch == epoch
    sm.write(oids[0], {"i": -1})
    sm.commit()  # a real change lands a real checkpoint
    assert sm.stats.meta_bytes_written > written_after_load
    assert sm.commit_epoch > epoch
    sm.close()
    # and the skipped checkpoints cost nothing in durability
    reopened = ObjectStoreSM(path=str(tmp_path / "ck.db"))
    assert reopened.read(oids[0]) == {"i": -1}
    assert reopened.verify().ok
    reopened.close()


def test_unchanged_reopen_close_skips_meta_rewrite(tmp_path):
    import os

    sm = ObjectStoreSM(path=str(tmp_path / "ro.db"))
    sm.allocate_write({"v": 1})
    sm.close()
    meta_path = str(tmp_path / "ro.db") + ".meta"
    mtime = os.path.getmtime(meta_path)
    reopened = ObjectStoreSM(path=str(tmp_path / "ro.db"))
    reopened.object_count()
    reopened.close()  # nothing changed: the blob must not be rewritten
    assert os.path.getmtime(meta_path) == mtime
    assert reopened.stats.meta_bytes_written == 0


def test_abort_restores_every_segment_changed_in_the_transaction(tmp_path):
    """begin() copies no segment state; each segment is journaled on its
    first change.  Abort must still restore all of them: pages allocated
    in two segments, space freed in a third, and a segment created
    inside the transaction removed again."""
    sm = ObjectStoreSM(path=str(tmp_path / "undo.db"), buffer_pages=64)
    for name in ("a", "b", "c"):
        sm.create_segment(name)
    doomed = [sm.allocate_write({"c": i, "pad": "c" * 600}, segment="c")
              for i in range(12)]
    sm.commit()
    before = [seg.to_meta() for seg in sm.segments()]

    sm.begin()
    for i in range(30):
        sm.allocate_write({"a": i, "pad": "a" * 600}, segment="a")
        sm.allocate_write({"b": i, "pad": "b" * 600}, segment="b")
    for oid in doomed[:6]:
        sm.delete(oid)
    sm.create_segment("new")
    sm.allocate_write({"new": 1}, segment="new")
    during = {seg["name"]: seg for seg in (s.to_meta() for s in sm.segments())}
    old = {seg["name"]: seg for seg in before}
    for name in ("a", "b"):
        assert len(during[name]["page_ids"]) > len(old[name]["page_ids"])
    assert during["c"]["free_candidates"] != old["c"]["free_candidates"]
    sm.abort()

    assert [seg.to_meta() for seg in sm.segments()] == before
    assert "new" not in sm.segment_names()
    for oid in doomed:
        assert sm.read(oid)["pad"] == "c" * 600
    # The restored state is the one the next transaction builds on.
    sm.begin()
    sm.allocate_write({"a": "again"}, segment="a")
    sm.commit()
    assert sm.verify().ok
    sm.close()
    reopened = ObjectStoreSM(path=str(tmp_path / "undo.db"))
    assert reopened.verify().ok
    reopened.close()


def test_recover_refuses_an_open_transaction(tmp_path):
    # recover() checkpoints and may drop pages from segments; inside a
    # transaction that would persist uncommitted state and break the
    # grow-only page lists abort relies on.
    sm = ObjectStoreSM(path=str(tmp_path / "txn.db"))
    sm.begin()
    sm.allocate_write({"x": 1})
    with pytest.raises(TransactionError):
        sm.recover()
    sm.abort()
    sm.close()
