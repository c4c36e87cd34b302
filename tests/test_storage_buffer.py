"""Unit tests for the buffer pool: LRU, faults, no-steal."""

from collections import OrderedDict

import pytest

from repro.storage.buffer import BufferPool
from repro.storage.page import Page, exact_charge
from repro.storage.stats import StorageStats


class _Disk:
    """Fake disk: serves pages it has seen flushed (or blank ones)."""

    def __init__(self):
        self.pages: dict[int, Page] = {}
        self.loads: list[int] = []
        self.flushes: list[int] = []

    def load(self, page_id: int) -> Page:
        self.loads.append(page_id)
        page = self.pages.get(page_id)
        if page is None:
            page = Page(page_id, 0)
            page.dirty = False
        return page

    def flush(self, page: Page) -> None:
        self.flushes.append(page.page_id)
        self.pages[page.page_id] = page


def _pool(capacity=3, fault_hook=None):
    disk = _Disk()
    stats = StorageStats()
    pool = BufferPool(capacity, disk.load, disk.flush, stats, fault_hook)
    return pool, disk, stats


def test_capacity_must_be_positive():
    disk = _Disk()
    with pytest.raises(ValueError):
        BufferPool(0, disk.load, disk.flush, StorageStats())


def test_miss_counts_fault_hit_does_not():
    pool, disk, stats = _pool()
    pool.fetch(1)
    assert stats.major_faults == 1
    pool.fetch(1)
    assert stats.major_faults == 1
    assert stats.buffer_hits == 1


def test_admit_new_is_not_a_fault():
    pool, _disk, stats = _pool()
    page = Page(9, 0)
    pool.admit_new(page)
    assert stats.major_faults == 0
    assert pool.fetch(9) is page
    assert stats.buffer_hits == 1


def test_lru_evicts_least_recently_used_clean_page():
    pool, disk, stats = _pool(capacity=2)
    pool.fetch(1)
    pool.fetch(2)
    pool.fetch(1)       # touch 1; 2 is now LRU
    pool.fetch(3)       # evicts 2
    assert pool.is_resident(1)
    assert not pool.is_resident(2)
    assert pool.is_resident(3)


def test_dirty_pages_are_never_evicted():
    pool, disk, stats = _pool(capacity=2)
    a = pool.fetch(1)
    b = pool.fetch(2)
    a.dirty = True
    b.dirty = True
    pool.fetch(3)  # both candidates dirty: pool grows
    assert pool.resident_pages == 3
    assert pool.overflow_high_water >= 1
    assert not disk.flushes  # no-steal: nothing written early


def test_flush_dirty_writes_and_cleans():
    pool, disk, stats = _pool()
    page = pool.fetch(1)
    page.dirty = True
    written = pool.flush_dirty()
    assert written == 1
    assert disk.flushes == [1]
    assert not page.dirty
    assert stats.page_writes == 1


def test_flush_dirty_shrinks_overflowed_pool():
    pool, disk, _stats = _pool(capacity=1)
    pool.fetch(1).dirty = True
    pool.fetch(2).dirty = True
    assert pool.resident_pages == 2
    pool.flush_dirty()
    assert pool.resident_pages == 1


def test_drop_dirty_discards_without_writing():
    pool, disk, _stats = _pool()
    page = pool.fetch(1)
    page.dirty = True
    dropped = pool.drop_dirty()
    assert dropped == 1
    assert not disk.flushes
    assert not pool.is_resident(1)


def test_fault_hook_called_once_per_miss():
    seen = []
    pool, _disk, _stats = _pool(fault_hook=lambda page: seen.append(page.page_id))
    pool.fetch(5)
    pool.fetch(5)
    assert seen == [5]


def test_refetch_after_eviction_is_second_fault():
    pool, disk, stats = _pool(capacity=1)
    pool.fetch(1)
    pool.fetch(2)  # evicts 1
    pool.fetch(1)  # fault again
    assert stats.major_faults == 3


def test_clear_empties_pool():
    pool, _disk, _stats = _pool()
    pool.fetch(1)
    pool.clear()
    assert pool.resident_pages == 0


class _FreshDisk:
    """Fake disk whose loads are always clean, fresh page objects."""

    def __init__(self):
        self.flushes: list[int] = []

    def load(self, page_id: int) -> Page:
        page = Page(page_id, 0)
        page.dirty = False
        return page

    def flush(self, page: Page) -> None:
        self.flushes.append(page.page_id)


class _LruModel:
    """Independent oracle: the replacement policy as a plain LRU list.

    Oldest first; the victim is the first clean page that is not the
    newest; when no page qualifies the pool overflows instead.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.order: list[int] = []
        self.dirty: set[int] = set()
        self.evicted: list[int] = []
        self.flushes: list[int] = []
        self.overflow_high_water = 0

    def _evict(self) -> None:
        while len(self.order) > self.capacity:
            victims = [pid for pid in self.order[:-1] if pid not in self.dirty]
            if not victims:
                overflow = len(self.order) - self.capacity
                self.overflow_high_water = max(self.overflow_high_water, overflow)
                return
            self.order.remove(victims[0])
            self.evicted.append(victims[0])

    def fetch(self, page_id: int) -> None:
        if page_id in self.order:
            self.order.remove(page_id)
            self.order.append(page_id)
            return
        self.order.append(page_id)  # loads are clean
        self._evict()

    def admit_new(self, page_id: int) -> None:
        self.order.append(page_id)
        self.dirty.add(page_id)  # fresh pages are born dirty
        self._evict()

    def flush_dirty(self) -> int:
        written = sorted(self.dirty)
        self.flushes.extend(written)
        self.dirty.clear()
        self._evict()
        return len(written)

    def drop(self, page_id: int) -> None:
        if page_id in self.order:
            self.order.remove(page_id)
        self.dirty.discard(page_id)

    def drop_dirty(self) -> int:
        dropped = len(self.dirty)
        self.order = [pid for pid in self.order if pid not in self.dirty]
        self.dirty.clear()
        return dropped


def test_victim_index_matches_reference_scan():
    """Randomized op stream against the LRU-list model: residency,
    eviction order and overflow accounting must be identical."""
    import random

    rng = random.Random(20260806)
    disk = _FreshDisk()
    pool = BufferPool(4, disk.load, disk.flush, StorageStats())
    model = _LruModel(4)
    evicted: list[int] = []

    for step in range(2000):
        action = rng.random()
        page_id = rng.randrange(12)
        resident = pool.resident_ids()
        dropping = False
        if action < 0.55:
            page = pool.fetch(page_id)
            model.fetch(page_id)
            if rng.random() < 0.4:
                page.dirty = True  # a mutator, outside the pool's sight
                model.dirty.add(page_id)
        elif action < 0.75:
            pool.admit_new(Page(100 + step, 0))
            model.admit_new(100 + step)
        elif action < 0.90:
            assert pool.flush_dirty() == model.flush_dirty()
        elif action < 0.95:
            pool.drop(page_id)
            model.drop(page_id)
            dropping = True
        else:
            assert pool.drop_dirty() == model.drop_dirty()
            dropping = True
        if not dropping:  # victims leave oldest first
            now = set(pool.resident_ids())
            evicted.extend(pid for pid in resident if pid not in now)
        assert pool.resident_ids() == model.order, f"diverged at op {step}"
        assert evicted == model.evicted, f"eviction order at op {step}"
        assert pool.overflow_high_water == model.overflow_high_water
    assert disk.flushes == model.flushes
    assert model.evicted and model.overflow_high_water  # both exercised


class _CountingPages(OrderedDict):
    """Spy for the pool's page map: counts every page it hands out."""

    def __init__(self):
        super().__init__()
        self.touched = 0

    def get(self, key, default=None):
        self.touched += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.touched += 1
        return super().__getitem__(key)

    def __iter__(self):
        for key in super().__iter__():
            self.touched += 1
            yield key

    def items(self):
        for item in super().items():
            self.touched += 1
            yield item


def test_commit_and_eviction_work_follows_dirty_pages_not_residency():
    """One dirty page among 1,000 resident clean ones: the flush and the
    eviction after it each look at a handful of pages, not the pool."""
    pool, disk, _stats = _pool(capacity=1000)
    pool._pages = spy = _CountingPages()
    for page_id in range(1000):
        pool.fetch(page_id)
    oldest = pool.fetch(0)
    for page_id in range(1, 1000):
        pool.fetch(page_id)  # page 0 is the LRU end again

    oldest.dirty = True
    spy.touched = 0
    assert pool.flush_dirty() == 1
    assert spy.touched <= 4, spy.touched

    oldest.dirty = True  # the next transaction dirties the LRU end
    spy.touched = 0
    pool.fetch(1000)  # a miss: one page must go
    assert spy.touched <= 4, spy.touched
    assert pool.is_resident(0) and not pool.is_resident(1)
    assert pool.resident_pages == 1000
    assert disk.flushes == [0]


class _LegacyFlushPool(BufferPool):
    """Reference implementation: the pre-dirty-set commit flush.

    The original flush sorted *every* resident page and probed its dirty
    flag; the dirty-set flush must issue the identical write sequence
    and leave identical residency while looking only at dirty pages.
    """

    def flush_dirty(self):
        written = 0
        for page_id in sorted(self._pages):
            page = self._pages[page_id]
            if page.dirty:
                self._flush_page(page)
                page.dirty = False
                written += 1
        self._stats.page_writes += written
        self._evict_if_needed()
        return written


def test_dirty_set_flush_matches_legacy_full_sort():
    """Randomized op stream: the O(dirty) flush must write the same
    pages in the same order and keep residency identical to the
    sort-everything reference."""
    import random

    rng = random.Random(19960806)
    pool_disk, ref_disk = _Disk(), _Disk()
    pool_stats, ref_stats = StorageStats(), StorageStats()
    pool = BufferPool(4, pool_disk.load, pool_disk.flush, pool_stats)
    ref = _LegacyFlushPool(4, ref_disk.load, ref_disk.flush, ref_stats)

    for step in range(2000):
        action = rng.random()
        page_id = rng.randrange(12)
        if action < 0.50:
            a = pool.fetch(page_id)
            b = ref.fetch(page_id)
            if rng.random() < 0.4:
                a.dirty = True
                b.dirty = True
        elif action < 0.70:
            pool.admit_new(Page(100 + step, 0))
            ref.admit_new(Page(100 + step, 0))
        elif action < 0.90:
            assert pool.flush_dirty() == ref.flush_dirty()
        elif action < 0.95:
            pool.drop(page_id)
            ref.drop(page_id)
        else:
            assert pool.drop_dirty() == ref.drop_dirty()
        assert pool.resident_ids() == ref.resident_ids(), f"diverged at op {step}"
    assert pool_disk.flushes == ref_disk.flushes
    assert pool_stats.page_writes == ref_stats.page_writes


def test_flush_with_no_dirty_pages_writes_nothing():
    pool, disk, stats = _pool()
    pool.fetch(1)
    pool.fetch(2)
    assert pool.flush_dirty() == 0
    assert not disk.flushes
    assert stats.page_writes == 0


# -- read-ahead ---------------------------------------------------------------


class _ByteDisk:
    """Fake disk serving raw page images, with vectored read/write."""

    def __init__(self, n_pages=32):
        self.images: dict[int, bytes] = {}
        self.loads: list[int] = []
        self.vector_reads: list[tuple[int, int]] = []
        self.flushes: list[int] = []
        self.vector_writes: list[tuple[int, int]] = []
        for page_id in range(n_pages):
            page = Page(page_id, 0)
            self.images[page_id] = page.to_bytes()

    @property
    def page_count(self):
        return max(self.images, default=-1) + 1

    def load(self, page_id: int) -> Page:
        self.loads.append(page_id)
        return Page.from_bytes(page_id, self.images[page_id])

    def flush(self, page: Page) -> None:
        self.flushes.append(page.page_id)
        self.images[page.page_id] = page.to_bytes()

    def read_pages(self, start: int, count: int):
        self.vector_reads.append((start, count))
        return [self.images.get(start + i) for i in range(count)]

    def flush_pages(self, start: int, pages) -> None:
        self.vector_writes.append((start, len(pages)))
        for page in pages:
            self.flushes.append(page.page_id)
            self.images[page.page_id] = page.to_bytes()


def _readahead_pool(window=8, capacity=64, n_pages=32, fault_hook=None):
    disk = _ByteDisk(n_pages)
    stats = StorageStats()

    def prefetch_run(page_id):
        return page_id + 1, max(0, min(window, disk.page_count - page_id - 1))

    pool = BufferPool(
        capacity,
        disk.load,
        disk.flush,
        stats,
        fault_hook=fault_hook,
        read_pages=disk.read_pages,
        flush_pages=disk.flush_pages,
        readahead_pages=window,
        prefetch_run=prefetch_run,
    )
    return pool, disk, stats


def test_sequential_scan_prefetches_and_absorbs_faults():
    pool, disk, stats = _readahead_pool(window=8, n_pages=24)
    for page_id in range(24):
        pool.fetch(page_id)
    # Every page was served exactly once, as a fault or a staged hit.
    assert stats.major_faults + stats.prefetch_hits == 24
    # Read-ahead kicked in at the second fault and absorbed most faults.
    assert stats.prefetch_hits > stats.major_faults
    assert stats.pages_prefetched == stats.prefetch_hits  # all paid off
    assert stats.io_batches >= 1
    assert disk.vector_reads  # at least one vectored transfer happened
    for start, count in disk.vector_reads:
        assert count <= 8


def test_prefetched_page_is_not_a_major_fault():
    pool, disk, stats = _readahead_pool(window=8, n_pages=16)
    pool.fetch(0)
    pool.fetch(1)  # sequential: stages 2..9
    faults_before = stats.major_faults
    pool.fetch(2)  # staged hit
    assert stats.major_faults == faults_before
    assert stats.prefetch_hits == 1
    assert pool.is_resident(2)
    assert not pool.is_staged(2)  # promoted out of the stage


def test_window_zero_never_prefetches():
    pool, disk, stats = _readahead_pool(window=0, n_pages=16)
    for page_id in range(16):
        pool.fetch(page_id)
    assert not disk.vector_reads
    assert stats.pages_prefetched == 0
    assert stats.prefetch_hits == 0
    assert stats.major_faults == 16


def test_random_access_never_prefetches():
    pool, disk, stats = _readahead_pool(window=4, n_pages=32)
    for page_id in (0, 20, 5, 28, 12):  # every gap outside the window
        pool.fetch(page_id)
    assert not disk.vector_reads
    assert stats.pages_prefetched == 0


def test_fault_hook_fires_on_staged_hit():
    seen = []
    pool, disk, stats = _readahead_pool(
        window=8, n_pages=16, fault_hook=lambda page: seen.append(page.page_id)
    )
    for page_id in range(6):
        pool.fetch(page_id)
    # The hook (Texas swizzling) runs once per demanded page, staged or
    # not — never for pages that sit in the stage unreferenced.
    assert seen == [0, 1, 2, 3, 4, 5]


def test_prefetch_skips_resident_pages():
    pool, disk, stats = _readahead_pool(window=8, n_pages=16)
    pool.fetch(3)  # resident before the scan reaches it
    pool.fetch(0)
    pool.fetch(1)  # stages 2..9, but 3 must be skipped
    assert not pool.is_staged(3)
    hits_before = stats.buffer_hits
    pool.fetch(3)
    assert stats.buffer_hits == hits_before + 1  # still a plain hit


def test_staged_pages_do_not_occupy_pool_slots():
    pool, disk, stats = _readahead_pool(window=8, capacity=4, n_pages=16)
    pool.fetch(0)
    pool.fetch(1)  # stages several pages
    assert pool.staged_pages > 0
    assert pool.resident_pages == 2  # stage lives outside the pool


def test_drop_discards_staged_image():
    pool, disk, stats = _readahead_pool(window=8, n_pages=16)
    pool.fetch(0)
    pool.fetch(1)
    assert pool.is_staged(2)
    pool.drop(2)
    assert not pool.is_staged(2)
    pool.fetch(2)  # must be a real fault now
    assert stats.prefetch_hits == 0


# -- vectored flush -----------------------------------------------------------


def test_flush_coalesces_contiguous_runs():
    pool, disk, stats = _readahead_pool(window=8, n_pages=16)
    for page_id in (3, 4, 5, 9):
        pool.fetch(page_id).dirty = True
    written = pool.flush_dirty()
    assert written == 4
    # One vectored transfer for 3..5, one single write for 9 — ascending.
    assert disk.vector_writes == [(3, 3)]
    assert disk.flushes == [3, 4, 5, 9]
    assert stats.io_batches >= 1
    assert stats.page_writes == 4


def test_flush_without_vectored_writer_stays_per_page():
    pool, disk, stats = _pool()
    for page_id in (1, 2, 3):
        pool.fetch(page_id).dirty = True
    assert pool.flush_dirty() == 3
    assert disk.flushes == [1, 2, 3]
    assert stats.io_batches == 0
