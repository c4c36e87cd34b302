"""Buffer pool with fault accounting, read-ahead and vectored flushes.

Every page access goes through the pool.  A miss on a page that exists on
disk is counted as a *major fault* — the simulated stand-in for the
paper's ``majflt`` column (on 1996 hardware the databases exceeded RAM,
so OS page faults measured locality of reference; see
``repro.util.timing``).

Replacement is LRU over *clean* pages only (a no-steal policy): dirty
pages hold uncommitted data, and flushing them before commit would break
abort.  The victim is the oldest resident page that is clean and is not
the page just touched, found by walking the LRU order from its old end.
Every page that walk passes over is dirty, and only pages written since
the last flush are dirty (every commit flushes), so an eviction inspects
at most the open transaction's dirty pages plus one.  If every resident
page is dirty the pool temporarily grows past its capacity and records
the overflow, which the buffer-sweep ablation (A2) reports.

Read-ahead
----------

With ``readahead_pages > 0`` the pool watches the fault stream: when a
miss lands within one window of the previous miss (a near-sequential
pattern — a cold segment scan), it asks the storage manager for the run
of contiguous pages that follows and pulls them in **one vectored read**
(``read_pages``).  The raw images are *staged* in a small side buffer,
deliberately outside the pool:

* a staged page costs no pool slot, so residency, eviction order and
  buffer-hit counts are bit-identical with read-ahead on or off;
* the image is decoded (and the fault hook — Texas swizzling — charged)
  only when the page is actually demanded, so speculative reads that
  never pay off cost nothing but the transfer;
* a demanded staged page counts as a ``prefetch_hit``, **never** as a
  major fault — the locality experiments can see exactly how many
  faults the read-ahead absorbed.

Staleness is impossible by construction: a page can only be dirtied
after a ``fetch``, and a fetch of a staged page promotes it into the
pool (removing the staged image) before any mutation can happen.

Vectored flush
--------------

``flush_dirty`` selects pages from an eagerly-maintained dirty set (the
``Page.dirty`` setter notifies the pool via a listener), sorts *only
those*, and coalesces contiguous page-id runs into single ``write_pages``
transfers.  It touches only the pages it writes, so a commit costs
O(dirty pages), however many pages are resident.  Write order is still
ascending page-id order page for page, so deterministic fault injection
(crash after the Nth write) and on-disk bytes are unchanged — batching
alters how many transfers carry the pages, never what lands.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterator

from repro.errors import StorageError
from repro.storage.page import Page
from repro.storage.stats import StorageStats

#: Default pool capacity in pages (256 pages * 4 KiB = 1 MiB), chosen so
#: the default benchmark database does not fit — otherwise every server
#: version would show zero faults and E5 would be vacuous.
DEFAULT_POOL_PAGES = 256

#: Default read-ahead window in pages (the ``--readahead on`` setting).
DEFAULT_READAHEAD_PAGES = 8

LoadPage = Callable[[int], Page]
FlushPage = Callable[[Page], None]
FaultHook = Callable[[Page], None]
#: Vectored read: (start_page_id, count) -> raw images, None for holes.
#: Images may be zero-copy memoryviews (the mmap disk layer).
ReadPages = Callable[[int, int], "list[bytes | memoryview | None]"]
#: Vectored write: (start_page_id, contiguous pages in ascending order).
FlushPages = Callable[[int, "list[Page]"], None]
#: Policy hook: faulting page id -> (start, count) prefetchable run.
PrefetchRun = Callable[[int], "tuple[int, int]"]


class BufferPool:
    """LRU page cache shared by all segments of one store."""

    def __init__(
        self,
        capacity_pages: int,
        load_page: LoadPage,
        flush_page: FlushPage,
        stats: StorageStats,
        fault_hook: FaultHook | None = None,
        read_pages: ReadPages | None = None,
        flush_pages: FlushPages | None = None,
        readahead_pages: int = 0,
        prefetch_run: PrefetchRun | None = None,
    ) -> None:
        if capacity_pages < 1:
            raise ValueError("buffer pool needs at least one page")
        if readahead_pages < 0:
            raise ValueError("read-ahead window must be >= 0")
        self.capacity_pages = capacity_pages
        self._load_page = load_page
        self._flush_page = flush_page
        self._stats = stats
        self._fault_hook = fault_hook
        self._read_pages = read_pages
        self._flush_pages = flush_pages
        self._readahead = readahead_pages
        self._prefetch_run = prefetch_run
        self._pages: OrderedDict[int, Page] = OrderedDict()
        # Dirty-page candidates, fed by the Page.dirty listener installed
        # at admission.  Entries can be stale the other way (page dropped
        # or cleaned behind the pool's back); flush validates each, so a
        # commit costs O(dirty candidates), not a sort of every resident
        # page.  Invariant: every dirty resident page is listed.
        self._dirty: set[int] = set()
        # Read-ahead stage: raw disk images pulled speculatively, keyed
        # by page id, FIFO-bounded.  Disjoint from _pages by construction.
        self._staged: OrderedDict[int, bytes | memoryview] = OrderedDict()
        self._staged_cap = max(4 * readahead_pages, 16)
        self._last_fault: int | None = None
        self.overflow_high_water = 0  # max pages resident beyond capacity

    # -- access ---------------------------------------------------------------

    def fetch(self, page_id: int) -> Page:
        """Return the page, loading it from disk on a miss (a fault)."""
        page = self._pages.get(page_id)
        if page is not None:
            self._pages.move_to_end(page_id)
            self._stats.buffer_hits += 1
            return page
        raw = self._staged.pop(page_id, None)
        if raw is not None:
            # Staged by read-ahead: decode and admit on demand.  Not a
            # major fault — the transfer already happened, batched — but
            # the fault hook still fires here (Texas swizzles a page
            # when it is mapped in, and only pages actually referenced
            # are mapped in), so per-page policy costs are identical
            # with read-ahead on or off.
            page = Page.from_bytes(page_id, raw)
            self._stats.prefetch_hits += 1
            self._last_fault = page_id
            if self._fault_hook is not None:
                self._fault_hook(page)
            self._admit(page)
            self._extend_readahead(page_id)
            return page
        page = self._load_page(page_id)
        self._stats.major_faults += 1
        self._stats.page_reads += 1
        sequential = (
            self._readahead > 0
            and self._last_fault is not None
            and 0 < page_id - self._last_fault <= self._readahead
        )
        self._last_fault = page_id
        if self._fault_hook is not None:
            self._fault_hook(page)
        self._admit(page)
        if sequential:
            self._prefetch_after(page_id)
        return page

    def admit_new(self, page: Page) -> None:
        """Install a freshly created page (not a fault: nothing was read)."""
        self._admit(page)

    def _admit(self, page: Page) -> None:
        page.dirty_listener = self._note_dirty
        self._pages[page.page_id] = page
        self._pages.move_to_end(page.page_id)
        if page.dirty:
            self._dirty.add(page.page_id)
        self._evict_if_needed()

    def _note_dirty(self, page_id: int) -> None:
        """Listener for Page.dirty: keep the dirty set current, O(1)."""
        self._dirty.add(page_id)

    def _evict_if_needed(self) -> None:
        """Evict the oldest clean pages, never the one just touched."""
        while len(self._pages) > self.capacity_pages:
            newest = next(reversed(self._pages))
            victim_id = next(
                (pid for pid, page in self._pages.items()  # oldest first
                 if not page.dirty and pid != newest),
                None,
            )
            if victim_id is None:
                # All pages dirty: no-steal policy forbids eviction.
                overflow = len(self._pages) - self.capacity_pages
                self.overflow_high_water = max(self.overflow_high_water, overflow)
                return
            del self._pages[victim_id]

    # -- read-ahead -------------------------------------------------------------

    def _prefetch_after(self, page_id: int) -> None:
        """Pull the contiguous run after ``page_id`` in one vectored read."""
        if self._prefetch_run is None or self._read_pages is None:
            return
        start, count = self._prefetch_run(page_id)
        # Pages already resident or staged need no transfer; trimming
        # from the front keeps the remainder a contiguous run.
        while count > 0 and (start in self._pages or start in self._staged):
            start += 1
            count -= 1
        if count <= 0:
            return
        try:
            images = self._read_pages(start, count)
        except StorageError:
            return  # speculative read: abandon the batch, demand paths decide
        staged = 0
        for offset, raw in enumerate(images):
            pid = start + offset
            if raw is None or pid in self._pages or pid in self._staged:
                continue  # hole, or resident mid-run: skip it
            self._staged[pid] = raw
            staged += 1
        if staged:
            self._stats.pages_prefetched += staged
            self._stats.page_reads += staged
        if count > 1:
            self._stats.io_batches += 1
        while len(self._staged) > self._staged_cap:
            self._staged.popitem(last=False)

    def _extend_readahead(self, page_id: int) -> None:
        """Keep a streaming scan fed without degrading to 1-page reads.

        Re-issuing a vectored read on every staged hit would shrink each
        batch to a single page; instead the stage is topped up only once
        the look-ahead for this stream drops to half the window, so
        steady-state batches stay around ``readahead_pages / 2`` pages.
        """
        if self._readahead <= 0:
            return
        lookahead = 0
        while (
            lookahead < self._readahead
            and (page_id + 1 + lookahead) in self._staged
        ):
            lookahead += 1
        if 2 * lookahead <= self._readahead:
            self._prefetch_after(page_id + lookahead)

    # -- write-back -------------------------------------------------------------

    def flush_dirty(self) -> int:
        """Write every dirty resident page to disk; returns pages written.

        Pages go out in page-id order, not LRU order, so a given
        workload always issues the same write sequence — deterministic
        fault injection (crash after the Nth write) depends on it.
        Contiguous runs are coalesced into vectored ``write_pages``
        transfers when the pool was built with one; the per-page order
        and bytes are identical either way.

        Selection costs O(dirty): candidates come from the dirty set the
        Page.dirty listener maintains, so a commit that wrote nothing is
        a no-op instead of a sort of every resident page.
        """
        written_ids = sorted(
            pid
            for pid in self._dirty
            if (page := self._pages.get(pid)) is not None and page.dirty
        )
        self._dirty.clear()
        if not written_ids:
            return 0
        for start, run in self._runs(written_ids):
            if self._flush_pages is not None and len(run) > 1:
                self._flush_pages(start, run)
                self._stats.io_batches += 1
            else:
                for page in run:
                    self._flush_page(page)
            for page in run:
                page.dirty = False
        self._stats.page_writes += len(written_ids)
        self._evict_if_needed()
        return len(written_ids)

    def _runs(
        self, page_ids: list[int]
    ) -> Iterator[tuple[int, list[Page]]]:
        """Split ascending page ids into (start_id, [pages]) runs."""
        run_start = 0
        for index in range(1, len(page_ids) + 1):
            if index == len(page_ids) or page_ids[index] != page_ids[index - 1] + 1:
                ids = page_ids[run_start:index]
                yield ids[0], [self._pages[pid] for pid in ids]
                run_start = index

    def drop_dirty(self) -> int:
        """Discard every dirty page without writing (abort path)."""
        dropped = 0
        for page_id in sorted(self._dirty):
            page = self._pages.get(page_id)
            if page is not None and page.dirty:
                del self._pages[page_id]
                dropped += 1
        self._dirty.clear()
        return dropped

    def drop(self, page_id: int) -> None:
        """Remove one page from the pool if resident (page deallocated)."""
        self._pages.pop(page_id, None)
        self._dirty.discard(page_id)
        self._staged.pop(page_id, None)

    def clear(self) -> None:
        """Empty the pool (dirty pages are lost; call flush_dirty first)."""
        self._pages.clear()
        self._dirty.clear()
        self._staged.clear()
        self._last_fault = None

    # -- introspection ------------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

    def resident_ids(self) -> list[int]:
        return list(self._pages)

    def is_resident(self, page_id: int) -> bool:
        return page_id in self._pages

    @property
    def staged_pages(self) -> int:
        """Pages currently held by the read-ahead stage (not resident)."""
        return len(self._staged)

    def is_staged(self, page_id: int) -> bool:
        return page_id in self._staged
