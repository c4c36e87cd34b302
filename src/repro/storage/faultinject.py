"""Deterministic fault injection for crash-consistency testing.

A :class:`FaultInjector` counts the disk layer's *write points* — every
page write, full metadata blob and metadata delta frame — and kills the
store at a chosen one, optionally leaving a half-written ("torn") page
or frame behind, the way a real power cut tears a sector-aligned write
in two.  Because
``BufferPool.flush_dirty`` writes in page-id order, the same workload
always produces the same write sequence, so ``crash_after_writes=N``
reproduces the exact same crash every run.

Usage::

    injector = FaultInjector(crash_after_writes=17, torn_write=True)
    sm = ObjectStoreSM(path, checkpoint_every=1, fault_injector=injector)
    with pytest.raises(InjectedCrashError):
        run_workload(sm)
    # reopen plain and check: last checkpoint state, or loud failure
    reopened = ObjectStoreSM(path)

Counting with ``crash_after_writes=None`` never crashes — run the
workload once that way to learn how many write points it has, then sweep
``range(total)`` for the crash matrix (see tests/test_storage_crashmatrix.py).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InjectedCrashError, StorageError
from repro.storage.disk import PAGE_SIZE, MMapPageFile, PageFile, PageImage

#: A torn page write keeps this many bytes of the new image; the rest is
#: whatever was there before (or zeroes, for a fresh page).
TORN_WRITE_BYTES = PAGE_SIZE // 2


@dataclass
class FaultInjector:
    """Shared crash schedule for one :class:`FaultyPageFile`.

    ``crash_after_writes=N`` kills the store at write point N (0-based:
    N=0 dies before any write lands).  ``torn_write`` makes the fatal
    page write or delta frame land its first half instead of nothing.
    ``None`` never crashes; ``writes_seen`` then reports the workload's
    total write points.
    """

    crash_after_writes: int | None = None
    torn_write: bool = False
    writes_seen: int = 0
    dead: bool = False

    def on_write(self) -> bool:
        """Count a write point; True when this one is the fatal one."""
        self.check_alive()
        if (
            self.crash_after_writes is not None
            and self.writes_seen >= self.crash_after_writes
        ):
            self.dead = True
            return True
        self.writes_seen += 1
        return False

    def check_alive(self) -> None:
        if self.dead:
            raise InjectedCrashError(
                f"store crashed at write point {self.writes_seen}"
            )


class FaultyPageFile(PageFile):
    """A :class:`PageFile` that dies on schedule.

    Page writes, full metadata blobs and metadata delta frames are all
    write points.  A fatal *page* write either loses the image entirely
    or — in torn mode — lands the first :data:`TORN_WRITE_BYTES` of the
    newly stamped image over the old page, producing a checksum
    mismatch the integrity layer must detect.  A fatal *delta frame*
    lands nothing or — in torn mode — its first half, a short frame
    that reopen must treat as a checkpoint that never happened.  A
    fatal *full blob* write never renames its temp file, so the old
    ``.meta`` survives whole: the atomic-rename protocol leaves nothing
    to tear.
    """

    def __init__(self, path: str | None, injector: FaultInjector) -> None:
        super().__init__(path)
        self.injector = injector

    def write_page(self, page_id: int, image: bytes) -> None:
        if self.injector.on_write():
            if self.injector.torn_write:
                self._tear_page(page_id, image)
            self.injector.check_alive()
        super().write_page(page_id, image)

    def write_pages(self, start_page_id: int, images: list[bytes]) -> None:
        """Decompose a vectored write into per-page write points.

        A real power cut can land between any two sector-aligned page
        writes of one batch, so the crash schedule must expose the same
        write points whether the commit path batches or not — that is
        what keeps ``crash_after_writes=N`` meaning the same crash with
        vectored commit I/O on or off.
        """
        for offset, image in enumerate(images):
            self.write_page(start_page_id + offset, image)

    def _tear_page(self, page_id: int, image: bytes) -> None:
        """Land the front half of the stamped image over the old page."""
        stamped = self._stamp(image)
        try:
            raw = self._raw_image(page_id)
        except StorageError:
            raw = None
        # Materialise the old image: a mapped backend hands back a view
        # of the very buffer _put_image is about to overwrite.
        old_raw = b"\0" * PAGE_SIZE if raw is None else bytes(raw)
        self._put_image(
            page_id, stamped[:TORN_WRITE_BYTES] + old_raw[TORN_WRITE_BYTES:]
        )

    def write_meta(self, meta: dict) -> int:
        if self.injector.on_write():
            # Crash mid-protocol: the temp file may exist (possibly
            # truncated) but the rename never happened.
            self.injector.check_alive()
        return super().write_meta(meta)

    def _append_frame(self, frame: bytes) -> None:
        # The write point of ``append_meta``: reached only when a frame
        # really goes to disk, so each checkpoint is one write point
        # whether it appends a frame or writes a full blob.
        if self.injector.on_write():
            if self.injector.torn_write:
                super()._append_frame(frame[: len(frame) // 2])
            self.injector.check_alive()
        super()._append_frame(frame)

    def read_page(self, page_id: int) -> PageImage:
        self.injector.check_alive()
        return super().read_page(page_id)

    def read_pages(self, start_page_id: int, count: int) -> list[PageImage | None]:
        self.injector.check_alive()
        return super().read_pages(start_page_id, count)

    def read_meta(self) -> dict | None:
        self.injector.check_alive()
        return super().read_meta()


class FaultyMMapPageFile(FaultyPageFile, MMapPageFile):
    """The mmap disk layer under the same deterministic crash schedule.

    Pure method composition: :class:`FaultyPageFile` contributes the
    write-point counting, per-page decomposition of vectored writes and
    torn-write logic; the MRO routes every primitive it calls
    (``_raw_image``, ``_put_image``, the reads) to
    :class:`MMapPageFile`.  The crash matrix therefore sweeps the mmap
    backend with bit-for-bit the same write-point sequence as the
    buffered one.
    """
