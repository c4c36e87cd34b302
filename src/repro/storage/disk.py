"""The simulated disk: a page file plus a metadata side file.

``PageFile`` stores fixed-size pages at ``page_id * PAGE_SIZE`` offsets in
a single file, exactly like the 1996 stores' database files, so the
paper's ``size (bytes)`` column is simply the file's allocated length.
When constructed without a path it keeps pages in a dict — used by tests
and by benchmark configurations that only care about fault counts, not
real I/O latency.

Metadata (object directory, segment table, roots, allocator high-water
mark, intern table) is persisted at checkpoints in a ``.meta`` side file.
Real persistent stores keep this mapping in swizzled virtual addresses
(Texas) or internal B-trees (ObjectStore); modelling it as a side file
keeps both simulated managers identical in this respect while still
counting the bytes toward database size.

The ``.meta`` file is one pickled **base blob** followed by zero or more
**delta frames**, each ``<u32 length><u32 crc32><pickled delta>``.  A
frame carries only what one checkpoint changed (see :func:`_replay_delta`
for its keys), so a checkpoint costs O(change) instead of re-pickling
the whole directory.  The frames never outgrow the base blob: when the
next one would, the checkpoint writes a full blob instead (compaction),
which keeps the amortized cost O(change) with no knob to tune.
``close()`` and ``recover()`` always write a full blob, so a store at
rest holds exactly one.

Crash consistency
-----------------

Two mechanisms make a crash detectable instead of silently corrupting:

* The metadata moves forward in atomic steps.  A full blob is written
  to a temp file, fsync'd and renamed over ``.meta``, so a crash leaves
  either the old file or the new one.  A delta frame is appended in
  place and fsync'd; on reopen the frames replay in order up to the
  first short or CRC-failing frame.  A torn tail is a checkpoint that
  never happened — the same guarantee the rename gives — and since
  appending after it would hide every later frame behind it, the next
  checkpoint writes a full blob instead.  A base blob that does not
  unpickle fails closed.
* Every page image carries a 16-byte trailer in its zero-padding:
  a magic marker, the **commit epoch** current when the page was
  written, and a CRC-32 of the page body.  The storage manager stamps
  the same epoch into the metadata at each checkpoint, so on
  reopen a page "from the future" (flushed by a commit the checkpoint
  never heard of) or a torn page (checksum mismatch, e.g. half a write)
  is detected — see ``repro.storage.integrity``.

The trailer is disk-level bookkeeping: callers write images whose last
``PAGE_TRAILER_BYTES`` are zero (``Page.to_bytes`` guarantees this) and
read back exactly what they wrote, trailer bytes zeroed again.
"""

from __future__ import annotations

import io
import mmap
import os
import pickle
import struct
import zlib

from repro.errors import StorageError
from repro.storage.page import PAGE_SIZE, PAGE_TRAILER_BYTES

#: What a page read yields.  The buffered :class:`PageFile` returns
#: ``bytes`` copies; the memory-mapped :class:`MMapPageFile` returns
#: zero-copy ``memoryview`` slices of the map.  Consumers (pickle,
#: ``zlib.crc32``, ``struct.unpack``, slicing) accept either.
PageImage = bytes | memoryview

#: A hole page: the image a never-written page reads back as in file mode.
_ZERO_PAGE = b"\0" * PAGE_SIZE

#: Trailer layout: 4-byte magic, then packed (epoch: u64, crc32: u32).
PAGE_TRAILER_MAGIC = b"LBF1"
_EPOCH_CRC = struct.Struct("<QI")

_BODY_BYTES = PAGE_SIZE - PAGE_TRAILER_BYTES

#: Delta frame header: packed (payload length: u32, crc32: u32).
_FRAME_HEADER = struct.Struct("<II")


def _replay_delta(meta: dict, delta: dict) -> None:
    """Fold one delta frame into a metadata dict, in place.

    ``directory`` maps each changed oid to its new entry, ``None`` for a
    deleted one; ``segments`` lists the changed segment descriptors,
    which replace the base's by name (new ones append, keeping segment
    id order); ``intern`` lists names appended to the intern table.
    Every other key (epoch, high-water marks, roots) replaces the
    base's value.
    """
    for key, value in delta.items():
        if key == "directory":
            directory = meta["directory"]
            for oid, entry in value.items():
                if entry is None:
                    directory.pop(oid, None)
                else:
                    directory[oid] = entry
        elif key == "segments":
            by_name = {seg["name"]: seg for seg in meta["segments"]}
            by_name.update((seg["name"], seg) for seg in value)
            meta["segments"] = list(by_name.values())
        elif key == "intern":
            meta["intern"] = list(meta.get("intern", ())) + list(value)
        else:
            meta[key] = value


class PageFile:
    """Page-granular storage backed by a real file or by memory."""

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self._mem: dict[int, bytes] = {}
        self._page_count = 0
        self._file = None
        #: The .meta layout: base blob bytes, bytes after it (valid
        #: frames plus any torn garbage), and whether a frame may be
        #: appended (a base exists and nothing invalid follows it).
        self._meta_base_bytes = 0
        self._meta_tail_bytes = 0
        self._meta_appendable = False
        self._meta_handle: io.BufferedWriter | None = None
        self._mem_meta: bytearray | None = None
        #: Commit epoch stamped into the trailer of every page written.
        #: The storage manager advances it at each metadata checkpoint.
        self.epoch = 1
        if path is not None:
            # "x+b" would refuse reopening; support both create and reopen.
            mode = "r+b" if os.path.exists(path) else "w+b"
            self._file = open(path, mode)
            size = os.path.getsize(path)
            if size % PAGE_SIZE:
                raise StorageError(
                    f"{path}: size {size} is not a multiple of the page size"
                )
            self._page_count = size // PAGE_SIZE

    @property
    def page_count(self) -> int:
        return self._page_count

    @property
    def size_bytes(self) -> int:
        return self._page_count * PAGE_SIZE

    # -- trailer plumbing -----------------------------------------------------

    def _stamp(self, image: bytes) -> bytes:
        """Install the commit-epoch trailer in the image's reserve bytes."""
        body = image[:_BODY_BYTES]
        return body + PAGE_TRAILER_MAGIC + _EPOCH_CRC.pack(
            self.epoch, zlib.crc32(body)
        )

    @staticmethod
    def _check_image(page_id: int, raw: PageImage) -> tuple[bytes, int]:
        """Validate a stamped image; returns (caller image, epoch).

        Raises :class:`StorageError` for a missing trailer or a checksum
        mismatch — the signatures of a torn or interrupted write.
        """
        body, trailer = bytes(raw[:_BODY_BYTES]), raw[_BODY_BYTES:]
        if trailer[:4] != PAGE_TRAILER_MAGIC:
            raise StorageError(
                f"page {page_id} has no valid trailer (torn or corrupt write)"
            )
        epoch, crc = _EPOCH_CRC.unpack(trailer[4:])
        if zlib.crc32(body) != crc:
            raise StorageError(f"page {page_id} is torn (checksum mismatch)")
        return body + b"\0" * PAGE_TRAILER_BYTES, epoch

    def _raw_image(self, page_id: int) -> PageImage | None:
        """The stamped on-disk image, or None for a never-written hole."""
        if page_id >= self._page_count:
            raise StorageError(f"page {page_id} beyond end of store")
        if self._file is None:
            return self._mem.get(page_id)
        self._file.seek(page_id * PAGE_SIZE)
        raw = self._file.read(PAGE_SIZE)
        if len(raw) != PAGE_SIZE:
            raise StorageError(f"short read on page {page_id}")
        if raw == _ZERO_PAGE:
            return None
        return raw

    def _put_image(self, page_id: int, stamped: bytes) -> None:
        """Backend write of a full stamped image (no validation)."""
        if self._file is None:
            self._mem[page_id] = stamped
        else:
            if page_id > self._page_count:
                # Writing past the end: zero-fill the gap explicitly so
                # hole pages are well-defined on every filesystem.
                self._file.seek(self._page_count * PAGE_SIZE)
                self._file.write(
                    b"\0" * ((page_id - self._page_count) * PAGE_SIZE)
                )
            self._file.seek(page_id * PAGE_SIZE)
            self._file.write(stamped)
        if page_id >= self._page_count:
            self._page_count = page_id + 1

    # -- page I/O -------------------------------------------------------------

    def read_page(self, page_id: int) -> PageImage:
        """Read one page image; raises if the page was never written.

        Both backends raise the same ``StorageError`` for a hole page:
        in file mode a never-written page in the zero-filled gap left by
        a past-the-end write reads back as all zeroes, which no stamped
        page image can be.  A page that fails trailer validation (torn
        write) also raises rather than returning garbage.
        """
        raw = self._raw_image(page_id)
        if raw is None:
            raise StorageError(f"page {page_id} was never written")
        image, _epoch = self._check_image(page_id, raw)
        return image

    def read_page_epoch(self, page_id: int) -> int | None:
        """The commit epoch a page was written at, or None for a hole.

        Raises :class:`StorageError` when the page is torn.
        """
        raw = self._raw_image(page_id)
        if raw is None:
            return None
        _image, epoch = self._check_image(page_id, raw)
        return epoch

    def read_pages(self, start_page_id: int, count: int) -> list[PageImage | None]:
        """Vectored read: ``count`` contiguous pages in one backend transfer.

        Unlike :meth:`read_page`, hole (never-written) pages come back as
        ``None`` rather than raising — a speculative read-ahead batch may
        legitimately cross a hole, and the caller skips it.  A torn page
        (trailer or checksum failure) still raises, and so does a range
        reaching beyond the end of the store; read-ahead callers clamp
        the range and treat the error as "abandon the batch".
        """
        if count < 0:
            raise StorageError(f"negative page count {count}")
        if start_page_id < 0 or start_page_id + count > self._page_count:
            raise StorageError(
                f"pages [{start_page_id}, {start_page_id + count}) reach "
                "beyond end of store"
            )
        if self._file is None:
            raws = [
                self._mem.get(page_id)
                for page_id in range(start_page_id, start_page_id + count)
            ]
        else:
            self._file.seek(start_page_id * PAGE_SIZE)
            blob = self._file.read(count * PAGE_SIZE)
            if len(blob) != count * PAGE_SIZE:
                raise StorageError(
                    f"short read on pages [{start_page_id}, "
                    f"{start_page_id + count})"
                )
            raws = [
                None if raw == _ZERO_PAGE else raw
                for raw in (
                    blob[i * PAGE_SIZE:(i + 1) * PAGE_SIZE] for i in range(count)
                )
            ]
        images: list[PageImage | None] = []
        for offset, raw in enumerate(raws):
            if raw is None:
                images.append(None)
            else:
                image, _epoch = self._check_image(start_page_id + offset, raw)
                images.append(image)
        return images

    def _require_writable_image(self, page_id: int, image: bytes) -> None:
        if len(image) != PAGE_SIZE:
            raise StorageError(
                f"page image must be exactly {PAGE_SIZE} bytes, got {len(image)}"
            )
        if image[_BODY_BYTES:] != b"\0" * PAGE_TRAILER_BYTES:
            raise StorageError(
                f"page {page_id}: the last {PAGE_TRAILER_BYTES} bytes are "
                "reserved for the commit-epoch trailer and must be zero"
            )

    def write_page(self, page_id: int, image: bytes) -> None:
        self._require_writable_image(page_id, image)
        self._put_image(page_id, self._stamp(image))

    def write_pages(self, start_page_id: int, images: list[bytes]) -> None:
        """Vectored write: contiguous page images in one backend transfer.

        Byte-for-byte equivalent to calling :meth:`write_page` once per
        image in ascending page-id order — same stamps, same trailer,
        same resulting file — so commit batching cannot change what ends
        up on disk, only how many transfers carry it there.
        """
        if not images:
            return
        for offset, image in enumerate(images):
            self._require_writable_image(start_page_id + offset, image)
        stamped = [self._stamp(image) for image in images]
        if self._file is None:
            for offset, item in enumerate(stamped):
                self._mem[start_page_id + offset] = item
        else:
            if start_page_id > self._page_count:
                # Zero-fill the gap explicitly, exactly like write_page,
                # so hole pages stay well-defined on every filesystem.
                self._file.seek(self._page_count * PAGE_SIZE)
                self._file.write(
                    b"\0" * ((start_page_id - self._page_count) * PAGE_SIZE)
                )
            self._file.seek(start_page_id * PAGE_SIZE)
            self._file.write(b"".join(stamped))
        if start_page_id + len(images) > self._page_count:
            self._page_count = start_page_id + len(images)

    def clear_page(self, page_id: int) -> None:
        """Reset a page to never-written (recovery discards torn pages)."""
        if page_id >= self._page_count:
            return
        if self._file is None:
            self._mem.pop(page_id, None)
        else:
            self._file.seek(page_id * PAGE_SIZE)
            self._file.write(_ZERO_PAGE)

    def epoch_issues(self, max_epoch: int) -> list[str]:
        """Scan every page for torn images and epochs beyond ``max_epoch``.

        Used on reopen (against the checkpoint's epoch) to detect
        commits the metadata never heard of, and by ``verify`` (against
        the current epoch) to detect torn pages.
        """
        issues: list[str] = []
        for page_id in range(self._page_count):
            try:
                epoch = self.read_page_epoch(page_id)
            except StorageError as exc:
                issues.append(str(exc))
                continue
            if epoch is not None and epoch > max_epoch:
                issues.append(
                    f"page {page_id} stamped commit epoch {epoch} > "
                    f"checkpoint epoch {max_epoch} (commits after the last "
                    "checkpoint, or a stale metadata blob)"
                )
        return issues

    def sync(self) -> None:
        """Flush file buffers (no-op in memory mode)."""
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        if self._meta_handle is not None:
            self._meta_handle.close()
            self._meta_handle = None
        if self._file is not None:
            self._file.close()
            self._file = None

    # -- metadata side file ---------------------------------------------------

    def _meta_path(self) -> str | None:
        return None if self.path is None else self.path + ".meta"

    def write_meta(self, meta: dict) -> int:
        """Persist a full metadata blob atomically; returns bytes written.

        The blob is written to a ``.meta.tmp`` side file, fsync'd, then
        renamed over the ``.meta`` file, so a crash at any point leaves
        either the old file (base and frames) or the new blob — never a
        truncated blob that would make the store look freshly created
        (or fail to unpickle) on reopen.  The new blob has no frames
        after it, so it resets the append budget to its own size.
        """
        blob = pickle.dumps(meta, protocol=4)
        meta_path = self._meta_path()
        if meta_path is None:
            self._mem_meta = bytearray(blob)
        else:
            if self._meta_handle is not None:
                # The handle appends to the inode the rename replaces.
                self._meta_handle.close()
                self._meta_handle = None
            tmp_path = meta_path + ".tmp"
            with open(tmp_path, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, meta_path)
        self._meta_base_bytes = len(blob)
        self._meta_tail_bytes = 0
        self._meta_appendable = True
        return len(blob)

    def append_meta(self, delta: dict) -> int:
        """Append one delta frame in place; returns bytes written.

        The frame is ``<u32 length><u32 crc32><pickled delta>``, written
        on a handle kept open and fsync'd — no temp file, no rename.
        Returns ``0`` and writes nothing when the frame must not be
        appended: no base blob exists yet, bytes that are not a valid
        frame follow the last one (a torn tail), or the tail plus this
        frame would outgrow the base blob.  The caller then writes a
        full blob, which bounds the frames to the base's size and keeps
        the amortized cost of a checkpoint O(change).
        """
        payload = pickle.dumps(delta, protocol=4)
        frame = _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        if len(frame) > self.meta_room:
            return 0
        self._append_frame(frame)
        self._meta_tail_bytes += len(frame)
        return len(frame)

    def _append_frame(self, frame: bytes) -> None:
        """Backend append of frame bytes to the .meta file, made durable."""
        if self._mem_meta is not None:
            self._mem_meta += frame
            return
        if self._meta_handle is None:
            meta_path = self._meta_path()
            assert meta_path is not None  # memory mode appended above
            self._meta_handle = open(meta_path, "ab")
        try:
            self._meta_handle.write(frame)
            self._meta_handle.flush()
            os.fsync(self._meta_handle.fileno())
        except OSError:
            # Part of the frame may have landed: never append after it.
            self._meta_appendable = False
            raise

    def read_meta(self) -> dict | None:
        """Load the metadata, or None if none was ever written.

        Unpickles the base blob, then replays the delta frames after it
        in order (:func:`_replay_delta`), stopping at the first short or
        CRC-failing frame: a torn tail is a checkpoint that never
        happened.  Bytes left after the last valid frame make the next
        checkpoint write a full blob rather than append behind them.

        A base blob that exists but does not unpickle — or a frame whose
        CRC holds but whose payload does not — raises
        :class:`StorageError`: a damaged store must fail loudly rather
        than masquerade as a fresh one.
        """
        meta_path = self._meta_path()
        if meta_path is None:
            if self._mem_meta is None:
                return None
            blob = bytes(self._mem_meta)
        else:
            if not os.path.exists(meta_path):
                return None
            with open(meta_path, "rb") as handle:
                blob = handle.read()
        stream = io.BytesIO(blob)
        try:
            meta = pickle.Unpickler(stream).load()
            pos = base_end = stream.tell()
            while pos + _FRAME_HEADER.size <= len(blob):
                length, crc = _FRAME_HEADER.unpack_from(blob, pos)
                end = pos + _FRAME_HEADER.size + length
                payload = blob[pos + _FRAME_HEADER.size:end]
                if end > len(blob) or zlib.crc32(payload) != crc:
                    break
                _replay_delta(meta, pickle.loads(payload))
                pos = end
        # A half-written or bit-flipped blob raises arbitrary unpickling
        # errors; all of them mean the same thing — corrupt metadata.
        except Exception as exc:  # lint: ignore[LF06]
            raise StorageError(
                f"{meta_path or '<memory>'}: corrupt metadata blob: {exc}"
            ) from exc
        self._meta_base_bytes = base_end
        self._meta_tail_bytes = len(blob) - base_end
        self._meta_appendable = pos == len(blob)
        return meta

    @property
    def meta_size_bytes(self) -> int:
        """Bytes in the .meta file: base blob plus everything after it."""
        return self._meta_base_bytes + self._meta_tail_bytes

    @property
    def meta_tail_bytes(self) -> int:
        """Bytes after the base blob; 0 means the file is one full blob."""
        return self._meta_tail_bytes

    @property
    def meta_room(self) -> int:
        """Bytes of delta frames that may still be appended before the
        next checkpoint must write a full blob (0 when none may)."""
        if not self._meta_appendable:
            return 0
        return self._meta_base_bytes - self._meta_tail_bytes


#: Pages per map chunk (1024 * 4 KiB = 4 MiB).  A multiple of every
#: platform's ``mmap.ALLOCATIONGRANULARITY``, so chunk offsets are always
#: legal map offsets.
MMAP_CHUNK_PAGES = 1024

_CHUNK_BYTES = MMAP_CHUNK_PAGES * PAGE_SIZE


class MMapPageFile(PageFile):
    """Page storage served from memory-mapped chunks of the page file.

    Reads are **zero-copy**: :meth:`read_page` and :meth:`read_pages`
    validate the trailer in place and hand back ``memoryview`` slices of
    the map instead of ``bytes`` copies.  A returned view is the *whole
    stamped page* — the trailer bytes are live (magic, epoch, CRC)
    rather than zeroed as in :class:`PageFile`; record decoding ignores
    everything past the pickle STOP opcode, and the integrity layer
    reads epochs through :meth:`read_page_epoch`, so no consumer sees
    the difference.

    The file is mapped in fixed-size chunks (:data:`MMAP_CHUNK_PAGES`
    pages) that are **never resized**: resizing would raise
    ``BufferError`` while any exported view is alive.  Growth extends
    the file to the next chunk boundary and maps the new chunk; the one
    partial map a reopen of a non-chunk-aligned file creates is retired
    (kept alive for its exported views — ``MAP_SHARED`` keeps it
    coherent with the full chunk map that replaces it) rather than
    closed.  :meth:`close` truncates the file back to
    ``page_count * PAGE_SIZE``, so a cleanly closed store is
    byte-identical to one written by :class:`PageFile`; only a crash
    leaves the chunk padding, which reopens as trailing hole pages.

    Without a path, chunks are anonymous maps — the memory-mode twin,
    like :class:`PageFile`'s dict.
    """

    def __init__(self, path: str | None = None) -> None:
        super().__init__(path)
        #: Full- or (last entry, reopen only) partial-chunk maps.
        self._maps: list[mmap.mmap] = []
        #: Pages covered by each map; only the last may be short.
        self._map_pages: list[int] = []
        #: Partial maps displaced by growth, kept alive for exported views.
        self._retired: list[mmap.mmap] = []
        if self._file is not None and self._page_count:
            size = self._page_count * PAGE_SIZE
            full, rem = divmod(size, _CHUNK_BYTES)
            for index in range(full):
                self._maps.append(
                    mmap.mmap(
                        self._file.fileno(),
                        _CHUNK_BYTES,
                        offset=index * _CHUNK_BYTES,
                    )
                )
                self._map_pages.append(MMAP_CHUNK_PAGES)
            if rem:
                # Map exactly what exists: padding the file here would
                # modify a store we may only be verifying.
                self._maps.append(
                    mmap.mmap(self._file.fileno(), rem, offset=full * _CHUNK_BYTES)
                )
                self._map_pages.append(rem // PAGE_SIZE)

    # -- chunk plumbing -------------------------------------------------------

    def _covered_pages(self) -> int:
        if not self._maps:
            return 0
        return (len(self._maps) - 1) * MMAP_CHUNK_PAGES + self._map_pages[-1]

    def _ensure(self, page_count: int) -> None:
        """Grow coverage (file + maps) to at least ``page_count`` pages."""
        if page_count <= self._covered_pages():
            return
        if self._maps and self._map_pages[-1] < MMAP_CHUNK_PAGES:
            # The reopen-time partial tail cannot grow in place; retire
            # it (exported views stay valid and coherent) and remap the
            # chunk at full size below.
            self._retired.append(self._maps.pop())
            self._map_pages.pop()
        chunks = -(-page_count // MMAP_CHUNK_PAGES)
        if self._file is not None:
            self._file.truncate(chunks * _CHUNK_BYTES)
        for index in range(len(self._maps), chunks):
            if self._file is not None:
                chunk = mmap.mmap(
                    self._file.fileno(), _CHUNK_BYTES, offset=index * _CHUNK_BYTES
                )
            else:
                chunk = mmap.mmap(-1, _CHUNK_BYTES)
            self._maps.append(chunk)
            self._map_pages.append(MMAP_CHUNK_PAGES)

    def _page_view(self, page_id: int) -> memoryview:
        """A writable PAGE_SIZE view of the page's bytes in its chunk."""
        chunk, pos = divmod(page_id, MMAP_CHUNK_PAGES)
        offset = pos * PAGE_SIZE
        return memoryview(self._maps[chunk])[offset:offset + PAGE_SIZE]

    @staticmethod
    def _check_view(page_id: int, view: memoryview) -> tuple[memoryview, int]:
        """In-place trailer validation; returns (stamped view, epoch).

        The zero-copy twin of :meth:`PageFile._check_image`: same
        failures, but the returned image is the live mapped page, full
        trailer included, with no intermediate copy.
        """
        body = view[:_BODY_BYTES]
        trailer = view[_BODY_BYTES:]
        if trailer[:4] != PAGE_TRAILER_MAGIC:
            raise StorageError(
                f"page {page_id} has no valid trailer (torn or corrupt write)"
            )
        epoch, crc = _EPOCH_CRC.unpack(trailer[4:])
        if zlib.crc32(body) != crc:
            raise StorageError(f"page {page_id} is torn (checksum mismatch)")
        return view, epoch

    # -- PageFile overrides ---------------------------------------------------

    def _raw_image(self, page_id: int) -> PageImage | None:
        if page_id >= self._page_count:
            raise StorageError(f"page {page_id} beyond end of store")
        if page_id >= self._covered_pages():
            # Crash padding trimmed by a later reopen can leave counted
            # pages beyond coverage; they were never written.
            return None
        view = self._page_view(page_id)
        if view == _ZERO_PAGE:
            return None
        return view

    def _put_image(self, page_id: int, stamped: bytes) -> None:
        self._ensure(page_id + 1)
        self._page_view(page_id)[:] = stamped
        if page_id >= self._page_count:
            self._page_count = page_id + 1

    def read_page(self, page_id: int) -> PageImage:
        raw = self._raw_image(page_id)
        if raw is None:
            raise StorageError(f"page {page_id} was never written")
        assert isinstance(raw, memoryview)
        image, _epoch = self._check_view(page_id, raw)
        return image

    def read_page_epoch(self, page_id: int) -> int | None:
        raw = self._raw_image(page_id)
        if raw is None:
            return None
        assert isinstance(raw, memoryview)
        _image, epoch = self._check_view(page_id, raw)
        return epoch

    def read_pages(self, start_page_id: int, count: int) -> list[PageImage | None]:
        if count < 0:
            raise StorageError(f"negative page count {count}")
        if start_page_id < 0 or start_page_id + count > self._page_count:
            raise StorageError(
                f"pages [{start_page_id}, {start_page_id + count}) reach "
                "beyond end of store"
            )
        images: list[PageImage | None] = []
        for page_id in range(start_page_id, start_page_id + count):
            raw = self._raw_image(page_id)
            if raw is None:
                images.append(None)
            else:
                assert isinstance(raw, memoryview)
                image, _epoch = self._check_view(page_id, raw)
                images.append(image)
        return images

    def write_pages(self, start_page_id: int, images: list[bytes]) -> None:
        # With mapped chunks a vectored write is a run of in-place
        # copies — there is no second seek+transfer to save — so the
        # batch decomposes per page.  Ascending order and bytes written
        # are identical to PageFile's join-and-write.
        for offset, image in enumerate(images):
            self._require_writable_image(start_page_id + offset, image)
        for offset, image in enumerate(images):
            self._put_image(start_page_id + offset, self._stamp(image))

    def clear_page(self, page_id: int) -> None:
        if page_id >= self._page_count or page_id >= self._covered_pages():
            return
        self._page_view(page_id)[:] = _ZERO_PAGE

    def sync(self) -> None:
        if self._file is not None:
            for chunk in self._maps:
                chunk.flush()

    def close(self) -> None:
        if self._file is not None:
            for chunk in self._maps:
                chunk.flush()
        for chunk in self._maps + self._retired:
            try:
                chunk.close()
            except BufferError:
                # A consumer still holds an exported view; the map is
                # released when the view is garbage-collected.
                pass
        self._maps = []
        self._map_pages = []
        self._retired = []
        if self._file is not None:
            # Trim the chunk padding so a closed store is byte-identical
            # to a PageFile-written one.
            self._file.truncate(self._page_count * PAGE_SIZE)
        super().close()
