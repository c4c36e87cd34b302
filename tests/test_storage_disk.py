"""Unit tests for the page file and metadata side file."""

import os

import pytest

from repro.errors import StorageError
from repro.storage.disk import PageFile
from repro.storage.page import PAGE_SIZE, PAGE_TRAILER_BYTES


def _image(fill: bytes) -> bytes:
    """A page image with the trailer reserve left zero, like real pages."""
    body = fill * ((PAGE_SIZE - PAGE_TRAILER_BYTES) // len(fill))
    return body + b"\0" * (PAGE_SIZE - len(body))


def test_memory_mode_round_trip():
    disk = PageFile(None)
    disk.write_page(0, _image(b"a"))
    disk.write_page(1, _image(b"b"))
    assert disk.read_page(0) == _image(b"a")
    assert disk.page_count == 2
    assert disk.size_bytes == 2 * PAGE_SIZE


def test_file_mode_round_trip(tmp_path):
    path = os.path.join(tmp_path, "pages.db")
    disk = PageFile(path)
    disk.write_page(0, _image(b"x"))
    disk.write_page(3, _image(b"y"))  # sparse write extends the file
    disk.sync()
    assert disk.read_page(3) == _image(b"y")
    assert disk.page_count == 4
    disk.close()
    assert os.path.getsize(path) == 4 * PAGE_SIZE

    reopened = PageFile(path)
    assert reopened.page_count == 4
    assert reopened.read_page(0) == _image(b"x")
    reopened.close()


def test_wrong_size_image_rejected():
    disk = PageFile(None)
    with pytest.raises(StorageError, match="exactly"):
        disk.write_page(0, b"short")


def test_read_beyond_end_rejected():
    disk = PageFile(None)
    with pytest.raises(StorageError, match="beyond"):
        disk.read_page(0)


def test_read_unwritten_hole_rejected_in_memory_mode():
    disk = PageFile(None)
    disk.write_page(2, _image(b"z"))
    with pytest.raises(StorageError, match="never written"):
        disk.read_page(0)


def test_read_unwritten_hole_rejected_in_file_mode(tmp_path):
    """Regression: a past-the-end write used to leave hole pages that
    failed with a 'short read' (or decoded as garbage) instead of the
    memory backend's 'never written'.  Both backends must now raise the
    same StorageError, and the gap must be explicitly zero-filled."""
    path = os.path.join(tmp_path, "holes.db")
    disk = PageFile(path)
    disk.write_page(3, _image(b"z"))
    disk.sync()
    assert os.path.getsize(path) == 4 * PAGE_SIZE
    for hole in (0, 1, 2):
        with pytest.raises(StorageError, match="never written"):
            disk.read_page(hole)
    assert disk.read_page(3) == _image(b"z")
    disk.close()
    # holes survive reopen with the same behaviour
    reopened = PageFile(path)
    with pytest.raises(StorageError, match="never written"):
        reopened.read_page(1)
    reopened.close()


def test_hole_page_can_be_filled_later(tmp_path):
    path = os.path.join(tmp_path, "holes.db")
    disk = PageFile(path)
    disk.write_page(2, _image(b"c"))
    disk.write_page(0, _image(b"a"))  # backfill a hole
    assert disk.read_page(0) == _image(b"a")
    with pytest.raises(StorageError, match="never written"):
        disk.read_page(1)
    disk.close()


def test_corrupt_file_size_rejected(tmp_path):
    path = os.path.join(tmp_path, "bad.db")
    with open(path, "wb") as handle:
        handle.write(b"x" * (PAGE_SIZE + 1))
    with pytest.raises(StorageError, match="multiple"):
        PageFile(path)


def test_meta_round_trip_memory():
    disk = PageFile(None)
    assert disk.read_meta() is None
    size = disk.write_meta({"roots": {"a": 1}})
    assert size > 0
    assert disk.read_meta() == {"roots": {"a": 1}}
    assert disk.meta_size_bytes == size


def test_meta_round_trip_file(tmp_path):
    path = os.path.join(tmp_path, "pages.db")
    disk = PageFile(path)
    disk.write_meta({"k": [1, 2, 3]})
    disk.close()
    reopened = PageFile(path)
    assert reopened.read_meta() == {"k": [1, 2, 3]}
    reopened.close()
    assert os.path.exists(path + ".meta")


def test_meta_write_is_atomic(tmp_path):
    """A rewrite never leaves a temp file behind, and the blob on disk is
    always complete (written via tmp + fsync + rename)."""
    path = os.path.join(tmp_path, "pages.db")
    disk = PageFile(path)
    disk.write_meta({"v": 1})
    disk.write_meta({"v": 2, "pad": "x" * 10_000})
    disk.close()
    assert not os.path.exists(path + ".meta.tmp")
    reopened = PageFile(path)
    assert reopened.read_meta() == {"v": 2, "pad": "x" * 10_000}
    reopened.close()


def test_truncated_meta_fails_loudly_not_as_fresh_store(tmp_path):
    """Regression: a crash mid-meta-write used to leave a truncated blob
    whose unpickling error escaped as a raw pickle exception.  A damaged
    blob must raise StorageError (and never read as 'no metadata')."""
    path = os.path.join(tmp_path, "pages.db")
    disk = PageFile(path)
    disk.write_meta({"roots": {"a": 1}})
    disk.close()
    with open(path + ".meta", "r+b") as handle:  # tear the blob in half
        blob = handle.read()
        handle.truncate(len(blob) // 2)
    reopened = PageFile(path)
    with pytest.raises(StorageError, match="corrupt metadata"):
        reopened.read_meta()
    reopened.close()


def test_interrupted_meta_rewrite_keeps_old_blob(tmp_path):
    """A stale .meta.tmp (crash before rename) must not shadow or damage
    the committed blob."""
    path = os.path.join(tmp_path, "pages.db")
    disk = PageFile(path)
    disk.write_meta({"committed": True})
    with open(path + ".meta.tmp", "wb") as handle:
        handle.write(b"\x80\x04partial")  # torn half-written temp file
    assert disk.read_meta() == {"committed": True}
    disk.close()


# -- the commit-epoch trailer ------------------------------------------------


def test_nonzero_trailer_reserve_rejected():
    disk = PageFile(None)
    with pytest.raises(StorageError, match="reserved"):
        disk.write_page(0, b"a" * PAGE_SIZE)


def test_pages_are_stamped_with_the_current_epoch():
    disk = PageFile(None)
    disk.write_page(0, _image(b"a"))
    disk.epoch = 7
    disk.write_page(3, _image(b"b"))
    assert disk.read_page_epoch(0) == 1
    assert disk.read_page_epoch(3) == 7
    assert disk.read_page_epoch(1) is None  # hole


def test_torn_page_detected_by_checksum(tmp_path):
    """Flipping bytes in a stored page (half a write landing) must raise
    on read and show up in the epoch scan — never decode as data."""
    path = os.path.join(tmp_path, "torn.db")
    disk = PageFile(path)
    disk.write_page(0, _image(b"a"))
    disk.write_page(1, _image(b"b"))
    disk.close()
    with open(path, "r+b") as handle:
        handle.seek(100)
        handle.write(b"CORRUPT")
    reopened = PageFile(path)
    with pytest.raises(StorageError, match="torn"):
        reopened.read_page(0)
    assert reopened.read_page(1) == _image(b"b")  # neighbour unharmed
    issues = reopened.epoch_issues(max_epoch=10)
    assert len(issues) == 1 and "torn" in issues[0]
    reopened.close()


def test_epoch_issues_flags_future_pages():
    disk = PageFile(None)
    disk.write_page(0, _image(b"a"))
    disk.epoch = 5
    disk.write_page(1, _image(b"b"))
    assert disk.epoch_issues(5) == []
    issues = disk.epoch_issues(4)
    assert len(issues) == 1 and "epoch 5" in issues[0]


def test_clear_page_makes_a_hole(tmp_path):
    path = os.path.join(tmp_path, "clear.db")
    disk = PageFile(path)
    disk.write_page(0, _image(b"a"))
    disk.write_page(1, _image(b"b"))
    disk.clear_page(0)
    with pytest.raises(StorageError, match="never written"):
        disk.read_page(0)
    assert disk.read_page_epoch(0) is None
    assert disk.read_page(1) == _image(b"b")
    assert disk.page_count == 2  # clearing never shrinks the file
    disk.close()


# -- vectored page I/O --------------------------------------------------------


@pytest.mark.parametrize("path_of", [lambda tmp: None,
                                     lambda tmp: os.path.join(tmp, "v.db")],
                         ids=["memory", "file"])
def test_read_pages_round_trip(tmp_path, path_of):
    disk = PageFile(path_of(tmp_path))
    disk.write_page(0, _image(b"a"))
    disk.write_page(1, _image(b"b"))
    disk.write_page(2, _image(b"c"))
    assert disk.read_pages(0, 3) == [_image(b"a"), _image(b"b"), _image(b"c")]
    assert disk.read_pages(1, 1) == [_image(b"b")]
    assert disk.read_pages(2, 0) == []
    disk.close()


@pytest.mark.parametrize("path_of", [lambda tmp: None,
                                     lambda tmp: os.path.join(tmp, "v.db")],
                         ids=["memory", "file"])
def test_read_pages_returns_none_for_holes(tmp_path, path_of):
    """Unlike read_page, a hole inside a speculative batch is data the
    caller skips, not an error."""
    disk = PageFile(path_of(tmp_path))
    disk.write_page(0, _image(b"a"))
    disk.write_page(2, _image(b"c"))  # leaves page 1 a hole
    assert disk.read_pages(0, 3) == [_image(b"a"), None, _image(b"c")]
    disk.close()


def test_read_pages_beyond_end_rejected():
    disk = PageFile(None)
    disk.write_page(0, _image(b"a"))
    with pytest.raises(StorageError, match="beyond"):
        disk.read_pages(0, 2)
    with pytest.raises(StorageError, match="negative"):
        disk.read_pages(0, -1)


def test_read_pages_torn_page_still_raises(tmp_path):
    path = os.path.join(tmp_path, "torn.db")
    disk = PageFile(path)
    disk.write_page(0, _image(b"a"))
    disk.write_page(1, _image(b"b"))
    disk.close()
    with open(path, "r+b") as handle:
        handle.seek(PAGE_SIZE + 100)
        handle.write(b"CORRUPT")
    reopened = PageFile(path)
    with pytest.raises(StorageError, match="torn"):
        reopened.read_pages(0, 2)
    reopened.close()


def test_write_pages_matches_per_page_writes(tmp_path):
    """The vectored write must leave bit-identical files to per-page
    writes — same stamps, same zero-filled gaps, same page count."""
    batched_path = os.path.join(tmp_path, "batched.db")
    single_path = os.path.join(tmp_path, "single.db")
    images = [_image(b"a"), _image(b"b"), _image(b"c")]

    batched = PageFile(batched_path)
    batched.epoch = 3
    batched.write_pages(2, images)  # past-the-end start: zero-fills 0..1
    assert batched.page_count == 5
    batched.close()

    single = PageFile(single_path)
    single.epoch = 3
    for offset, image in enumerate(images):
        single.write_page(2 + offset, image)
    single.close()

    with open(batched_path, "rb") as a, open(single_path, "rb") as b:
        assert a.read() == b.read()


def test_write_pages_empty_is_a_noop():
    disk = PageFile(None)
    disk.write_pages(0, [])
    assert disk.page_count == 0


def test_write_pages_validates_every_image():
    disk = PageFile(None)
    with pytest.raises(StorageError, match="exactly"):
        disk.write_pages(0, [_image(b"a"), b"short"])
    # validation happens before any write lands
    assert disk.page_count == 0




# -- metadata delta frames ----------------------------------------------------


def _base_meta(pad: int = 2000) -> dict:
    return {
        "epoch": 1,
        "directory": {1: (0, 0), 2: (0, 1)},
        "roots": {},
        "segments": [{"name": "default", "page_ids": [0]}],
        "intern": ["a"],
        "pad": "x" * pad,
    }


@pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "file"])
def test_delta_frames_replay_over_the_base(tmp_path, on_disk):
    path = os.path.join(tmp_path, "pages.db") if on_disk else None
    disk = PageFile(path)
    base = disk.write_meta(_base_meta())
    first = disk.append_meta(
        {"epoch": 2, "directory": {2: None, 3: (1, 0)}, "intern": ["b"]}
    )
    second = disk.append_meta(
        {"epoch": 3, "roots": {"r": 3},
         "segments": [{"name": "default", "page_ids": [0, 1]},
                      {"name": "hot", "page_ids": [2]}]}
    )
    assert first > 0 and second > 0
    assert disk.meta_size_bytes == base + first + second
    if on_disk:
        disk.close()
        disk = PageFile(path)
    meta = disk.read_meta()
    assert meta["epoch"] == 3
    assert meta["directory"] == {1: (0, 0), 3: (1, 0)}
    assert meta["roots"] == {"r": 3}
    assert [seg["name"] for seg in meta["segments"]] == ["default", "hot"]
    assert meta["segments"][0]["page_ids"] == [0, 1]
    assert meta["intern"] == ["a", "b"]
    assert disk.meta_tail_bytes == first + second
    disk.close()


def test_append_needs_a_base_blob():
    disk = PageFile(None)
    assert disk.meta_room == 0
    assert disk.append_meta({"epoch": 1}) == 0
    assert disk.read_meta() is None


def test_full_blob_folds_the_tail_away(tmp_path):
    path = os.path.join(tmp_path, "pages.db")
    disk = PageFile(path)
    disk.write_meta(_base_meta())
    disk.append_meta({"epoch": 2})
    size = disk.write_meta(_base_meta(pad=10))
    disk.append_meta({"epoch": 4})  # appends to the renamed-in blob
    disk.close()
    assert not os.path.exists(path + ".meta.tmp")
    reopened = PageFile(path)
    assert reopened.read_meta()["epoch"] == 4
    assert reopened.meta_tail_bytes == os.path.getsize(path + ".meta") - size
    reopened.close()


def test_frames_are_bounded_by_the_base_blob_size(tmp_path):
    """The compaction boundary: a frame that would take the tail past
    the base blob's size is refused (0 bytes, nothing written)."""
    path = os.path.join(tmp_path, "pages.db")
    disk = PageFile(path)
    base = disk.write_meta(_base_meta(pad=300))
    appended = frame = 0
    while True:
        written = disk.append_meta({"epoch": 2, "pad": "y" * 60})
        if not written:
            break
        appended, frame = appended + written, written
    assert 0 < appended <= base
    assert disk.meta_room == base - appended < frame
    assert os.path.getsize(path + ".meta") == base + appended
    disk.close()


@pytest.mark.parametrize("cut", [3, 8, 20])
def test_torn_frame_ends_replay_and_blocks_appends(tmp_path, cut):
    """A short frame is a checkpoint that never happened; nothing may be
    appended behind it, so the next checkpoint must be a full blob."""
    path = os.path.join(tmp_path, "pages.db")
    disk = PageFile(path)
    disk.write_meta(_base_meta())
    disk.append_meta({"epoch": 2})
    disk.close()
    with open(path + ".meta", "ab") as handle:
        frame = b"\x80\x04\x95" + b"\x00" * 40  # an arbitrary partial frame
        handle.write(frame[:cut])
    reopened = PageFile(path)
    assert reopened.read_meta()["epoch"] == 2
    assert reopened.meta_room == 0
    assert reopened.append_meta({"epoch": 3}) == 0
    reopened.write_meta(_base_meta())
    assert reopened.meta_tail_bytes == 0 and reopened.meta_room > 0
    reopened.close()


def test_crc_failing_frame_is_ignored(tmp_path):
    path = os.path.join(tmp_path, "pages.db")
    disk = PageFile(path)
    disk.write_meta(_base_meta())
    disk.append_meta({"epoch": 2})
    disk.append_meta({"epoch": 3})
    disk.close()
    with open(path + ".meta", "r+b") as handle:
        handle.seek(-1, os.SEEK_END)  # flip the last payload byte
        last = handle.read(1)
        handle.seek(-1, os.SEEK_END)
        handle.write(bytes([last[0] ^ 0xFF]))
    reopened = PageFile(path)
    assert reopened.read_meta()["epoch"] == 2
    assert reopened.meta_room == 0
    reopened.close()


def test_corrupt_base_blob_with_frames_fails_closed(tmp_path):
    path = os.path.join(tmp_path, "pages.db")
    disk = PageFile(path)
    disk.write_meta(_base_meta())
    disk.append_meta({"epoch": 2})
    disk.close()
    with open(path + ".meta", "r+b") as handle:
        handle.seek(10)
        handle.write(b"\xff\xfe\xfd")
    reopened = PageFile(path)
    with pytest.raises(StorageError, match="corrupt metadata"):
        reopened.read_meta()
    reopened.close()
