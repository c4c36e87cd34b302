"""The crash matrix: kill the store at every write point, then audit.

For each persistent server version the same deterministic workload runs
with a fault injector that crashes the store at write point N — page
writes and metadata writes both count, and ``BufferPool.flush_dirty``
writes in page-id order, so the sequence is identical on every run.
N sweeps the whole workload (every write point), with and without
torn-write simulation.

After each crash the store is reopened plain and must satisfy exactly
one of:

* opening itself fails loudly (a detectably damaged store), or
* ``verify()`` passes and the contents equal the state at the store's
  last durable checkpoint, bit for bit, or
* ``verify()`` reports the damage, and ``recover()`` repairs the store
  to a verifiable state in which every surviving object holds a value
  the workload actually wrote — never a torn or invented one.

What is forbidden is the fourth outcome: a store that *claims* to be
healthy but silently disagrees with any state the application committed.

The matrix runs with batched I/O at its default (read-ahead on, commits
vectored): ``FaultyPageFile.write_pages`` decomposes every vectored
transfer into per-page write points, so ``crash_after_writes=N`` names
the same crash whether commits batch or not — which the write-point
equality test below pins directly.

Set ``CRASH_MATRIX_STRIDE=k`` to test every k-th write point (CI smoke);
the default sweeps all of them.
"""

import os
import random

import pytest

from repro.errors import InjectedCrashError, StorageError
from repro.storage import (
    FaultInjector,
    ObjectCache,
    ObjectStoreSM,
    OStoreMM,
    TexasSM,
    TexasTCSM,
    TexasMM,
)
from repro.storage.disk import PageFile
from repro.storage.registry import backends

N_COMMITS = 25

# Every registered backend that declares crash-matrix support sweeps
# the matrix — the capability flag, not a hand-kept list, decides.
PERSISTENT_CLASSES = [info.cls for info in backends(crash_matrix=True)]


def _stride() -> int:
    return max(1, int(os.environ.get("CRASH_MATRIX_STRIDE", "1")))


def _workload(sm, snapshots, value_history):
    """Deterministic mixed workload: N_COMMITS commits of churn.

    After every successful commit the full live state is recorded in
    ``snapshots`` under the store's checkpoint epoch; both caller-owned
    dicts survive the injected crash that aborts this function.
    """
    rng = random.Random(42)
    live: dict[int, object] = {}

    def remember(oid, value):
        live[oid] = value
        value_history.setdefault(oid, []).append(value)

    for commit_no in range(N_COMMITS):
        for _ in range(rng.randrange(1, 4)):
            action = rng.random()
            if action < 0.55 or not live:
                if rng.random() < 0.15:
                    # large: chunks across multiple pages
                    value = {"big": "x" * 9000, "n": commit_no}
                else:
                    value = {"n": commit_no, "pad": "p" * rng.randrange(200)}
                remember(sm.allocate_write(value), value)
            elif action < 0.80:
                oid = rng.choice(sorted(live))
                value = {"rw": commit_no, "pad": "q" * rng.randrange(3000)}
                sm.write(oid, value)
                remember(oid, value)
            else:
                oid = rng.choice(sorted(live))
                sm.delete(oid)
                del live[oid]
        sm.commit()
        snapshots[sm.commit_epoch] = dict(live)


def _workload_cached(sm, snapshots, value_history):
    """The same churn driven through a transactional object cache.

    Each commit block runs as one unit of work: repeat writes to an oid
    coalesce and the survivors are serialized at commit, in oid order.
    Intermediate values never reach a page, but every value that *can*
    reach a page is in ``value_history``, so the recovery audit's
    no-invented-values rule applies unchanged.
    """
    rng = random.Random(42)
    cache = ObjectCache(sm, capacity=64)
    live: dict[int, object] = {}

    def remember(oid, value):
        live[oid] = value
        value_history.setdefault(oid, []).append(value)

    for commit_no in range(N_COMMITS):
        cache.begin()
        for _ in range(rng.randrange(1, 4)):
            action = rng.random()
            if action < 0.55 or not live:
                if rng.random() < 0.15:
                    value = {"big": "x" * 9000, "n": commit_no}
                else:
                    value = {"n": commit_no, "pad": "p" * rng.randrange(200)}
                remember(cache.allocate_write(value), value)
            elif action < 0.80:
                oid = rng.choice(sorted(live))
                value = {"rw": commit_no, "pad": "q" * rng.randrange(3000)}
                cache.write(oid, value)
                remember(oid, value)
            else:
                oid = rng.choice(sorted(live))
                cache.delete(oid)
                del live[oid]
        cache.commit()
        snapshots[sm.commit_epoch] = dict(live)


def _count_write_points(cls, tmp_path, workload=_workload) -> int:
    """Run the workload once, never crashing, and count its writes."""
    injector = FaultInjector()  # counting mode
    path = os.path.join(tmp_path, "count.db")
    sm = cls(path=path, checkpoint_every=1, fault_injector=injector)
    workload(sm, {}, {})
    total = injector.writes_seen  # workload only: close() not counted
    sm.close()
    return total


def _audit_after_crash(cls, path, snapshots, value_history):
    """Reopen a crashed store and enforce the three legal outcomes."""
    try:
        reopened = cls(path=path)
    except StorageError:
        return  # outcome 1: loud failure at open
    try:
        checkpoint_epoch = reopened.commit_epoch
        report = reopened.verify()
        if report.ok:
            # outcome 2: healthy store ⟹ exactly the checkpoint state
            expected = snapshots.get(checkpoint_epoch, {})
            actual = {oid: reopened.read(oid) for oid in reopened.oids()}
            assert actual == expected, (
                f"silent corruption: verify() passed but contents differ "
                f"from checkpoint epoch {checkpoint_epoch}"
            )
        else:
            # outcome 3: damage was detected; repair must converge and
            # every survivor must hold a value that was really written
            reopened.recover()
            reopened.verify().raise_if_bad()
            for oid in reopened.oids():
                value = reopened.read(oid)
                assert value in value_history.get(oid, []), (
                    f"recovery invented a value for oid {oid}: {value!r}"
                )
    finally:
        reopened.close()


@pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
@pytest.mark.parametrize("torn", [False, True], ids=["lost", "torn"])
def test_crash_matrix(cls, torn, tmp_path):
    total = _count_write_points(cls, tmp_path)
    assert total > N_COMMITS  # sanity: at least one write point per commit
    for crash_at in range(0, total, _stride()):
        path = os.path.join(tmp_path, f"crash_{int(torn)}_{crash_at}.db")
        injector = FaultInjector(crash_after_writes=crash_at, torn_write=torn)
        sm = cls(path=path, checkpoint_every=1, fault_injector=injector)
        snapshots: dict[int, dict] = {}
        value_history: dict[int, list] = {}
        with pytest.raises(InjectedCrashError):
            _workload(sm, snapshots, value_history)
        _audit_after_crash(cls, path, snapshots, value_history)


@pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
@pytest.mark.parametrize("torn", [False, True], ids=["lost", "torn"])
def test_crash_matrix_with_object_cache(cls, torn, tmp_path):
    """The reopen trichotomy must survive coalesced commit writes."""
    total = _count_write_points(cls, tmp_path, workload=_workload_cached)
    assert total > N_COMMITS
    for crash_at in range(0, total, _stride()):
        path = os.path.join(tmp_path, f"ccrash_{int(torn)}_{crash_at}.db")
        injector = FaultInjector(crash_after_writes=crash_at, torn_write=torn)
        sm = cls(path=path, checkpoint_every=1, fault_injector=injector)
        snapshots: dict[int, dict] = {}
        value_history: dict[int, list] = {}
        with pytest.raises(InjectedCrashError):
            _workload_cached(sm, snapshots, value_history)
        _audit_after_crash(cls, path, snapshots, value_history)


@pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
def test_cached_workload_without_faults_is_clean(cls, tmp_path):
    """Uninterrupted cached workload closes and reopens checkpoint-exact."""
    path = os.path.join(tmp_path, "cached_clean.db")
    sm = cls(path=path, checkpoint_every=1)
    snapshots: dict[int, dict] = {}
    _workload_cached(sm, snapshots, {})
    final_epoch = sm.commit_epoch
    sm.close()
    reopened = cls(path=path)
    reopened.verify().raise_if_bad()
    actual = {oid: reopened.read(oid) for oid in reopened.oids()}
    assert actual == snapshots[final_epoch]
    reopened.close()


@pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
def test_workload_without_faults_is_clean(cls, tmp_path):
    """The same workload, uninterrupted, closes and reopens verifiably."""
    path = os.path.join(tmp_path, "clean.db")
    sm = cls(path=path, checkpoint_every=1)
    snapshots: dict[int, dict] = {}
    _workload(sm, snapshots, {})
    final_epoch = sm.commit_epoch
    sm.close()
    reopened = cls(path=path)
    reopened.verify().raise_if_bad()
    actual = {oid: reopened.read(oid) for oid in reopened.oids()}
    assert actual == snapshots[final_epoch]
    reopened.close()


@pytest.mark.parametrize("cls", [OStoreMM, TexasMM])
def test_memstore_crash_semantics(cls):
    """Main-memory stores advertise no durability: a crash loses all.

    Their verify()/recover() must still honour the common API so the
    crash-matrix driver treats every server version uniformly — and a
    'reopened' store (a fresh instance) is trivially consistent: empty.
    """
    sm = cls()
    assert sm.persistent is False
    for i in range(10):
        sm.allocate_write({"i": i})
    sm.commit()
    report = sm.verify()
    assert report.ok
    assert sm.recover() == {
        "dropped_objects": 0, "dropped_roots": 0, "vacuumed_slots": 0,
    }
    # crash: the instance is simply gone; a new one is empty & consistent
    reopened = cls()
    assert reopened.object_count() == 0
    assert reopened.verify().ok


@pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
def test_write_points_and_files_identical_with_and_without_batching(cls, tmp_path):
    """Batching must not move a single write point or disk byte.

    The fault injector's crash schedule is meaningful only if write
    point N is the same physical write with vectored commits on or off;
    the decomposition in ``FaultyPageFile.write_pages`` guarantees it,
    and byte-identical database files prove nothing was reordered.
    """
    counts: dict[int, int] = {}
    contents: dict[int, dict[str, bytes]] = {}
    for window in (0, 8):
        injector = FaultInjector()  # counting mode, never crashes
        directory = os.path.join(tmp_path, f"wp{window}")
        os.makedirs(directory)
        path = os.path.join(directory, "db.pages")
        sm = cls(path=path, checkpoint_every=1, fault_injector=injector,
                 readahead_pages=window)
        _workload(sm, {}, {})
        counts[window] = injector.writes_seen
        sm.close()
        contents[window] = {
            name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))
        }
    assert counts[0] == counts[8], "batching changed the write-point count"
    assert contents[0] == contents[8], "batching changed the disk bytes"


# -- metadata delta frames ----------------------------------------------------


def _checkpoint_state(sm) -> dict:
    meta = sm._meta()
    meta["epoch"] = sm.commit_epoch
    return meta


@pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
def test_torn_frame_then_new_checkpoint_survives_reopen(cls, tmp_path):
    """A torn frame ends the replay; the reopened store's next
    checkpoint must not append behind it (the frame would be invisible)
    but write a full blob, so a second reopen sees the new commit."""
    counting = FaultInjector()
    sm = cls(path=os.path.join(tmp_path, "count.db"), checkpoint_every=1,
             fault_injector=counting)
    sm.allocate_write({"v": "base"})
    sm.commit()  # first checkpoint: the base blob
    sm.allocate_write({"v": "framed"})
    sm.commit()  # second checkpoint: a frame, its last write point
    frame_point = counting.writes_seen - 1
    assert sm._disk.meta_tail_bytes > 0
    sm.close()

    path = os.path.join(tmp_path, "torn.db")
    injector = FaultInjector(crash_after_writes=frame_point, torn_write=True)
    sm = cls(path=path, checkpoint_every=1, fault_injector=injector)
    base_oid = sm.allocate_write({"v": "base"})
    sm.commit()
    sm.allocate_write({"v": "framed"})
    with pytest.raises(InjectedCrashError):
        sm.commit()
    meta_size = os.path.getsize(path + ".meta")

    reopened = cls(path=path, checkpoint_every=1)
    assert reopened._disk.meta_size_bytes == meta_size  # torn tail present
    assert reopened._disk.meta_room == 0
    assert sorted(reopened.oids()) == [base_oid]
    new_oid = reopened.allocate_write({"v": "after"})
    reopened.commit()
    assert reopened._disk.meta_tail_bytes == 0  # full blob, garbage gone
    # crash again (no close): the new commit must be durable
    again = cls(path=path)
    assert again.read(new_oid) == {"v": "after"}
    assert again.read(base_oid) == {"v": "base"}
    again.recover()
    again.verify().raise_if_bad()
    again.close()


@pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
def test_corrupt_base_blob_fails_closed_with_frames(cls, tmp_path):
    path = os.path.join(tmp_path, "corrupt.db")
    sm = cls(path=path, checkpoint_every=1)
    for i in range(2):
        sm.allocate_write({"i": i})
        sm.commit()
    assert sm._disk.meta_tail_bytes > 0
    base = sm._disk.meta_size_bytes - sm._disk.meta_tail_bytes
    with open(path + ".meta", "r+b") as handle:
        handle.seek(base // 2)  # damage the base; the frames stay intact
        handle.write(b"\xff" * 8)
    with pytest.raises(StorageError, match="corrupt metadata"):
        cls(path=path)


@pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
def test_compaction_boundary_keeps_every_checkpoint(cls, tmp_path):
    """Frames accumulate until the next would outgrow the base blob;
    then a full blob replaces both.  Reading the .meta at every step,
    either side of each compaction, yields the checkpoint state."""
    path = os.path.join(tmp_path, "compact.db")
    sm = cls(path=path, checkpoint_every=1)
    oids = [sm.allocate_write({"i": i}) for i in range(30)]
    sm.commit()
    compactions = frames = 0
    for step in range(60):
        sm.write(oids[step % len(oids)], {"i": step, "pad": "z" * (step * 40)})
        if step % 5 == 0:
            oids.append(sm.allocate_write({"new": step}))
        tail_before = sm._disk.meta_tail_bytes
        sm.commit()
        disk = sm._disk
        base = disk.meta_size_bytes - disk.meta_tail_bytes
        assert disk.meta_tail_bytes <= base
        if disk.meta_tail_bytes > tail_before:
            frames += 1
        elif tail_before:
            compactions += 1
        assert os.path.getsize(path + ".meta") == disk.meta_size_bytes
        reader = PageFile(path)
        assert reader.read_meta() == _checkpoint_state(sm)
        reader.close()
    assert frames > compactions > 0
    sm.close()


@pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
def test_close_after_torn_frame_keeps_the_crash_evidence(cls, tmp_path):
    """Closing a crash-reopened store that changed nothing folds the
    torn tail away at the checkpoint's own epoch: pages the lost
    checkpoint would have ratified must still read as from the future."""
    path = os.path.join(tmp_path, "evidence.db")
    sm = cls(path=path, checkpoint_every=1)
    sm.allocate_write({"v": "base"})
    sm.commit()
    sm.allocate_write({"v": "framed"})
    sm.commit()
    framed_size = sm._disk.meta_size_bytes
    sm.allocate_write({"v": "lost"})
    sm.checkpoint_every = 0
    sm.commit()  # pages land; the checkpoint's frame is torn below
    with open(path + ".meta", "ab") as handle:
        handle.write(b"\x10\x00\x00\x00torn")
    assert os.path.getsize(path + ".meta") > framed_size

    reopened = cls(path=path)
    assert not reopened.verify().ok
    reopened.close()
    assert os.path.getsize(path + ".meta") < framed_size  # one blob again
    again = cls(path=path)
    assert again.open_problems(), "close ratified pages of a lost checkpoint"
    assert not again.verify().ok
    again.close()
