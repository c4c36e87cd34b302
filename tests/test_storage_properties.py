"""Property-based tests: the storage managers vs a model dict.

Hypothesis drives random CRUD/transaction sequences against a page
store and an in-memory model simultaneously; any divergence is a bug in
directory maintenance, page reuse, chunking or the undo journal.
"""

from __future__ import annotations

import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.storage import ObjectStoreSM, TexasSM

_VALUES = st.one_of(
    st.integers(-1000, 1000),
    st.text(max_size=40),
    # low-entropy large strings: force the chunking path without
    # tripping hypothesis's entropy health check
    st.integers(4000, 9000).map(lambda n: "z" * n),
    st.lists(st.integers(0, 9), max_size=10),
)


class _Op:
    CREATE, UPDATE, DELETE, BEGIN, COMMIT, ABORT = range(6)


_ops = st.lists(
    st.tuples(st.sampled_from(range(6)), st.integers(0, 14), _VALUES),
    max_size=60,
)


def _run_model(sm, operations):
    """Apply ops to the store and a dict model; compare continuously."""
    model: dict[int, object] = {}
    shadow: dict[int, object] | None = None  # model state at begin
    handles: list[int] = []
    in_txn = False

    for op, index, value in operations:
        if op == _Op.CREATE:
            oid = sm.allocate_write(value)
            model[oid] = value
            handles.append(oid)
        elif op == _Op.UPDATE and handles:
            oid = handles[index % len(handles)]
            if oid in model:
                sm.write(oid, value)
                model[oid] = value
        elif op == _Op.DELETE and handles:
            oid = handles[index % len(handles)]
            if oid in model:
                sm.delete(oid)
                del model[oid]
        elif op == _Op.BEGIN and not in_txn:
            sm.begin()
            shadow = dict(model)
            in_txn = True
        elif op == _Op.COMMIT and in_txn:
            sm.commit()
            shadow = None
            in_txn = False
        elif op == _Op.ABORT and in_txn:
            sm.abort()
            assert shadow is not None
            model = shadow
            shadow = None
            in_txn = False

    if in_txn:
        sm.commit()

    live = {oid for oid in sm.oids()}
    assert live == set(model), (live, set(model))
    for oid, expected in model.items():
        assert sm.read(oid) == expected


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(operations=_ops)
def test_objectstore_matches_model(operations):
    sm = ObjectStoreSM(buffer_pages=4)
    try:
        _run_model(sm, operations)
    finally:
        try:
            sm.close()
        except Exception:
            pass


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(operations=_ops)
def test_texas_matches_model(operations):
    sm = TexasSM(buffer_pages=4)
    try:
        _run_model(sm, operations)
    finally:
        try:
            sm.close()
        except Exception:
            pass


@settings(max_examples=20, deadline=None)
@given(
    payloads=st.lists(st.integers(0, 30_000), min_size=1, max_size=10),
)
def test_chunking_round_trips_any_size(payloads):
    """Records from empty to many-page sizes round-trip on both policies."""
    for cls in (ObjectStoreSM, TexasSM):
        sm = cls(buffer_pages=4)
        oids = [(sm.allocate_write("z" * n), n) for n in payloads]
        for oid, n in oids:
            assert sm.read(oid) == "z" * n
        sm.close()


@settings(max_examples=20, deadline=None)
@given(sizes=st.lists(st.integers(0, 5000), min_size=2, max_size=20))
def test_space_reuse_after_delete(sizes):
    """Deleting then re-inserting must not grow the store unboundedly."""
    sm = ObjectStoreSM(buffer_pages=8)
    oids = [sm.allocate_write("a" * n) for n in sizes]
    grown = sm._disk.page_count + len(sm._pool.resident_ids())
    for oid in oids:
        sm.delete(oid)
    for n in sizes:
        sm.allocate_write("b" * n)
    # identical sizes re-inserted into freed space: page count must not
    # double (some slack allowed for tail pages)
    after = sm._disk.page_count + len(sm._pool.resident_ids())
    assert after <= grown * 2 + 2
    sm.close()


# -- metadata delta frames: replay equivalence --------------------------------


class _MetaOp:
    CREATE, GROW, SHRINK, DELETE, BEGIN, COMMIT, ABORT, ROOT, SEGMENT = range(9)


_meta_ops = st.lists(
    st.tuples(
        # commits weighted up: most examples then cross several
        # checkpoints, so frames pile up and compactions happen
        st.sampled_from([*range(9), _MetaOp.COMMIT, _MetaOp.COMMIT]),
        st.integers(0, 30),
        st.integers(0, 6000),
    ),
    min_size=20,
    max_size=80,
)


def _step_record(index: int, size: int) -> dict:
    """A step-shaped record: the codec's fast path interns its
    attribute names, so new intern names reach the delta frames."""
    return {
        "kind": "sm_step",
        "class_version": 1,
        "valid_time": index,
        "results": [(f"attr{index % 7}", "v" * (size % 300))],
        "involves": [index],
    }


def _checkpoint_state(sm) -> dict:
    """The metadata the last checkpoint made durable (epoch included)."""
    meta = sm._meta()
    meta["epoch"] = sm.commit_epoch
    return meta


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(operations=_meta_ops, every=st.sampled_from([1, 3]))
def test_base_blob_plus_frames_replays_the_last_checkpoint(operations, every):
    """Reopening from the base blob plus its frame tail restores exactly
    the metadata ``_meta()`` held at the last checkpoint; after close()
    the ``.meta`` file is one blob with no trailing bytes."""
    import io
    import os
    import pickle
    import tempfile

    from repro.storage.disk import PageFile

    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "replay.db")
        sm = ObjectStoreSM(path=path, checkpoint_every=every, buffer_pages=8)
        sm.create_segment("hot")
        handles: list[int] = []
        in_txn = False
        durable = None
        for op, index, size in operations:
            live = [oid for oid in handles if sm.exists(oid)]
            target = live[index % len(live)] if live else None
            if op == _MetaOp.CREATE:
                segment = "hot" if index % 2 else None
                handles.append(
                    sm.allocate_write(_step_record(index, size), segment=segment)
                )
            elif op in (_MetaOp.GROW, _MetaOp.SHRINK) and target is not None:
                # Growing past the slot relocates the record (possibly
                # into chunks); shrinking replaces it in place.
                value = "g" * size if op == _MetaOp.GROW else index
                sm.write(target, value)
            elif op == _MetaOp.DELETE and target is not None:
                sm.delete(target)
            elif op == _MetaOp.BEGIN and not in_txn:
                sm.begin()
                in_txn = True
            elif op == _MetaOp.ABORT and in_txn:
                sm.abort()
                in_txn = False
            elif op == _MetaOp.ROOT and target is not None:
                sm.set_root(f"r{index % 3}", target)
            elif op == _MetaOp.SEGMENT:
                sm.create_segment(f"seg{index % 4}")
            elif op == _MetaOp.COMMIT:
                epoch = sm.commit_epoch
                sm.commit()
                in_txn = False
                if sm.commit_epoch != epoch:
                    durable = _checkpoint_state(sm)
        if in_txn:
            sm.abort()

        # A crash here: the .meta on disk is the last base blob plus
        # whatever frames the later checkpoints appended.
        reader = PageFile(path)
        replayed = reader.read_meta()
        reader.close()
        assert replayed == durable

        sm.close()
        final = _checkpoint_state(sm)
        with open(path + ".meta", "rb") as handle:
            blob = handle.read()
        stream = io.BytesIO(blob)
        assert pickle.Unpickler(stream).load() == final
        assert stream.tell() == len(blob)
