"""Record (de)serialization for the storage managers.

Objects handed to a storage manager must be *plain data*: combinations of
``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``, ``list``,
``tuple``, ``dict`` and ``set``.  This mirrors what the 1996 storage
managers persisted (C structs plus collections) and keeps stored state
independent of Python class definitions, which is what lets LabBase
implement schema evolution *above* the storage layer.

Pickle (protocol 4) is used as the wire format: it is deterministic for
plain data, measures realistic byte sizes for the paper's ``size (bytes)``
column, and round-trips exactly.  ``validate_plain_data`` rejects
arbitrary objects up front so a class instance can never sneak into a
page.
"""

from __future__ import annotations

import pickle

from repro.errors import StorageError

_PLAIN_SCALARS = (type(None), bool, int, float, str, bytes)
#: The scalar types themselves, for the container fast path below.
_EXACT_SCALARS = frozenset(_PLAIN_SCALARS)


def validate_plain_data(obj: object, _depth: int = 0) -> None:
    """Raise :class:`StorageError` unless ``obj`` is plain data.

    The accepted grammar, exactly:

    * scalars — ``None``, ``bool``, ``int``, ``float``, ``str`` and
      ``bytes`` (subclasses included — they survive a pickle round-trip
      as their subclass, which is all the storage contract promises);
    * containers — ``list``, ``tuple``, ``dict``, ``set`` and
      ``frozenset`` of plain data, nested at most 100 levels deep.

    Dict keys may be any *hashable* plain data, which lets container
    keys (tuples, frozensets of plain data) through.  Note that ``set``
    and ``frozenset`` iteration order — and therefore their encoded
    bytes — follows the process hash seed for ``str``/``bytes``
    elements: records that must encode bit-identically across processes
    should store sorted lists instead.

    Depth is bounded to catch pathological self-referencing structures
    before pickle recurses into them.

    Below the depth bound, a container whose items (a dict's keys and
    values) all have *exact* scalar types passes one C-level type check;
    any other item (a subclass, a container, a non-plain object) sends
    it down the item-by-item walk, which alone decides rejections.
    """
    if _depth > 100:
        raise StorageError("record nests deeper than 100 levels (cycle?)")
    if isinstance(obj, _PLAIN_SCALARS):
        return
    if isinstance(obj, (list, tuple, set, frozenset)):
        if _depth < 100 and _EXACT_SCALARS.issuperset(map(type, obj)):
            return
        for item in obj:
            validate_plain_data(item, _depth + 1)
        return
    if isinstance(obj, dict):
        if (
            _depth < 100
            and _EXACT_SCALARS.issuperset(map(type, obj))
            and _EXACT_SCALARS.issuperset(map(type, obj.values()))
        ):
            return
        for key, value in obj.items():
            validate_plain_data(key, _depth + 1)
            validate_plain_data(value, _depth + 1)
        return
    raise StorageError(
        f"records must be plain data; got {type(obj).__name__}"
    )


def serialize(obj: object) -> bytes:
    """Encode a plain-data object to bytes."""
    validate_plain_data(obj)
    return pickle.dumps(obj, protocol=4)


def deserialize(payload: "bytes | bytearray | memoryview") -> object:
    """Decode bytes produced by :func:`serialize`.

    Accepts any bytes-like payload — ``memoryview`` included, so the
    mmap read path can unpickle straight from a mapped page slot
    without materializing an intermediate ``bytes`` copy.
    """
    try:
        return pickle.loads(payload)
    # Corrupt payloads raise whatever opcode pickle trips over
    # (UnpicklingError, EOFError, ValueError, ...); catch them all and
    # translate into the storage stack's own corruption error.
    except Exception as exc:  # lint: ignore[LF06]
        raise StorageError(f"corrupt record payload: {exc}") from exc


def record_size(obj: object) -> int:
    """Serialized size of an object, in bytes.

    Sizing is measurement, not admission: every caller sizes records it
    already validated (or is about to store through :func:`serialize`),
    so this deliberately skips the ``validate_plain_data`` walk rather
    than paying it twice per record.
    """
    return len(pickle.dumps(obj, protocol=4))
