"""Unit + property tests for record serialization."""

from enum import IntEnum

import pytest
from hypothesis import given, strategies as st

from repro.errors import StorageError
from repro.storage import serializer


class _NotPlain:
    pass


def test_round_trip_scalars():
    for value in (None, True, False, 0, -5, 3.25, "text", b"bytes"):
        assert serializer.deserialize(serializer.serialize(value)) == value


def test_round_trip_collections():
    value = {"a": [1, 2, (3, 4)], "b": {"nested": {5, 6}}, 7: "int key"}
    assert serializer.deserialize(serializer.serialize(value)) == value


def test_rejects_class_instances():
    with pytest.raises(StorageError, match="plain data"):
        serializer.serialize(_NotPlain())


def test_rejects_instances_nested_in_collections():
    with pytest.raises(StorageError):
        serializer.serialize({"ok": [1, 2, _NotPlain()]})


def test_rejects_instance_dict_keys():
    with pytest.raises(StorageError):
        serializer.serialize({(1, _NotPlain()): "x"})


def test_rejects_excessive_nesting():
    deep: list = []
    current = deep
    for _ in range(200):
        inner: list = []
        current.append(inner)
        current = inner
    with pytest.raises(StorageError, match="100 levels"):
        serializer.serialize(deep)


def test_corrupt_payload_raises_storage_error():
    with pytest.raises(StorageError, match="corrupt"):
        serializer.deserialize(b"\x00not a pickle")


def test_record_size_matches_serialized_length():
    obj = {"k": "v" * 100}
    assert serializer.record_size(obj) == len(serializer.serialize(obj))


_plain = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=30)
    | st.binary(max_size=30),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


@given(_plain)
def test_round_trip_property(obj):
    assert serializer.deserialize(serializer.serialize(obj)) == obj


@given(_plain)
def test_serialization_is_deterministic(obj):
    assert serializer.serialize(obj) == serializer.serialize(obj)


# ---------------------------------------------------------------------------
# the documented grammar, exactly (ISSUE 9 satellite)
# ---------------------------------------------------------------------------


class _IntSubclass(int):
    pass


class _StrSubclass(str):
    pass


def test_accepts_scalar_subclasses():
    # Subclasses survive a pickle round-trip as their subclass, which is
    # all the storage contract promises.
    for value in (_IntSubclass(7), _StrSubclass("x"), True):
        serializer.validate_plain_data(value)
        restored = serializer.deserialize(serializer.serialize(value))
        assert restored == value


def test_accepts_frozenset_containers():
    value = {"tags": frozenset({"a", "b"}), "sets": [frozenset({1, 2})]}
    assert serializer.deserialize(serializer.serialize(value)) == value


def test_accepts_container_dict_keys():
    # Hashable plain data is a legal dict key: tuples and frozensets of
    # plain data pass through the validator.
    value = {
        (1, "pair"): "tuple key",
        frozenset({"a"}): "frozenset key",
        ((1, 2), (3,)): "nested tuple key",
    }
    assert serializer.deserialize(serializer.serialize(value)) == value


_hashable_plain = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.text(max_size=12)
    | st.binary(max_size=12),
    lambda children: st.lists(children, max_size=3).map(tuple)
    | st.frozensets(st.integers(0, 99) | st.text(max_size=6), max_size=3),
    max_leaves=8,
)


@given(st.dictionaries(_hashable_plain, _plain, max_size=4))
def test_container_dict_keys_property(obj):
    """Any hashable-plain-data key round-trips, per the grammar."""
    assert serializer.deserialize(serializer.serialize(obj)) == obj


@given(_plain)
def test_deserialize_accepts_memoryview_and_bytearray(obj):
    payload = serializer.serialize(obj)
    assert serializer.deserialize(memoryview(payload)) == obj
    assert serializer.deserialize(bytearray(payload)) == obj


def test_memoryview_deserialize_is_zero_copy_compatible():
    # The mmap read path hands a slice of a mapped page; a non-trivial
    # offset view must decode without the caller materializing bytes.
    payload = serializer.serialize({"k": list(range(50))})
    padded = b"\xff\xff" + payload
    view = memoryview(padded)[2:]
    assert serializer.deserialize(view) == {"k": list(range(50))}


def test_record_size_skips_validation():
    # Sizing is measurement, not admission: callers size records they
    # already validated, so record_size must not re-walk the structure.
    unvalidated = {"obj": _NotPlain()}
    with pytest.raises(StorageError):
        serializer.serialize(unvalidated)
    assert serializer.record_size(unvalidated) > 0


# ---------------------------------------------------------------------------
# the container fast path accepts and rejects exactly what the walk does
# ---------------------------------------------------------------------------


def _reference_validate(obj, _depth=0):
    """The item-by-item walk ``validate_plain_data`` used to be."""
    if _depth > 100:
        raise StorageError("record nests deeper than 100 levels (cycle?)")
    if isinstance(obj, (type(None), bool, int, float, str, bytes)):
        return
    if isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            _reference_validate(item, _depth + 1)
        return
    if isinstance(obj, dict):
        for key, value in obj.items():
            _reference_validate(key, _depth + 1)
            _reference_validate(value, _depth + 1)
        return
    raise StorageError(f"records must be plain data; got {type(obj).__name__}")


def _verdict(validate, obj):
    try:
        validate(obj)
    except StorageError as exc:
        return str(exc)
    return None


class _Colour(IntEnum):
    RED = 1
    BLUE = 2


class _Tag(str):
    pass


_mixed_leaf = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
    | st.binary(max_size=6)
    | st.sampled_from(list(_Colour))
    | st.builds(_Tag, st.text(max_size=6))
    | st.builds(_IntSubclass, st.integers())
    | st.builds(_NotPlain)
)
_mixed_key = st.recursive(
    _mixed_leaf,
    lambda children: st.lists(children, max_size=3).map(tuple)
    | st.frozensets(children, max_size=3),
    max_leaves=6,
)
_mixed = st.recursive(
    _mixed_leaf,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.sets(_mixed_key, max_size=4)
    | st.frozensets(_mixed_key, max_size=4)
    | st.dictionaries(_mixed_key, children, max_size=4),
    max_leaves=25,
)


def _nest(value, shells):
    """Wrap ``value`` in one container per shell, innermost first."""
    for shell in shells:
        value = {"k": value} if shell == "dict" else shell([value])
    return value


@given(
    _mixed_leaf | st.lists(_mixed_leaf, max_size=4) | _mixed,
    st.sampled_from([0, 1, 2, 98, 99, 100, 101]).flatmap(
        lambda depth: st.lists(
            st.sampled_from([list, tuple, "dict"]),
            min_size=depth, max_size=depth,
        )
    ),
)
def test_validator_matches_reference_walk(value, shells):
    obj = _nest(value, shells)
    assert _verdict(serializer.validate_plain_data, obj) == _verdict(
        _reference_validate, obj
    )


@pytest.mark.parametrize("depth", [99, 100, 101])
@pytest.mark.parametrize("leaf", [[], [1, "a"], [_Colour.RED], {"k": b""}])
def test_depth_bound_fires_where_the_walk_puts_it(depth, leaf):
    obj = _nest(leaf, [list] * (depth - 1))
    verdict = _verdict(serializer.validate_plain_data, obj)
    assert verdict == _verdict(_reference_validate, obj)
    if depth == 101 and leaf:
        assert verdict is not None and "100 levels" in verdict
    if depth < 100:
        assert verdict is None
