"""Unit tests for data descriptors."""

import pickle

import pytest

from repro.data import attributes as attr
from repro.data.descriptor import DataDescriptor, make_descriptor
from repro.errors import DataModelError


def sample():
    return make_descriptor("env", "nox", time=1.0, location_x=2.0)


def test_equality_is_structural():
    assert sample() == sample()
    assert hash(sample()) == hash(sample())


def test_inequality_on_any_attribute():
    assert sample() != sample().with_attributes(time=2.0)


def test_attribute_order_does_not_matter():
    a = DataDescriptor({"x": 1, "y": 2})
    b = DataDescriptor({"y": 2, "x": 1})
    assert a == b
    assert a.stable_key() == b.stable_key()


def test_empty_descriptor_rejected():
    with pytest.raises(DataModelError):
        DataDescriptor({})


def test_bad_attribute_name_rejected():
    with pytest.raises(DataModelError):
        DataDescriptor({"": 1})


def test_bad_value_rejected():
    with pytest.raises(DataModelError):
        DataDescriptor({"x": [1, 2]})


def test_get_and_contains():
    d = sample()
    assert d.get(attr.NAMESPACE) == "env"
    assert d.get("missing") is None
    assert d.get("missing", 7) == 7
    assert attr.DATA_TYPE in d
    assert "missing" not in d


def test_with_attributes_does_not_mutate():
    d = sample()
    extended = d.with_attributes(extra=1)
    assert "extra" not in d
    assert extended.get("extra") == 1


def test_without_attributes():
    d = sample().without_attributes("time")
    assert "time" not in d


def test_chunk_descriptor_roundtrip():
    d = sample()
    chunk = d.chunk_descriptor(3)
    assert chunk.is_chunk
    assert chunk.chunk_id == 3
    assert not d.is_chunk
    assert chunk.item_descriptor() == d


def test_item_descriptor_of_non_chunk_is_self():
    d = sample()
    assert d.item_descriptor() == d


def test_stable_key_distinguishes_types():
    a = DataDescriptor({"v": 1})
    b = DataDescriptor({"v": "1"})
    assert a.stable_key() != b.stable_key()


def test_stable_key_distinguishes_int_float_despite_equality():
    a = DataDescriptor({"v": 1})
    b = DataDescriptor({"v": 1.0})
    assert a.stable_key() != b.stable_key()


def test_wire_size_positive_and_additive():
    d = sample()
    bigger = d.with_attributes(more=1.0)
    assert 0 < d.wire_size() < bigger.wire_size()


def test_names_sorted():
    d = DataDescriptor({"b": 1, "a": 2, "c": 3})
    assert d.names() == ("a", "b", "c")


def test_as_dict_is_copy():
    d = sample()
    mapping = d.as_dict()
    mapping["time"] = 999
    assert d.get("time") == 1.0


def test_repr_contains_attributes():
    assert "namespace" in repr(sample())


def _identity(d):
    return d, hash(d), d.stable_key(), d.wire_size()


@pytest.mark.parametrize("chunk_id", [0, 3, 79])
def test_memoised_chunk_descriptor_matches_fresh_derivation(chunk_id):
    d = sample()
    first = d.chunk_descriptor(chunk_id)
    assert d.chunk_descriptor(chunk_id) is first
    assert _identity(first) == _identity(d.with_attributes(chunk_id=chunk_id))


def test_chunk_of_a_chunk_keeps_the_parent_item():
    d = sample()
    assert d.chunk_descriptor(2).chunk_descriptor(5) == d.chunk_descriptor(5)
    assert d.chunk_descriptor(2).chunk_descriptor(5).item_descriptor() == d


def test_non_int_chunk_ids_are_not_served_from_the_int_memo():
    """``1.0`` and ``True`` hash like ``1`` but are different attributes."""
    d = sample()
    as_int = d.chunk_descriptor(1)
    as_float = d.chunk_descriptor(1.0)
    assert as_float.stable_key() == d.with_attributes(chunk_id=1.0).stable_key()
    assert as_float.stable_key() != as_int.stable_key()
    assert d.chunk_descriptor(1) is as_int


def test_memoised_item_descriptor_equals_parent():
    d = sample()
    chunk = d.chunk_descriptor(4)
    assert chunk.item_descriptor() is d
    stray = d.with_attributes(chunk_id=4)  # not derived through the memo
    assert _identity(stray.item_descriptor()) == _identity(d)
    assert stray.item_descriptor() is stray.item_descriptor()
    assert d.item_descriptor() is d


def test_memo_populated_descriptor_pickles_equal_to_a_fresh_one():
    d = sample()
    chunks = [d.chunk_descriptor(i) for i in range(3)]
    d.item_descriptor()
    d.stable_key()
    restored = pickle.loads(pickle.dumps(d))
    assert _identity(restored) == _identity(sample())
    assert restored.chunk_descriptor(1) == chunks[1]
    assert restored.chunk_descriptor(1).item_descriptor() is restored
    restored_chunk = pickle.loads(pickle.dumps(chunks[2]))
    assert _identity(restored_chunk) == _identity(chunks[2])
    assert restored_chunk.item_descriptor() == d


def _fresh_chunk_id(d):
    """The chunk id derived from the attributes, bypassing the memo."""
    value = d.get(attr.CHUNK_ID)
    return int(value) if value is not None else None


@pytest.mark.parametrize(
    "derive",
    [
        lambda d: d,
        lambda d: d.chunk_descriptor(7),
        lambda d: d.with_attributes(chunk_id=7),
        lambda d: d.with_attributes(chunk_id=7.0),
        lambda d: d.chunk_descriptor(7).item_descriptor(),
    ],
    ids=["item", "memoised-chunk", "fresh-chunk", "float-chunk", "parent"],
)
def test_memoised_chunk_id_equals_fresh_derivation(derive):
    d = derive(sample())
    before = _identity(d)
    assert d.chunk_id == _fresh_chunk_id(d)
    assert d.chunk_id == _fresh_chunk_id(d)  # served from the memo
    assert _identity(d) == before  # the memo enters no identity
    restored = pickle.loads(pickle.dumps(d))
    assert restored.chunk_id == _fresh_chunk_id(restored) == d.chunk_id
    assert _identity(restored) == before
