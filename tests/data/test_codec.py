"""Unit tests for the binary data codec."""

import pytest

from repro.data import attributes as attr
from repro.data.codec import (
    DEFAULT_DICTIONARY,
    AttributeDictionary,
    decode_bloom,
    decode_descriptor,
    decode_predicate,
    decode_query_spec,
    decode_value,
    decode_varint,
    decode_zigzag,
    encode_bloom,
    encode_descriptor,
    encode_predicate,
    encode_query_spec,
    encode_value,
    encode_varint,
    encode_zigzag,
)
from repro.data.descriptor import make_descriptor
from repro.data.predicate import QuerySpec, between, eq, exists, is_in, lt, prefix
from repro.errors import DataModelError


# ----------------------------------------------------------------------
# Varints
# ----------------------------------------------------------------------
def test_varint_round_trip_edges():
    for value in (0, 1, 127, 128, 255, 300, 2**14, 2**32, 2**63 - 1):
        data = encode_varint(value)
        decoded, offset = decode_varint(data)
        assert decoded == value
        assert offset == len(data)


def test_varint_single_byte_below_128():
    assert len(encode_varint(127)) == 1
    assert len(encode_varint(128)) == 2


def test_varint_rejects_negative():
    with pytest.raises(DataModelError):
        encode_varint(-1)


def test_varint_truncated():
    with pytest.raises(DataModelError):
        decode_varint(b"\x80")  # continuation bit set, nothing follows


def test_zigzag_round_trip():
    for value in (0, -1, 1, -64, 63, -(2**31), 2**31, 123456789):
        decoded, _ = decode_zigzag(encode_zigzag(value))
        assert decoded == value


# ----------------------------------------------------------------------
# Values
# ----------------------------------------------------------------------
def test_value_round_trips():
    for value in (True, False, 0, -5, 10**12, 1.5, -2.25, "héllo", ""):
        decoded, offset = decode_value(encode_value(value))
        assert decoded == value
        assert type(decoded) is type(value)


def test_float_needing_64_bits_round_trips_exactly():
    value = 0.1  # not representable in binary32
    decoded, _ = decode_value(encode_value(value))
    assert decoded == value


def test_float32_representable_uses_short_form():
    short = encode_value(1.5)
    long = encode_value(0.1)
    assert len(short) < len(long)


def test_unknown_value_type_rejected():
    with pytest.raises(DataModelError):
        encode_value([1, 2])  # type: ignore[arg-type]


def test_unknown_tag_rejected():
    with pytest.raises(DataModelError):
        decode_value(b"\xff")


# ----------------------------------------------------------------------
# Dictionary
# ----------------------------------------------------------------------
def test_default_dictionary_has_wellknown_names():
    for name in (attr.NAMESPACE, attr.DATA_TYPE, attr.TIME, attr.CHUNK_ID):
        assert DEFAULT_DICTIONARY.id_of(name) > 0


def test_dictionary_register_idempotent():
    dictionary = AttributeDictionary()
    first = dictionary.register("foo")
    assert dictionary.register("foo") == first
    assert dictionary.name_of(first) == "foo"


def test_dictionary_unknown_id_rejected():
    with pytest.raises(DataModelError):
        AttributeDictionary().name_of(42)


# ----------------------------------------------------------------------
# Descriptors
# ----------------------------------------------------------------------
def test_descriptor_round_trip():
    descriptor = make_descriptor(
        "env", "nox", time=12.5, location_x=3.0, location_y=4.0
    )
    decoded, offset = decode_descriptor(encode_descriptor(descriptor))
    assert decoded == descriptor


def test_descriptor_with_unregistered_names():
    descriptor = make_descriptor("env", "nox", custom_field="value", zzz=1)
    decoded, _ = decode_descriptor(encode_descriptor(descriptor))
    assert decoded == descriptor


def test_registered_names_encode_smaller():
    registered = make_descriptor("env", "nox", time=1.0)
    unregistered = make_descriptor(
        "env", "nox", this_is_a_long_custom_name=1.0
    )
    assert len(encode_descriptor(registered)) < len(
        encode_descriptor(unregistered)
    )


def test_descriptor_wire_size_estimate_close_to_actual():
    """The fast wire_size estimate tracks the real encoding within 40%."""
    descriptor = make_descriptor(
        "env", "nox", time=1.0, location_x=2.0, location_y=3.0
    )
    actual = len(encode_descriptor(descriptor))
    estimate = descriptor.wire_size()
    assert abs(actual - estimate) / actual < 0.4


# ----------------------------------------------------------------------
# Predicates and specs
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "predicate",
    [
        eq("data_type", "nox"),
        lt("time", 100.0),
        between("location_x", 1.0, 2.0),
        is_in("data_type", ("a", "b", "c")),
        prefix("name", "video/"),
        exists("time"),
    ],
)
def test_predicate_round_trips(predicate):
    decoded, offset = decode_predicate(encode_predicate(predicate))
    assert decoded == predicate


def test_query_spec_round_trip():
    spec = QuerySpec([eq("data_type", "nox"), between("time", 0.0, 10.0)])
    decoded, _ = decode_query_spec(encode_query_spec(spec))
    assert decoded == spec


def test_empty_spec_round_trip():
    decoded, _ = decode_query_spec(encode_query_spec(QuerySpec()))
    assert decoded == QuerySpec()


# ----------------------------------------------------------------------
# Bloom filters
# ----------------------------------------------------------------------
def test_bloom_round_trip_preserves_membership():
    from repro.bloom.bloom_filter import BloomFilter

    bloom = BloomFilter(512, 4, seed=7)
    keys = [f"key-{i}".encode() for i in range(50)]
    bloom.insert_all(keys)
    decoded, _ = decode_bloom(encode_bloom(bloom))
    assert decoded.m_bits == 512
    assert decoded.k_hashes == 4
    assert decoded.seed == 7
    assert all(key in decoded for key in keys)


def test_bloom_without_hash_functions_is_malformed():
    """A zero hash count on the wire is malformed input like any other,
    not a filter-configuration error."""
    data = encode_varint(64) + encode_varint(0) + encode_varint(3) + bytes(8)
    with pytest.raises(DataModelError, match="no hash functions"):
        decode_bloom(data)


def test_null_filter_round_trip():
    from repro.bloom.bloom_filter import NullFilter

    decoded, offset = decode_bloom(encode_bloom(NullFilter()))
    assert isinstance(decoded, NullFilter)
    assert offset == 1
