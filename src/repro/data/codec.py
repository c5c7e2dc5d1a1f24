"""Binary wire codec for the PDS data model.

The simulation accounts message cost through fast ``wire_size()``
estimates; this module provides the *actual* compact encoding a deployed
PDS would put on the wire, so the estimates can be validated and the
library is usable beyond simulation (e.g. over a real UDP socket).

Format building blocks:

* **varint** — LEB128 unsigned; zigzag for signed integers;
* **values** — 1 tag byte + payload; floats use 4 bytes when exactly
  representable in binary32, 8 bytes otherwise (round-trips exactly);
* **attribute names** — 2-byte ids from a shared dictionary for
  well-known names (the schema-dictionary coding assumed by
  :func:`repro.data.attributes.wire_size`), with an inline-string escape
  for unregistered names;
* **descriptors / predicates / query specs** — length-prefixed sequences
  of the above.

Every ``encode_*`` has a matching ``decode_*`` returning
``(value, offset)``; property tests in ``tests/data/test_codec.py`` prove
exact round-trips.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from repro.data import attributes as attr
from repro.data.descriptor import DataDescriptor
from repro.data.predicate import Predicate, QuerySpec, Relation
from repro.errors import DataModelError

# ----------------------------------------------------------------------
# Varints
# ----------------------------------------------------------------------
def encode_varint(value: int) -> bytes:
    """LEB128-encode an unsigned integer."""
    if value < 0:
        raise DataModelError(f"varint requires value >= 0, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode an unsigned LEB128 integer; returns (value, new_offset)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise DataModelError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise DataModelError("varint too long")


def encode_zigzag(value: int) -> bytes:
    """Zigzag + LEB128 for signed integers (2n for n>=0, -2n-1 for n<0)."""
    return encode_varint(2 * value if value >= 0 else -2 * value - 1)


def decode_zigzag(data: bytes, offset: int = 0) -> Tuple[int, int]:
    raw, offset = decode_varint(data, offset)
    return (raw // 2 if raw % 2 == 0 else -(raw + 1) // 2), offset


# ----------------------------------------------------------------------
# Attribute values
# ----------------------------------------------------------------------
_TAG_INT = 0x01
_TAG_FLOAT32 = 0x02
_TAG_FLOAT64 = 0x03
_TAG_STR = 0x04
_TAG_BOOL_TRUE = 0x05
_TAG_BOOL_FALSE = 0x06


def encode_value(value) -> bytes:
    """Encode one attribute value with a type tag."""
    if isinstance(value, bool):
        return bytes([_TAG_BOOL_TRUE if value else _TAG_BOOL_FALSE])
    if isinstance(value, int):
        return bytes([_TAG_INT]) + encode_zigzag(value)
    if isinstance(value, float):
        try:
            packed32 = struct.pack("<f", value)
        except OverflowError:
            packed32 = None  # magnitude beyond binary32 range
        if packed32 is not None and struct.unpack("<f", packed32)[0] == value:
            return bytes([_TAG_FLOAT32]) + packed32
        return bytes([_TAG_FLOAT64]) + struct.pack("<d", value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return bytes([_TAG_STR]) + encode_varint(len(raw)) + raw
    raise DataModelError(f"cannot encode value of type {type(value).__name__}")


def decode_value(data: bytes, offset: int = 0):
    """Decode one tagged value; returns (value, new_offset)."""
    if offset >= len(data):
        raise DataModelError("truncated value")
    tag = data[offset]
    offset += 1
    if tag == _TAG_BOOL_TRUE:
        return True, offset
    if tag == _TAG_BOOL_FALSE:
        return False, offset
    if tag == _TAG_INT:
        return decode_zigzag(data, offset)
    if tag == _TAG_FLOAT32:
        if offset + 4 > len(data):
            raise DataModelError("truncated float32")
        return struct.unpack_from("<f", data, offset)[0], offset + 4
    if tag == _TAG_FLOAT64:
        if offset + 8 > len(data):
            raise DataModelError("truncated float64")
        return struct.unpack_from("<d", data, offset)[0], offset + 8
    if tag == _TAG_STR:
        length, offset = decode_varint(data, offset)
        if offset + length > len(data):
            raise DataModelError("truncated string")
        return data[offset : offset + length].decode("utf-8"), offset + length
    raise DataModelError(f"unknown value tag 0x{tag:02x}")


# ----------------------------------------------------------------------
# Attribute-name dictionary
# ----------------------------------------------------------------------
class AttributeDictionary:
    """Shared name ↔ 2-byte-id mapping (the schema dictionary of §II-B).

    Id 0 is reserved for the inline-string escape, so unregistered names
    still encode (at string cost).
    """

    def __init__(self) -> None:
        self._by_name: Dict[str, int] = {}
        self._by_id: Dict[int, str] = {}

    def register(self, name: str) -> int:
        """Assign (or return) the id for ``name``."""
        existing = self._by_name.get(name)
        if existing is not None:
            return existing
        next_id = len(self._by_name) + 1
        if next_id > 0xFFFF:
            raise DataModelError("attribute dictionary full")
        self._by_name[name] = next_id
        self._by_id[next_id] = name
        return next_id

    def id_of(self, name: str) -> int:
        """The id for ``name``, or 0 if unregistered."""
        return self._by_name.get(name, 0)

    def name_of(self, name_id: int) -> str:
        try:
            return self._by_id[name_id]
        except KeyError:
            raise DataModelError(f"unknown attribute id {name_id}") from None


def default_dictionary() -> AttributeDictionary:
    """A dictionary pre-registered with the well-known attribute names."""
    dictionary = AttributeDictionary()
    for name in (
        attr.NAMESPACE,
        attr.DATA_TYPE,
        attr.TIME,
        attr.LOCATION_X,
        attr.LOCATION_Y,
        attr.TOTAL_CHUNKS,
        attr.CHUNK_ID,
        attr.NAME,
    ):
        dictionary.register(name)
    return dictionary


#: Module-level dictionary used when none is supplied.
DEFAULT_DICTIONARY = default_dictionary()


def _encode_name(name: str, dictionary: AttributeDictionary) -> bytes:
    name_id = dictionary.id_of(name)
    if name_id:
        return struct.pack("<H", name_id)
    raw = name.encode("utf-8")
    return struct.pack("<H", 0) + encode_varint(len(raw)) + raw


def _decode_name(
    data: bytes, offset: int, dictionary: AttributeDictionary
) -> Tuple[str, int]:
    if offset + 2 > len(data):
        raise DataModelError("truncated attribute name")
    (name_id,) = struct.unpack_from("<H", data, offset)
    offset += 2
    if name_id:
        return dictionary.name_of(name_id), offset
    length, offset = decode_varint(data, offset)
    if offset + length > len(data):
        raise DataModelError("truncated attribute name string")
    return data[offset : offset + length].decode("utf-8"), offset + length


# ----------------------------------------------------------------------
# Descriptors
# ----------------------------------------------------------------------
def encode_descriptor(
    descriptor: DataDescriptor,
    dictionary: AttributeDictionary = DEFAULT_DICTIONARY,
) -> bytes:
    """Encode a descriptor as count + (name, value) pairs."""
    parts = [encode_varint(len(descriptor.names()))]
    for name, value in descriptor.items():
        parts.append(_encode_name(name, dictionary))
        parts.append(encode_value(value))
    return b"".join(parts)


def decode_descriptor(
    data: bytes,
    offset: int = 0,
    dictionary: AttributeDictionary = DEFAULT_DICTIONARY,
) -> Tuple[DataDescriptor, int]:
    count, offset = decode_varint(data, offset)
    attrs = {}
    for _ in range(count):
        name, offset = _decode_name(data, offset, dictionary)
        value, offset = decode_value(data, offset)
        attrs[name] = value
    return DataDescriptor(attrs), offset


# ----------------------------------------------------------------------
# Predicates and query specs
# ----------------------------------------------------------------------
_RELATION_TAGS = {relation: index for index, relation in enumerate(Relation)}
_RELATIONS_BY_TAG = {index: relation for relation, index in _RELATION_TAGS.items()}


def encode_predicate(
    predicate: Predicate,
    dictionary: AttributeDictionary = DEFAULT_DICTIONARY,
) -> bytes:
    """Encode one predicate: name + relation tag + operand(s)."""
    parts = [
        _encode_name(predicate.attribute, dictionary),
        bytes([_RELATION_TAGS[predicate.relation]]),
    ]
    relation = predicate.relation
    if relation is Relation.EXISTS:
        pass
    elif relation is Relation.IN:
        operands = list(predicate.operand)
        parts.append(encode_varint(len(operands)))
        for operand in operands:
            parts.append(encode_value(operand))
    elif relation is Relation.BETWEEN:
        low, high = predicate.operand
        parts.append(encode_value(low))
        parts.append(encode_value(high))
    else:
        parts.append(encode_value(predicate.operand))
    return b"".join(parts)


def decode_predicate(
    data: bytes,
    offset: int = 0,
    dictionary: AttributeDictionary = DEFAULT_DICTIONARY,
) -> Tuple[Predicate, int]:
    name, offset = _decode_name(data, offset, dictionary)
    if offset >= len(data):
        raise DataModelError("truncated predicate")
    tag = data[offset]
    offset += 1
    relation = _RELATIONS_BY_TAG.get(tag)
    if relation is None:
        raise DataModelError(f"unknown relation tag {tag}")
    if relation is Relation.EXISTS:
        return Predicate(name, relation), offset
    if relation is Relation.IN:
        count, offset = decode_varint(data, offset)
        operands: List = []
        for _ in range(count):
            value, offset = decode_value(data, offset)
            operands.append(value)
        return Predicate(name, relation, tuple(operands)), offset
    if relation is Relation.BETWEEN:
        low, offset = decode_value(data, offset)
        high, offset = decode_value(data, offset)
        return Predicate(name, relation, (low, high)), offset
    value, offset = decode_value(data, offset)
    return Predicate(name, relation, value), offset


def encode_query_spec(
    spec: QuerySpec,
    dictionary: AttributeDictionary = DEFAULT_DICTIONARY,
) -> bytes:
    """Encode a spec as count + predicates."""
    parts = [encode_varint(len(spec))]
    for predicate in spec.predicates:
        parts.append(encode_predicate(predicate, dictionary))
    return b"".join(parts)


def decode_query_spec(
    data: bytes,
    offset: int = 0,
    dictionary: AttributeDictionary = DEFAULT_DICTIONARY,
) -> Tuple[QuerySpec, int]:
    count, offset = decode_varint(data, offset)
    predicates = []
    for _ in range(count):
        predicate, offset = decode_predicate(data, offset, dictionary)
        predicates.append(predicate)
    return QuerySpec(predicates), offset


# ----------------------------------------------------------------------
# Bloom filters
# ----------------------------------------------------------------------
def encode_bloom(bloom) -> bytes:
    """Encode geometry + seed + bit array."""
    from repro.bloom.bloom_filter import BloomFilter

    if not isinstance(bloom, BloomFilter):
        # NullFilter (or anything filter-like but empty) → zero marker.
        return encode_varint(0)
    return b"".join(
        (
            encode_varint(bloom.m_bits),
            encode_varint(bloom.k_hashes),
            encode_varint(bloom.seed),
            bloom.to_bytes(),
        )
    )


def decode_bloom(data: bytes, offset: int = 0):
    """Decode a filter; returns (BloomFilter | NullFilter, new_offset)."""
    from repro.bloom.bloom_filter import BloomFilter, NullFilter

    m_bits, offset = decode_varint(data, offset)
    if m_bits == 0:
        return NullFilter(), offset
    k_hashes, offset = decode_varint(data, offset)
    if k_hashes < 1:
        raise DataModelError("bloom filter with no hash functions")
    seed, offset = decode_varint(data, offset)
    n_bytes = (m_bits + 7) // 8
    if offset + n_bytes > len(data):
        raise DataModelError("truncated bloom filter")
    bloom = BloomFilter(m_bits, k_hashes, seed)
    bloom.load_bytes(data[offset : offset + n_bytes])
    return bloom, offset + n_bytes
