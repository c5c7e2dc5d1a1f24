"""Binary wire codec for PDS protocol messages.

Completes the :mod:`repro.data.codec` stack up to whole messages.  Its
encoder is the oracle the tests check each message's ``wire_size()``
against, and every overhead number is a sum of ``wire_size()``.  Chunk
*payload bytes* are elided — the simulation tracks sizes, not content —
and are re-materialised as size-only chunks on decode (a real deployment
would append the payload after the encoded header).

Layout: 1 message-type tag, then the common header (message id, sender,
expiry/flags as needed), then type-specific fields.  Receiver lists are
count-prefixed varints.  Property tests prove exact round-trips for every
message type.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from repro.core.messages import (
    CdiQuery,
    CdiResponse,
    ChunkQuery,
    ChunkResponse,
    DiscoveryQuery,
    DiscoveryResponse,
    MdrQuery,
)
from repro.data.codec import (
    DEFAULT_DICTIONARY,
    AttributeDictionary,
    decode_bloom,
    decode_descriptor,
    decode_query_spec,
    decode_varint,
    decode_zigzag,
    encode_bloom,
    encode_descriptor,
    encode_query_spec,
    encode_varint,
    encode_zigzag,
)
from repro.data.item import Chunk
from repro.errors import DataModelError, ProtocolError

_TAG_DISCOVERY_QUERY = 0x10
_TAG_DISCOVERY_RESPONSE = 0x11
_TAG_CDI_QUERY = 0x12
_TAG_CDI_RESPONSE = 0x13
_TAG_CHUNK_QUERY = 0x14
_TAG_CHUNK_RESPONSE = 0x15
_TAG_MDR_QUERY = 0x16

#: Sentinel for an unbounded (flood) receiver list.
_RECEIVERS_ALL = 0xFFFFFFFF


def _encode_receivers(receivers: Optional[frozenset]) -> bytes:
    if receivers is None:
        return encode_varint(_RECEIVERS_ALL)
    parts = [encode_varint(len(receivers))]
    for node in sorted(receivers):
        parts.append(encode_varint(node))
    return b"".join(parts)


def _decode_receivers(data: bytes, offset: int) -> Tuple[Optional[frozenset], int]:
    count, offset = decode_varint(data, offset)
    if count == _RECEIVERS_ALL:
        return None, offset
    nodes = []
    for _ in range(count):
        node, offset = decode_varint(data, offset)
        nodes.append(node)
    return frozenset(nodes), offset


def _encode_float(value: float) -> bytes:
    return struct.pack("<d", value)


def _decode_float(data: bytes, offset: int) -> Tuple[float, int]:
    if offset + 8 > len(data):
        raise DataModelError("truncated float field")
    return struct.unpack_from("<d", data, offset)[0], offset + 8


def _encode_chunk(chunk: Chunk, dictionary: AttributeDictionary) -> bytes:
    return encode_descriptor(chunk.descriptor, dictionary) + encode_varint(
        chunk.size
    )


def _decode_chunk(
    data: bytes, offset: int, dictionary: AttributeDictionary
) -> Tuple[Chunk, int]:
    descriptor, offset = decode_descriptor(data, offset, dictionary)
    size, offset = decode_varint(data, offset)
    return Chunk(descriptor, size), offset


# ----------------------------------------------------------------------
def encode_message(
    message, dictionary: AttributeDictionary = DEFAULT_DICTIONARY
) -> bytes:
    """Encode any PDS protocol message to bytes."""
    if isinstance(message, DiscoveryQuery):
        return b"".join(
            (
                bytes([_TAG_DISCOVERY_QUERY]),
                encode_varint(message.message_id),
                encode_varint(message.sender_id),
                _encode_receivers(message.receiver_ids),
                encode_zigzag(message.origin_id),
                _encode_float(message.expires_at),
                encode_varint(message.round_index),
                bytes([1 if message.want_payload else 0]),
                encode_varint(message.hop_count),
                encode_query_spec(message.spec, dictionary),
                encode_bloom(message.bloom),
            )
        )
    if isinstance(message, DiscoveryResponse):
        parts = [
            bytes([_TAG_DISCOVERY_RESPONSE]),
            encode_varint(message.message_id),
            encode_varint(message.sender_id),
            _encode_receivers(message.receiver_ids),
            encode_varint(message.round_index),
            encode_varint(len(message.entries)),
        ]
        for entry in message.entries:
            parts.append(encode_descriptor(entry, dictionary))
        parts.append(encode_varint(len(message.payloads)))
        for chunk in message.payloads:
            parts.append(_encode_chunk(chunk, dictionary))
        parts.append(encode_varint(len(message.query_ids)))
        for query_id in message.query_ids:
            parts.append(encode_varint(query_id))
        return b"".join(parts)
    if isinstance(message, CdiQuery):
        return b"".join(
            (
                bytes([_TAG_CDI_QUERY]),
                encode_varint(message.message_id),
                encode_varint(message.sender_id),
                _encode_receivers(message.receiver_ids),
                encode_zigzag(message.origin_id),
                _encode_float(message.expires_at),
                encode_varint(message.hop_count),
                encode_descriptor(message.item, dictionary),
            )
        )
    if isinstance(message, CdiResponse):
        parts = [
            bytes([_TAG_CDI_RESPONSE]),
            encode_varint(message.message_id),
            encode_varint(message.sender_id),
            _encode_receivers(message.receiver_ids),
            encode_descriptor(message.item, dictionary),
            encode_varint(len(message.pairs)),
        ]
        for chunk_id, hop_count in message.pairs:
            parts.append(encode_varint(chunk_id))
            parts.append(encode_varint(hop_count))
        parts.append(encode_varint(len(message.query_ids)))
        for query_id in message.query_ids:
            parts.append(encode_varint(query_id))
        return b"".join(parts)
    if isinstance(message, ChunkQuery):
        parts = [
            bytes([_TAG_CHUNK_QUERY]),
            encode_varint(message.message_id),
            encode_varint(message.sender_id),
            _encode_receivers(message.receiver_ids),
            encode_zigzag(message.origin_id),
            _encode_float(message.expires_at),
            encode_descriptor(message.item, dictionary),
            encode_varint(len(message.chunk_ids)),
        ]
        for chunk_id in sorted(message.chunk_ids):
            parts.append(encode_varint(chunk_id))
        parts.append(encode_varint(message.root_id))
        parts.append(encode_varint(message.parent_id))
        parts.append(encode_varint(message.hop_count))
        return b"".join(parts)
    if isinstance(message, ChunkResponse):
        return b"".join(
            (
                bytes([_TAG_CHUNK_RESPONSE]),
                encode_varint(message.message_id),
                encode_varint(message.sender_id),
                _encode_receivers(message.receiver_ids),
                _encode_chunk(message.chunk, dictionary),
            )
        )
    if isinstance(message, MdrQuery):
        parts = [
            bytes([_TAG_MDR_QUERY]),
            encode_varint(message.message_id),
            encode_varint(message.sender_id),
            _encode_receivers(message.receiver_ids),
            encode_zigzag(message.origin_id),
            _encode_float(message.expires_at),
            encode_varint(message.round_index),
            encode_varint(message.hop_count),
            encode_varint(message.total_chunks),
            encode_descriptor(message.item, dictionary),
        ]
        # have-set as a bitmap, as the wire_size estimate assumes.
        bitmap = bytearray((message.total_chunks + 7) // 8)
        for chunk_id in message.have_chunk_ids:
            if 0 <= chunk_id < message.total_chunks:
                bitmap[chunk_id >> 3] |= 1 << (chunk_id & 7)
        parts.append(bytes(bitmap))
        return b"".join(parts)
    raise ProtocolError(f"cannot encode message of type {type(message).__name__}")


def decode_message(
    data: bytes, dictionary: AttributeDictionary = DEFAULT_DICTIONARY
):
    """Decode bytes produced by :func:`encode_message`."""
    if not data:
        raise ProtocolError("empty message")
    tag = data[0]
    offset = 1
    message_id, offset = decode_varint(data, offset)
    sender_id, offset = decode_varint(data, offset)
    receivers, offset = _decode_receivers(data, offset)

    if tag == _TAG_DISCOVERY_QUERY:
        origin_id, offset = decode_zigzag(data, offset)
        expires_at, offset = _decode_float(data, offset)
        round_index, offset = decode_varint(data, offset)
        want_payload = bool(data[offset])
        offset += 1
        hop_count, offset = decode_varint(data, offset)
        spec, offset = decode_query_spec(data, offset, dictionary)
        bloom, offset = decode_bloom(data, offset)
        return DiscoveryQuery(
            message_id=message_id,
            sender_id=sender_id,
            receiver_ids=receivers,
            spec=spec,
            origin_id=origin_id,
            expires_at=expires_at,
            bloom=bloom,
            round_index=round_index,
            want_payload=want_payload,
            hop_count=hop_count,
        )
    if tag == _TAG_DISCOVERY_RESPONSE:
        round_index, offset = decode_varint(data, offset)
        n_entries, offset = decode_varint(data, offset)
        entries = []
        for _ in range(n_entries):
            descriptor, offset = decode_descriptor(data, offset, dictionary)
            entries.append(descriptor)
        n_payloads, offset = decode_varint(data, offset)
        payloads = []
        for _ in range(n_payloads):
            chunk, offset = _decode_chunk(data, offset, dictionary)
            payloads.append(chunk)
        n_query_ids, offset = decode_varint(data, offset)
        query_ids = []
        for _ in range(n_query_ids):
            query_id, offset = decode_varint(data, offset)
            query_ids.append(query_id)
        return DiscoveryResponse(
            message_id=message_id,
            sender_id=sender_id,
            receiver_ids=receivers,
            entries=tuple(entries),
            payloads=tuple(payloads),
            round_index=round_index,
            query_ids=tuple(query_ids),
        )
    if tag == _TAG_CDI_QUERY:
        origin_id, offset = decode_zigzag(data, offset)
        expires_at, offset = _decode_float(data, offset)
        hop_count, offset = decode_varint(data, offset)
        item, offset = decode_descriptor(data, offset, dictionary)
        return CdiQuery(
            message_id=message_id,
            sender_id=sender_id,
            receiver_ids=receivers,
            item=item,
            origin_id=origin_id,
            expires_at=expires_at,
            hop_count=hop_count,
        )
    if tag == _TAG_CDI_RESPONSE:
        item, offset = decode_descriptor(data, offset, dictionary)
        n_pairs, offset = decode_varint(data, offset)
        pairs = []
        for _ in range(n_pairs):
            chunk_id, offset = decode_varint(data, offset)
            hop_count, offset = decode_varint(data, offset)
            pairs.append((chunk_id, hop_count))
        n_query_ids, offset = decode_varint(data, offset)
        query_ids = []
        for _ in range(n_query_ids):
            query_id, offset = decode_varint(data, offset)
            query_ids.append(query_id)
        return CdiResponse(
            message_id=message_id,
            sender_id=sender_id,
            receiver_ids=receivers,
            item=item,
            pairs=tuple(pairs),
            query_ids=tuple(query_ids),
        )
    if tag == _TAG_CHUNK_QUERY:
        origin_id, offset = decode_zigzag(data, offset)
        expires_at, offset = _decode_float(data, offset)
        item, offset = decode_descriptor(data, offset, dictionary)
        n_ids, offset = decode_varint(data, offset)
        chunk_ids = set()
        for _ in range(n_ids):
            chunk_id, offset = decode_varint(data, offset)
            chunk_ids.add(chunk_id)
        root_id, offset = decode_varint(data, offset)
        parent_id, offset = decode_varint(data, offset)
        hop_count, offset = decode_varint(data, offset)
        return ChunkQuery(
            message_id=message_id,
            sender_id=sender_id,
            receiver_ids=receivers,
            item=item,
            chunk_ids=frozenset(chunk_ids),
            origin_id=origin_id,
            expires_at=expires_at,
            root_id=root_id,
            parent_id=parent_id,
            hop_count=hop_count,
        )
    if tag == _TAG_CHUNK_RESPONSE:
        chunk, offset = _decode_chunk(data, offset, dictionary)
        return ChunkResponse(
            message_id=message_id,
            sender_id=sender_id,
            receiver_ids=receivers,
            chunk=chunk,
        )
    if tag == _TAG_MDR_QUERY:
        origin_id, offset = decode_zigzag(data, offset)
        expires_at, offset = _decode_float(data, offset)
        round_index, offset = decode_varint(data, offset)
        hop_count, offset = decode_varint(data, offset)
        total_chunks, offset = decode_varint(data, offset)
        item, offset = decode_descriptor(data, offset, dictionary)
        n_bytes = (total_chunks + 7) // 8
        if offset + n_bytes > len(data):
            raise DataModelError("truncated have-bitmap")
        have = set()
        for chunk_id in range(total_chunks):
            if data[offset + (chunk_id >> 3)] & (1 << (chunk_id & 7)):
                have.add(chunk_id)
        offset += n_bytes
        return MdrQuery(
            message_id=message_id,
            sender_id=sender_id,
            receiver_ids=receivers,
            item=item,
            total_chunks=total_chunks,
            have_chunk_ids=frozenset(have),
            origin_id=origin_id,
            expires_at=expires_at,
            round_index=round_index,
            hop_count=hop_count,
        )
    raise ProtocolError(f"unknown message tag 0x{tag:02x}")
