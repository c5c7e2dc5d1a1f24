"""Workload generators for the evaluation (§VI-A).

Metadata entries model crowdsensed samples (data type, time, location —
≈30 bytes each in the compact wire coding); large data items are chunked
videos (256 KB chunks).  Entries and chunks are distributed uniformly at
random, with configurable *redundancy* (copies per entry/chunk).

Every trial of a figure row uses the same metadata set, so a process builds
it once: :func:`generate_metadata` hands each caller a fresh list of the
descriptors built for the most recent count.  Descriptors are immutable and
their memos (:meth:`~repro.data.descriptor.DataDescriptor.stable_key`,
:meth:`~repro.data.descriptor.DataDescriptor.wire_size`, ...) are pure, so
trials sharing them cannot tell; only one count's set is kept.
:func:`distribute_metadata` draws holders entry by entry, exactly as a
per-entry placement would, and then fills each holder's store with one
batch in entry order.
"""

from __future__ import annotations

import functools
import random
from typing import Dict, List, Sequence, Tuple

from repro.data import attributes as attr
from repro.data.descriptor import DataDescriptor
from repro.data.item import DEFAULT_CHUNK_SIZE, DataItem
from repro.net.topology import NodeId
from repro.node.device import Device

#: Data types cycled through by the sample generator.
SAMPLE_TYPES = ("nox", "pm25", "noise", "temp")


def sensor_descriptor(index: int) -> DataDescriptor:
    """A compact sample descriptor (~30 B on the wire)."""
    return DataDescriptor(
        {
            attr.NAMESPACE: "env",
            attr.DATA_TYPE: SAMPLE_TYPES[index % len(SAMPLE_TYPES)],
            attr.TIME: float(index),
            attr.LOCATION_X: float(index % 120),
            attr.LOCATION_Y: float((index * 7) % 120),
        }
    )


@functools.lru_cache(maxsize=1)
def _metadata_set(count: int) -> Tuple[DataDescriptor, ...]:
    return tuple(sensor_descriptor(index) for index in range(count))


def generate_metadata(count: int) -> List[DataDescriptor]:
    """``count`` distinct sample descriptors, as a new list.

    The descriptors themselves are shared with every other call for the
    same count since the last call for a different one.
    """
    return list(_metadata_set(count))


def distribute_metadata(
    devices: Dict[NodeId, Device],
    entries: Sequence[DataDescriptor],
    rng: random.Random,
    redundancy: int = 1,
    exclude: Sequence[NodeId] = (),
) -> Dict[DataDescriptor, List[NodeId]]:
    """Place each entry on ``redundancy`` distinct uniform-random nodes.

    Args:
        exclude: Nodes that must not hold initial copies (e.g. consumers
            when measuring pure discovery).

    Returns:
        The placement, for ground-truth checks.
    """
    candidates = [node_id for node_id in devices if node_id not in exclude]
    if not candidates:
        raise ValueError("no nodes left to hold data after exclusions")
    placement: Dict[DataDescriptor, List[NodeId]] = {}
    batches: Dict[NodeId, List[DataDescriptor]] = {}
    copies = min(redundancy, len(candidates))
    for entry in entries:
        if copies == 1:
            # The same single draw as ``rng.sample(candidates, 1)``.
            holders = [rng.choice(candidates)]
        else:
            holders = rng.sample(candidates, copies)
        placement[entry] = holders
        for node_id in holders:
            batches.setdefault(node_id, []).append(entry)
    for node_id, batch in batches.items():
        devices[node_id].store.insert_metadata(batch, has_payload=True)
    return placement


def make_video_item(
    size_bytes: int,
    name: str = "festival-clip",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> DataItem:
    """A large shared data item (e.g. a video clip, §VI-B-3)."""
    return DataItem(
        DataDescriptor(
            {
                attr.NAMESPACE: "media",
                attr.DATA_TYPE: "video",
                attr.NAME: name,
            }
        ),
        size=size_bytes,
        chunk_size=chunk_size,
    )


def distribute_chunks(
    devices: Dict[NodeId, Device],
    item: DataItem,
    rng: random.Random,
    redundancy: int = 1,
    exclude: Sequence[NodeId] = (),
) -> Dict[int, List[NodeId]]:
    """Place each chunk of ``item`` on ``redundancy`` uniform-random nodes.

    Returns:
        chunk_id → holder node ids, for ground-truth checks.
    """
    candidates = [node_id for node_id in devices if node_id not in exclude]
    if not candidates:
        raise ValueError("no nodes left to hold chunks after exclusions")
    placement: Dict[int, List[NodeId]] = {}
    copies = min(redundancy, len(candidates))
    for chunk in item.chunks():
        holders = rng.sample(candidates, copies)
        for node_id in holders:
            devices[node_id].add_chunk(chunk)
        placement[chunk.chunk_id] = holders
    return placement

