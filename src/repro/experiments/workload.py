"""Workload generators for the evaluation (§VI-A).

Metadata entries model crowdsensed samples (data type, time, location —
≈30 bytes each in the compact wire coding); large data items are chunked
videos (256 KB chunks).  Entries and chunks are distributed uniformly at
random, with configurable *redundancy* (copies per entry/chunk).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

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


def generate_metadata(count: int) -> List[DataDescriptor]:
    """``count`` distinct sample descriptors."""
    return [sensor_descriptor(index) for index in range(count)]


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
    copies = min(redundancy, len(candidates))
    for entry in entries:
        holders = rng.sample(candidates, copies)
        for node_id in holders:
            devices[node_id].add_metadata(entry)
        placement[entry] = holders
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

