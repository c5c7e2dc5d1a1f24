"""Shared builders for the test suite."""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Dict, Optional, Tuple

from repro.net.medium import BroadcastMedium
from repro.net.topology import NodeId, Position, Topology
from repro.node.config import DeviceConfig
from repro.node.device import Device
from repro.sim.simulator import Simulator


def make_net(
    positions: Dict[NodeId, Position],
    radio_range: float = 40.0,
    seed: int = 0,
    device_config: Optional[DeviceConfig] = None,
    base_loss: float = 0.0,
) -> SimpleNamespace:
    """A small network with one device per position.

    Loss defaults to zero so unit tests are fully deterministic; tests that
    exercise loss behaviour pass an explicit ``base_loss``.
    """
    sim = Simulator()
    topology = Topology(radio_range=radio_range)
    for node_id, position in positions.items():
        topology.add_node(node_id, position)
    medium = BroadcastMedium(
        sim, topology, random.Random(seed), base_loss=base_loss
    )
    devices = {
        node_id: Device(
            sim, medium, node_id, random.Random(seed * 1000 + node_id), device_config
        )
        for node_id in positions
    }
    return SimpleNamespace(
        sim=sim, topology=topology, medium=medium, devices=devices
    )


def line_positions(count: int, spacing: float = 30.0) -> Dict[NodeId, Position]:
    """``count`` nodes on a line, each hearing only adjacent neighbors
    when ``spacing`` is larger than half the radio range."""
    return {index: (index * spacing, 0.0) for index in range(count)}


def clique_positions(count: int) -> Dict[NodeId, Position]:
    """``count`` nodes all within one hop of each other."""
    return {index: (float(index), 0.0) for index in range(count)}


def cdi_learn(table, item, chunk_id: int, hop: int, neighbor: NodeId, ttl: float) -> bool:
    """Store ``chunk_id`` at ``hop`` via ``neighbor`` as a one-pair CDI update.

    The neighbor advertises one hop less than the table stores.  True if
    the table improved.
    """
    return table.update(item, [(chunk_id, hop - 1)], neighbor, ttl) == 1
