"""Scenario builders: assembled simulations ready for a workload.

Two families, mirroring §VI-A:

* **static grid** — ``rows×cols`` nodes spaced so each reaches its 8
  surrounding neighbors; the consumer sits at the centre (multiple
  consumers come from the central 5×5 subgrid);
* **campus mobility** — devices placed and moved by an observation-based
  trace (student center / classrooms), with joins and leaves.

The builder owns the per-seed RNG registry so every run is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.messages import reset_message_ids
from repro.mobility.campus import CampusScenario, CampusTrace, generate_campus_trace
from repro.mobility.trace import TracePlayer
from repro.net.medium import BroadcastMedium
from repro.net.message import reset_frame_ids
from repro.net.radio import RadioConfig
from repro.net.stats import NetworkStats
from repro.net.topology import (
    NodeId,
    Topology,
    build_grid,
    center_node,
    center_subgrid,
)
from repro.node.config import DeviceConfig
from repro.node.device import Device
from repro.obs.config import active
from repro.obs.memprof import memory_phase
from repro.obs.recorder import FlightRecorder
from repro.sim.rng import RngRegistry
from repro.sim.simulator import Simulator

#: Radio range used throughout the evaluation scenarios.
DEFAULT_RADIO_RANGE = 40.0

#: Campus scenarios use outdoor-WiFi range: 20 random nodes in 120×120 m²
#: stay connected w.h.p. at 55 m, matching the paper's ≈100% mobile recall
#: (at 40 m the random placement partitions regularly, which the paper's
#: observations evidently did not).
CAMPUS_RADIO_RANGE = 55.0


def simulation_device_config() -> DeviceConfig:
    """Device config for multi-hop simulations.

    The prototype-measured leaky bucket and ack parameters are kept; the
    radio queue is deepened (the paper ports measured *rates* into NS-3
    rather than the 1 MB Android buffer, and NS-3's WiFi queues are ample).
    The leaky bucket still bounds bursts.
    """
    return DeviceConfig(radio=RadioConfig(os_buffer_bytes=8_000_000))


@dataclass
class Scenario:
    """A ready-to-run simulation: kernel, medium, devices, consumers."""

    sim: Simulator
    topology: Topology
    medium: BroadcastMedium
    devices: Dict[NodeId, Device]
    consumers: List[NodeId]
    rngs: RngRegistry
    seed: int
    trace_player: Optional[TracePlayer] = None
    extras: dict = field(default_factory=dict)

    @property
    def stats(self) -> NetworkStats:
        """The shared transmission counters (message-overhead metric)."""
        return self.medium.stats

    def device(self, node_id: NodeId) -> Device:
        """The device of one node."""
        return self.devices[node_id]

    def workload_rng(self) -> random.Random:
        """The RNG stream for workload placement."""
        return self.rngs.stream("workload")


def _attach_recorder(scenario: Scenario) -> Scenario:
    """Start a flight recorder on the scenario when recording is configured.

    No-op (and no simulator events scheduled) otherwise — the zero-cost
    contract for unrecorded runs lives here.  Both builders funnel their
    finished world through here, which also makes it the ``setup`` phase
    boundary for memory telemetry — and the point where the per-run id
    spaces (message ids, frame ids) rewind, so every run mints the same
    deterministic id sequence regardless of what else ran in the process
    first (the determinism fingerprint depends on this).
    """
    reset_message_ids()
    reset_frame_ids()
    obs = active("timeline")
    if obs is not None:
        recorder = FlightRecorder(
            scenario.sim,
            scenario.topology,
            scenario.medium,
            scenario.devices,
            interval_s=obs.config.interval_s,
            keyframe_every=obs.config.keyframe_cadence,
            writer=obs.writer("timeline"),
        )
        scenario.extras["recorder"] = recorder.start()
    memory_phase("setup")
    return scenario


def _make_device(
    scenario_parts: dict,
    node_id: NodeId,
    rngs: RngRegistry,
    config: DeviceConfig,
) -> Device:
    return Device(
        scenario_parts["sim"],
        scenario_parts["medium"],
        node_id,
        rngs.stream(f"device-{node_id}"),
        config,
    )


def build_grid_scenario(
    rows: int = 10,
    cols: int = 10,
    seed: int = 0,
    radio_range: float = DEFAULT_RADIO_RANGE,
    device_config: Optional[DeviceConfig] = None,
    n_consumers: int = 1,
) -> Scenario:
    """The paper's static scenario (§VI-A).

    One consumer sits at the grid centre; additional consumers are drawn
    from the central 5×5 subgrid at random.
    """
    if device_config is None:
        device_config = simulation_device_config()
    rngs = RngRegistry(seed)
    sim = Simulator()
    topology, node_ids = build_grid(rows, cols, radio_range=radio_range)
    medium = BroadcastMedium(sim, topology, rngs.stream("medium"))
    parts = {"sim": sim, "medium": medium}
    devices = {
        node_id: _make_device(parts, node_id, rngs, device_config)
        for node_id in node_ids
    }
    consumers = [center_node(rows, cols, node_ids)]
    if n_consumers > 1:
        pool = [
            node_id
            for node_id in center_subgrid(rows, cols, node_ids, sub=5)
            if node_id not in consumers
        ]
        picker = rngs.stream("consumers")
        extra = picker.sample(pool, min(n_consumers - 1, len(pool)))
        consumers.extend(extra)
    return _attach_recorder(
        Scenario(
            sim=sim,
            topology=topology,
            medium=medium,
            devices=devices,
            consumers=consumers,
            rngs=rngs,
            seed=seed,
        )
    )


def build_campus_scenario(
    campus: CampusScenario,
    seed: int = 0,
    frequency_scale: float = 1.0,
    duration_s: float = 300.0,
    radio_range: float = CAMPUS_RADIO_RANGE,
    device_config: Optional[DeviceConfig] = None,
    n_consumers: int = 1,
) -> Scenario:
    """A mobile scenario driven by an observation-based campus trace.

    Consumers are picked uniformly from the initially present nodes
    ("consumers are picked randomly from all nodes", §VI-A).
    """
    if device_config is None:
        device_config = simulation_device_config()
    rngs = RngRegistry(seed)
    sim = Simulator()
    topology = Topology(radio_range=radio_range)
    medium = BroadcastMedium(sim, topology, rngs.stream("medium"))
    parts = {"sim": sim, "medium": medium}

    trace: CampusTrace = generate_campus_trace(
        campus,
        duration_s=duration_s,
        rng=rngs.stream("mobility"),
        frequency_scale=frequency_scale,
    )
    devices: Dict[NodeId, Device] = {}
    for node_id in trace.initial_nodes:
        topology.add_node(node_id, trace.initial_positions[node_id])
        devices[node_id] = _make_device(parts, node_id, rngs, device_config)

    def factory(node_id: NodeId) -> Device:
        return _make_device(parts, node_id, rngs, device_config)

    player = TracePlayer(sim, topology, devices, device_factory=factory)
    player.schedule(trace.events)

    picker = rngs.stream("consumers")
    consumers = picker.sample(
        trace.initial_nodes, min(n_consumers, len(trace.initial_nodes))
    )
    return _attach_recorder(
        Scenario(
            sim=sim,
            topology=topology,
            medium=medium,
            devices=devices,
            consumers=consumers,
            rngs=rngs,
            seed=seed,
            trace_player=player,
            extras={"trace": trace},
        )
    )
