"""Shared drivers for the figure experiments.

Each paper figure varies one knob of two canonical experiments:

* :func:`pdd_experiment` — metadata discovery on a scenario, with one or
  more consumers (single / sequential / simultaneous);
* :func:`retrieval_experiment` — large-item retrieval via PDR or the MDR
  baseline, again with one or more consumers.

Both return per-consumer results plus network totals, from which the
figure modules derive their rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.core.consumer import (
    DiscoverySession,
    MdrSession,
    RetrievalSession,
    SessionResult,
)
from repro.core.rounds import RoundConfig
from repro.data.item import DataItem
from repro.errors import ConfigurationError
from repro.experiments.scenario import Scenario, build_grid_scenario
from repro.experiments.workload import (
    distribute_chunks,
    distribute_metadata,
    generate_metadata,
)
from repro.net.reliability import ReliabilityConfig
from repro.net.radio import RadioConfig
from repro.node.config import DeviceConfig, ProtocolConfig

#: Wall-clock cap (simulated seconds) for any single experiment.
DEFAULT_SIM_CAP_S = 600.0

#: Consumer start modes.
MODES = ("single", "sequential", "simultaneous")


def scaled(value: int, scale: float, minimum: int = 1) -> int:
    """Scale an integer workload parameter, never below ``minimum``.

    Every figure's ``reproduce`` derives its workload from one call per
    scaled parameter; at ``scale=1.0`` each yields the paper's value.
    """
    return max(minimum, int(round(value * scale)))


def experiment_device_config(
    ack: bool = True,
    redundancy_detection: bool = True,
) -> DeviceConfig:
    """Multi-hop device config with toggles for the ablation benches."""
    return DeviceConfig(
        protocol=ProtocolConfig(redundancy_detection=redundancy_detection),
        radio=RadioConfig(os_buffer_bytes=8_000_000),
        reliability=ReliabilityConfig(enabled=ack),
    )


@dataclass
class ConsumerOutcome:
    """One consumer's session result plus its overhead window.

    ``overhead_bytes`` attributes the network-wide traffic to consumers
    without double counting: sequential consumers own the bytes between
    their launch and the next launch (or end of run); single/simultaneous
    consumers split the shared window evenly.  Summing over consumers
    always gives the network total.  ``launched`` is False for a
    sequential consumer whose turn never came before the simulation cap —
    its result and overhead are placeholders, not measurements.
    """

    node_id: int
    result: SessionResult
    recall: float
    overhead_bytes: int
    launched: bool = True


@dataclass
class ExperimentOutcome:
    """Everything a figure module needs from one run."""

    consumers: List[ConsumerOutcome]
    total_overhead_bytes: int
    scenario: Scenario

    @property
    def first(self) -> ConsumerOutcome:
        return self.consumers[0]


def _drive_sessions(
    scenario: Scenario,
    sessions: List[object],
    mode: str,
    recall_fn: Callable[[object], float],
    sim_cap_s: float,
    start_at: float = 0.0,
) -> ExperimentOutcome:
    """Start sessions per ``mode`` and run the simulation to completion."""
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}, got {mode}")
    sim = scenario.sim
    stats = scenario.stats
    overhead_marks = {}
    launched = set()

    def launch(index: int) -> None:
        overhead_marks[index] = stats.bytes_sent
        launched.add(index)
        sessions[index].start()

    if mode == "sequential":
        # Chain: each next consumer starts when the previous completes.
        for index, session in enumerate(sessions):
            next_index = index + 1
            if next_index < len(sessions):
                session.on_complete = (
                    lambda s, i=next_index: sim.schedule(0.0, launch, i)
                )
        sim.schedule(start_at, launch, 0)
    else:
        jitter = scenario.rngs.stream("session-jitter")
        for index in range(len(sessions)):
            sim.schedule(start_at + jitter.uniform(0.0, 0.05), launch, index)

    sim.run(until=start_at + sim_cap_s)

    total_bytes = stats.bytes_sent
    per_consumer: dict = {}
    if mode == "sequential":
        # Per-consumer overhead = bytes between this start and the next
        # launch (or end of run).  A consumer whose turn never came before
        # the cap gets 0 and is flagged via ``launched=False`` below.
        marks = [overhead_marks.get(i, total_bytes) for i in range(len(sessions))]
        marks.append(total_bytes)
        for index in range(len(sessions)):
            per_consumer[index] = (
                marks[index + 1] - marks[index] if index in launched else 0
            )
    else:
        # single/simultaneous: every consumer shares the same window, so
        # the network total is split evenly — attributing each byte to
        # exactly one consumer instead of to all of them at once.
        started = [index for index in range(len(sessions)) if index in launched]
        if started:
            share, remainder = divmod(total_bytes, len(started))
            for position, index in enumerate(started):
                per_consumer[index] = share + (1 if position < remainder else 0)

    consumers = []
    for index, session in enumerate(sessions):
        result = session.result
        if result is None:
            result = SessionResult(started_at=sim.now, finished_at=sim.now)
        consumers.append(
            ConsumerOutcome(
                node_id=session.device.node_id,
                result=result,
                recall=recall_fn(session),
                overhead_bytes=per_consumer.get(index, 0),
                launched=index in launched,
            )
        )
    return ExperimentOutcome(
        consumers=consumers,
        total_overhead_bytes=total_bytes,
        scenario=scenario,
    )


# ----------------------------------------------------------------------
# PDD
# ----------------------------------------------------------------------
def pdd_experiment(
    seed: int,
    rows: int = 10,
    cols: int = 10,
    metadata_count: int = 5000,
    redundancy: int = 1,
    round_config: Optional[RoundConfig] = None,
    ack: bool = True,
    redundancy_detection: bool = True,
    n_consumers: int = 1,
    mode: str = "single",
    sim_cap_s: float = DEFAULT_SIM_CAP_S,
    scenario: Optional[Scenario] = None,
    start_at: float = 0.0,
) -> ExperimentOutcome:
    """Metadata discovery on a grid (or a supplied scenario)."""
    if round_config is None:
        round_config = RoundConfig()
    if scenario is None:
        scenario = build_grid_scenario(
            rows=rows,
            cols=cols,
            seed=seed,
            device_config=experiment_device_config(ack, redundancy_detection),
            n_consumers=n_consumers,
        )
    entries = generate_metadata(metadata_count)

    def place() -> None:
        distribute_metadata(
            scenario.devices,
            entries,
            scenario.workload_rng(),
            redundancy=redundancy,
        )

    if start_at > 0:
        # Mobile scenarios warm up before the query; distributing at query
        # time places data on nodes actually present, so recall measures
        # the protocol rather than data that already walked away.
        scenario.sim.at(max(0.0, start_at - 0.5), place)
    else:
        place()
    total = len(entries)

    sessions: List[DiscoverySession] = [
        DiscoverySession(
            scenario.device(node_id),
            round_config=round_config,
            redundancy_detection=redundancy_detection,
        )
        for node_id in scenario.consumers
    ]

    def recall(session: DiscoverySession) -> float:
        return len(session.received) / total if total else 1.0

    return _drive_sessions(scenario, sessions, mode, recall, sim_cap_s, start_at)


# ----------------------------------------------------------------------
# PDR / MDR
# ----------------------------------------------------------------------
def retrieval_experiment(
    seed: int,
    item: DataItem,
    method: str = "pdr",
    rows: int = 10,
    cols: int = 10,
    redundancy: int = 1,
    round_config: Optional[RoundConfig] = None,
    n_consumers: int = 1,
    mode: str = "single",
    sim_cap_s: float = DEFAULT_SIM_CAP_S,
    scenario: Optional[Scenario] = None,
    start_at: float = 0.0,
) -> ExperimentOutcome:
    """Large-item retrieval on a grid (or a supplied scenario)."""
    if method not in ("pdr", "mdr"):
        raise ConfigurationError(f"method must be pdr or mdr, got {method}")
    if round_config is None:
        # MDR rounds deliver 256 KB chunks whose service time under load
        # far exceeds the metadata-tuned 1 s window; a round that ends
        # while chunks are still in flight re-floods, every cached copy
        # re-serves, and the duplicate traffic snowballs.  Scale the
        # silence window with the number of chunks in flight.
        if method == "pdr":
            round_config = RoundConfig()
        else:
            item_chunks = item.total_chunks
            round_config = RoundConfig(window_s=max(8.0, 0.25 * item_chunks))
    if scenario is None:
        scenario = build_grid_scenario(
            rows=rows,
            cols=cols,
            seed=seed,
            device_config=experiment_device_config(),
            n_consumers=n_consumers,
        )
    def place() -> None:
        distribute_chunks(
            scenario.devices,
            item,
            scenario.workload_rng(),
            redundancy=redundancy,
            exclude=scenario.consumers,
        )

    if start_at > 0:
        scenario.sim.at(max(0.0, start_at - 0.5), place)
    else:
        place()
    total = item.total_chunks

    sessions: List[object] = []
    for node_id in scenario.consumers:
        if method == "pdr":
            sessions.append(
                RetrievalSession(
                    scenario.device(node_id),
                    item.descriptor,
                    total_chunks=total,
                    round_config=round_config,
                )
            )
        else:
            sessions.append(
                MdrSession(
                    scenario.device(node_id),
                    item.descriptor,
                    total_chunks=total,
                    round_config=round_config,
                )
            )

    def recall(session: object) -> float:
        return len(session.have) / total if total else 1.0

    return _drive_sessions(scenario, sessions, mode, recall, sim_cap_s, start_at)
