"""One observability config: which instruments a run turns on, and how.

:class:`ObsConfig` is a frozen value naming every instrument of a
campaign:

* ``trace`` — a JSONL event-trace path (:mod:`repro.obs.trace`);
* ``timeline`` — the flight recorder (:mod:`repro.obs.recorder`):
  ``True`` keeps the keyframe+delta records in memory on each
  :class:`~repro.obs.recorder.FlightRecorder`, a path streams them
  there; ``timeline_interval`` and ``keyframe_every`` set its cadence;
* ``fingerprint`` — the determinism fingerprint
  (:mod:`repro.obs.fingerprint`): ``True`` keeps checkpoint records in
  memory, a path streams them there; ``fingerprint_every`` sets the
  checkpoint cadence and ``fingerprint_detail`` an ``(lo, hi)`` window
  of per-event records;
* ``metrics`` — the run profiler (:mod:`repro.obs.kernelprof`): one
  record per simulator run plus the merged metrics registry of every
  simulator built under the activation;
* ``memory`` — tracemalloc deltas at experiment phase boundaries
  (:mod:`repro.obs.memprof`).

Every value is validated once, when the config is built: a zero or
negative cadence, a bad detail window, or a cadence given without its
instrument raises :class:`~repro.errors.ConfigurationError` instead of
being silently ignored.  The config is resolved once at the edge (the
figure CLI, ``repro bench``, each ``repro diverge`` side) and nowhere
else — no environment variable turns an instrument on.

``with config.activate() as obs:`` makes the config the top of one
process-wide stack — the only process-wide observability state.  It
shadows whatever config was active before and never merges with it.
Scenario builders, simulators, phase hooks and the trial runner ask
:func:`active` whether an instrument is on.  A parallel campaign hands
the config to its workers as the pool initarg (an in-memory timeline or
fingerprint, and memory telemetry, cannot cross, so they are refused),
and worker ``k`` activates :meth:`ObsConfig.for_worker` — every file
artifact re-pointed at its shard ``k``
(:func:`repro.obs.durable.shard_path`).
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.obs.durable import DurableJsonlWriter, JsonlArtifact, shard_path
from repro.obs.kernelprof import KernelProfiler
from repro.obs.memprof import MemoryTelemetry
from repro.obs.trace import JsonlSink

#: Default sim-time seconds between timeline samples.
DEFAULT_INTERVAL_S = 1.0

#: Default timeline keyframe cadence: every K-th sample is a full snapshot.
DEFAULT_KEYFRAME_EVERY = 10

#: Default events per fingerprint checkpoint record.
DEFAULT_CHECKPOINT_EVERY = 512

#: The file-backed instruments, in the order artifacts are listed.
_FILE_INSTRUMENTS = ("trace", "timeline", "fingerprint")


@dataclass(frozen=True)
class ObsConfig:
    """Which observability instruments are on, validated once.

    Paths may be ``str`` or any ``os.PathLike``; they are stored as
    ``str``.

    Attributes:
        trace: JSONL event-trace path, or ``None``.
        timeline: ``True`` (record in memory), a JSONL path, or ``None``.
        timeline_interval: Sim seconds between timeline samples
            (``None``: :data:`DEFAULT_INTERVAL_S`).
        keyframe_every: Full keyframe every K timeline samples
            (``None``: :data:`DEFAULT_KEYFRAME_EVERY`).
        fingerprint: ``True`` (records in memory), a JSONL path, or
            ``None``.
        fingerprint_every: Events per checkpoint record
            (``None``: :data:`DEFAULT_CHECKPOINT_EVERY`).
        fingerprint_detail: Optional inclusive, 1-based ``(lo, hi)``
            event-index window written as full per-event records.
        metrics: Profile every simulator run and merge their registries.
        memory: Record tracemalloc deltas at phase boundaries.

    Raises:
        ConfigurationError: on a non-positive cadence, a bad detail
            window, or a cadence given without its instrument.
    """

    trace: Optional[str] = None
    timeline: Union[bool, str, None] = None
    timeline_interval: Optional[float] = None
    keyframe_every: Optional[int] = None
    fingerprint: Union[bool, str, None] = None
    fingerprint_every: Optional[int] = None
    fingerprint_detail: Optional[Tuple[int, int]] = None
    metrics: bool = False
    memory: bool = False

    def __post_init__(self) -> None:
        for name in _FILE_INSTRUMENTS:
            value = getattr(self, name)
            if value is not None and not isinstance(value, bool):
                object.__setattr__(self, name, os.fspath(value))
        for name, instrument in (
            ("timeline_interval", "timeline"),
            ("keyframe_every", "timeline"),
            ("fingerprint_every", "fingerprint"),
            ("fingerprint_detail", "fingerprint"),
        ):
            if getattr(self, name) is not None and not getattr(self, instrument):
                flag = name.replace("_", "-")
                raise ConfigurationError(
                    f"{name} is set but no {instrument} is recorded "
                    f"(--{flag} needs --{instrument})"
                )
        if self.timeline_interval is not None and not self.timeline_interval > 0:
            raise ConfigurationError(
                f"timeline interval must be a positive number of sim "
                f"seconds, got {self.timeline_interval!r}"
            )
        for name in ("keyframe_every", "fingerprint_every"):
            value = getattr(self, name)
            if value is not None and int(value) < 1:
                raise ConfigurationError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        if self.fingerprint_detail is not None:
            lo, hi = (int(bound) for bound in self.fingerprint_detail)
            if lo < 1 or hi < lo:
                raise ConfigurationError(
                    f"fingerprint detail window must satisfy 1 <= lo <= hi, "
                    f"got {self.fingerprint_detail!r}"
                )
            object.__setattr__(self, "fingerprint_detail", (lo, hi))

    @property
    def interval_s(self) -> float:
        """Sim seconds between timeline samples."""
        if self.timeline_interval is None:
            return DEFAULT_INTERVAL_S
        return float(self.timeline_interval)

    @property
    def keyframe_cadence(self) -> int:
        """Timeline keyframe cadence."""
        if self.keyframe_every is None:
            return DEFAULT_KEYFRAME_EVERY
        return int(self.keyframe_every)

    @property
    def checkpoint_every(self) -> int:
        """Events per fingerprint checkpoint record."""
        if self.fingerprint_every is None:
            return DEFAULT_CHECKPOINT_EVERY
        return int(self.fingerprint_every)

    def artifacts(self) -> List[Tuple[str, str]]:
        """``(instrument, path)`` of every file-backed instrument."""
        found = []
        for instrument in _FILE_INSTRUMENTS:
            value = getattr(self, instrument)
            if isinstance(value, str):
                found.append((instrument, value))
        return found

    def for_worker(self, index: int) -> "ObsConfig":
        """This config with every artifact path moved to shard ``index``."""
        return dataclasses.replace(
            self,
            **{name: shard_path(path, index) for name, path in self.artifacts()},
        )

    @contextmanager
    def activate(self) -> Iterator["ActiveObs"]:
        """Make this config the process's active one for the block."""
        obs = _push(self)
        try:
            yield obs
        finally:
            _STACK.remove(obs)
            obs.close()


class ActiveObs:
    """One activation of an :class:`ObsConfig` in this process.

    Attributes:
        config: The activated config.
        artifacts: Instrument name -> :class:`JsonlArtifact` for every
            file-backed instrument.
        trace_sink: The open JSONL trace sink, attached to every
            simulator built while this activation is on top.
        streams: In-memory fingerprinters created under this activation
            (creation order — the trial order of an in-process run).
        profiler: Run records and registries of the simulators built
            under this activation (recording only when ``metrics`` is on).
        memory: Phase-boundary memory telemetry (recording only when
            ``memory`` is on).
    """

    def __init__(self, config: ObsConfig) -> None:
        self.config = config
        self.artifacts: Dict[str, JsonlArtifact] = {
            name: JsonlArtifact(
                path, JsonlSink if name == "trace" else DurableJsonlWriter
            )
            for name, path in config.artifacts()
        }
        self.trace_sink: Optional[JsonlSink] = None
        self.streams: List[object] = []
        self.profiler = KernelProfiler()
        self.memory = MemoryTelemetry()

    def writer(self, instrument: str) -> Optional[DurableJsonlWriter]:
        """The instrument's (lazily opened) writer; ``None`` in memory."""
        artifact = self.artifacts.get(instrument)
        return artifact.writer() if artifact is not None else None

    def mark_attempt(self, outcome: str, label: str) -> None:
        """End one trial attempt on every artifact this process has open."""
        for artifact in self.artifacts.values():
            artifact.mark_attempt(outcome, label)

    def close(self) -> None:
        for artifact in self.artifacts.values():
            artifact.close()
        self.memory.stop()


_STACK: List[ActiveObs] = []


def _push(config: ObsConfig) -> ActiveObs:
    obs = ActiveObs(config)
    _STACK.append(obs)
    if config.trace is not None:
        # Opened eagerly (after the push, so its provenance header names
        # the active fingerprint): an unwritable path fails up front.
        try:
            obs.trace_sink = obs.writer("trace")
        except BaseException:
            _STACK.remove(obs)
            raise
    if config.memory:
        obs.memory.start()
    return obs


def active(instrument: Optional[str] = None) -> Optional[ActiveObs]:
    """The active activation — or, given an instrument, only if it is on."""
    obs = _STACK[-1] if _STACK else None
    if obs is None or instrument is None or getattr(obs.config, instrument):
        return obs
    return None


def enter_worker(config: Optional[ObsConfig], index: Optional[int]) -> None:
    """Replace a forked worker's inherited stack with its own activation.

    The inherited activations are dropped, never closed: under fork their
    buffers belong to the parent.  ``index`` (when the campaign writes
    files) re-points every artifact at this worker's shard; the worker
    keeps the activation for its whole life.
    """
    _STACK.clear()
    if config is not None:
        _push(config if index is None else config.for_worker(index))
