"""The benchmark's workloads and the capture of their outputs.

Each workload calls the program's public experiment functions exactly as
the figure modules do, serially (``jobs=1``).  A run executes a workload
on ``instances`` seeds derived from the benchmark's ``--seed``, so the
reported means rest on several independent inputs.

:class:`Capture` wraps the figure modules' references to
``pdd_experiment``/``retrieval_experiment``: it checks every returned
scenario with ``validation.check_all``, reads the deterministic work
counters, and drops the scenario before the next experiment starts.
"""

from __future__ import annotations

import gc
import hashlib
import inspect
import json
import random
import statistics
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional

from perfbench.layers import SETUP_FUNCTIONS, Patcher, Tracer
from perfbench.probe import SpeedProbe

MB = 1024 * 1024


def _pdd_campus(seeds: List[int], small: bool) -> None:
    from repro.experiments.figures import fig9_10_mobility_pdd as fig

    if small:
        fig.run_both_locations(scales=(2.0,), seeds=seeds, metadata_count=300, jobs=1)
    else:
        fig.run_both_locations(scales=(0.5, 2.0), seeds=seeds, jobs=1)


def _pdd_city(seeds: List[int], small: bool) -> None:
    from repro.core.rounds import RoundConfig
    from repro.experiments.figures import common

    size, count = (8, 256) if small else (32, 2048)
    for seed in seeds:
        common.pdd_experiment(
            seed,
            rows=size,
            cols=size,
            metadata_count=count,
            round_config=RoundConfig(max_rounds=2),
            sim_cap_s=120,
        )


def _retrieval_grid(seeds: List[int], small: bool) -> None:
    from repro.experiments.figures import fig13_14_redundancy as fig

    if small:
        fig.run(redundancies=(1,), seeds=seeds, item_size=2 * MB, rows_cols=5, jobs=1)
    else:
        fig.run(redundancies=(1, 3), seeds=seeds, jobs=1)


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Attributes:
        instances: Seeds per run; the end-to-end metrics are means over
            them, which keeps seed-to-seed spread inside the bounds.
        run: Executes the workload on the given seeds.
    """

    name: str
    instances: int
    run: Callable[[List[int], bool], None]

    def seeds(self, seed: int, small: bool = False) -> List[int]:
        """The instance seeds a benchmark seed stands for (deterministic)."""
        rng = random.Random(f"{self.name}:{seed}")
        return [rng.randrange(1, 2**31) for _ in range(1 if small else self.instances)]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("pdd_campus", 8, _pdd_campus),
        Workload("pdd_city", 2, _pdd_city),
        Workload("retrieval_grid", 6, _retrieval_grid),
    )
}


class Capture:
    """Records every experiment's outcome while a workload runs.

    Attributes:
        records: One dict per experiment: sessions, counters, violations,
            and its host times: ``host_s`` (without set-up), ``setup_s``
            (set-up since the previous experiment) and ``speed``, the
            probe's scale factor over that stretch.
        excluded_s: Host time spent in this class's own checks, which the
            benchmark subtracts from the workload's wall time.
        setup_s: Host time in the set-up functions (only when timed).
    """

    def __init__(
        self, probe: SpeedProbe, tracer: Optional[Tracer] = None, time_setup: bool = True
    ) -> None:
        from repro.experiments import workload

        self.records: List[dict] = []
        self.excluded_s = 0.0
        self.setup_s = 0.0
        self._probe = probe
        self._window_start = perf_counter()
        self._tracer = tracer
        self._time_setup = time_setup
        self._setup_mark = 0.0
        self._setup_depth = 0
        self._devices: List[object] = []
        self._generate_metadata = workload.generate_metadata
        self._entry_bytes: Dict[int, int] = {}
        self._patcher = Patcher()

    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro.node.device import Device

        patcher = self._patcher
        for name, kind in (("pdd_experiment", "pdd"), ("retrieval_experiment", "retrieval")):
            patcher.replace_function(
                "repro.experiments.figures.common",
                name,
                lambda fn, kind=kind: self._capturing(fn, kind),
            )
        device_init = Device.__init__
        devices = self._devices

        def init(device, *args, **kwargs):
            device_init(device, *args, **kwargs)
            devices.append(device)

        patcher.set(Device, "__init__", init)
        if self._time_setup:
            for module, name in SETUP_FUNCTIONS:
                patcher.replace_function(module, name, self._timed_setup)

    def remove(self) -> None:
        self._patcher.restore()

    # ------------------------------------------------------------------
    def _timed_setup(self, fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            if self._setup_depth:
                return fn(*args, **kwargs)
            self._setup_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.setup_s += perf_counter() - start
                self._setup_depth = 0

        return timed

    def _capturing(self, fn: Callable, kind: str) -> Callable:
        signature = inspect.signature(fn)

        def captured(*args, **kwargs):
            # Free the previous experiment's cyclic garbage first, so the
            # peak RSS is one experiment's footprint rather than an
            # accident of when the collector last ran.
            start = perf_counter()
            with self._paused():
                gc.collect()
            setup_before = self.setup_s
            begin = perf_counter()
            self.excluded_s += begin - start
            outcome = fn(*args, **kwargs)
            end = perf_counter()
            with self._paused():
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record = self._record(kind, bound.arguments, outcome)
                record["host_s"] = end - begin - (self.setup_s - setup_before)
                record["setup_s"] = self.setup_s - self._setup_mark
                record["speed"] = self._probe.factor(self._window_start, end)
                self._setup_mark = self.setup_s
                self.records.append(record)
            self._window_start = perf_counter()
            self.excluded_s += self._window_start - end
            return outcome

        return captured

    def _paused(self):
        return self._tracer.paused() if self._tracer is not None else nullcontext()

    def _record(self, kind: str, arguments: dict, outcome) -> dict:
        from repro.experiments.validation import check_all

        seed = arguments["seed"]
        scenario = outcome.scenario
        if kind == "pdd":
            useful = self._metadata_bytes(arguments["metadata_count"])
            violations = check_all(scenario)
        else:
            item = arguments["item"]
            useful = item.size
            violations = check_all(scenario, item.descriptor)
        stats = scenario.stats
        devices = self._devices
        record = {
            "kind": kind,
            "seed": seed,
            "sessions": [
                {
                    "node": consumer.node_id,
                    "recall": consumer.recall,
                    "latency": consumer.result.latency,
                    "answered": consumer.result.last_new_at is not None,
                    "launched": consumer.launched,
                    "bytes": consumer.overhead_bytes,
                    "useful_bytes": consumer.recall * useful,
                }
                for consumer in outcome.consumers
            ],
            "bytes_sent": outcome.total_overhead_bytes,
            "violations": violations,
            "counts": {
                "sim.events": scenario.sim.events_processed,
                "sim.peak_queue_depth": scenario.sim.peak_queue_depth,
                "net.frames_sent": stats.frames_sent,
                "net.bytes_sent": stats.bytes_sent,
                "net.frames_delivered": stats.frames_delivered,
                "net.frames_lost_collision": stats.frames_lost_collision,
                "net.frames_lost_random": stats.frames_lost_random,
                "net.frames_lost_busy_receiver": stats.frames_lost_busy_receiver,
                "net.frames_dropped_buffer": stats.frames_dropped_buffer,
                "net.retransmitted_frames": sum(
                    d.face.sender.retransmitted_frames for d in devices
                ),
                "net.abandoned_frames": sum(d.face.sender.abandoned_frames for d in devices),
                "net.bucket_dropped_frames": sum(d.face.bucket.dropped_frames for d in devices),
                "bytes_by_kind": dict(sorted(stats.bytes_by_kind.items())),
            },
        }
        devices.clear()
        return record

    def _metadata_bytes(self, count: int) -> int:
        """Wire bytes of the ``count`` entries a PDD consumer should find."""
        if count not in self._entry_bytes:
            entries = self._generate_metadata(count)
            self._entry_bytes[count] = sum(entry.wire_size() for entry in entries)
        return self._entry_bytes[count]


# ----------------------------------------------------------------------
# Derived outputs
# ----------------------------------------------------------------------
def by_instance(records: List[dict]) -> List[List[dict]]:
    """Records grouped by instance seed, in first-seen order."""
    groups: Dict[int, List[dict]] = {}
    for record in records:
        groups.setdefault(record["seed"], []).append(record)
    return list(groups.values())


def sessions(records: List[dict]) -> List[dict]:
    return [session for record in records for session in record["sessions"]]


def digest(records: List[dict]) -> str:
    """Hash of the deterministic outputs: per-session recall, latency and
    bytes, plus the event count, of every experiment in order."""
    view = [
        [
            record["kind"],
            record["seed"],
            record["counts"]["sim.events"],
            record["bytes_sent"],
            [
                [s["node"], repr(s["recall"]), repr(s["latency"]), s["bytes"], s["launched"]]
                for s in record["sessions"]
            ],
        ]
        for record in records
    ]
    return hashlib.sha256(json.dumps(view).encode()).hexdigest()


def totals(records: List[dict]) -> Dict[str, object]:
    """Work counts summed over experiments (peak depth: the maximum)."""
    summed: Dict[str, object] = {}
    by_kind: Dict[str, int] = {}
    for record in records:
        for key, value in record["counts"].items():
            if key == "bytes_by_kind":
                for kind, size in value.items():
                    by_kind[kind] = by_kind.get(kind, 0) + size
            elif key == "sim.peak_queue_depth":
                summed[key] = max(summed.get(key, 0), value)
            else:
                summed[key] = summed.get(key, 0) + value
    summed["bytes_by_kind"] = dict(sorted(by_kind.items()))
    return summed


def failed_sessions(records: List[dict]) -> int:
    """Sessions that never launched or whose scenario broke an invariant."""
    return sum(
        1
        for record in records
        for session in record["sessions"]
        if record["violations"] or not session["launched"]
    )


def outputs_valid(records: List[dict]) -> bool:
    """Every experiment ran, kept its invariants and reports sane values."""
    return bool(records) and all(
        not record["violations"]
        and record["counts"]["sim.events"] > 0
        and all(0.0 <= s["recall"] <= 1.0 and s["latency"] >= 0.0 for s in record["sessions"])
        for record in records
    )


def simulated_metrics(records: List[dict]) -> Dict[str, float]:
    """The deterministic end-to-end metrics of one set of experiments."""
    all_sessions = sessions(records)
    answered = [s["latency"] for s in all_sessions if s["answered"]]
    useful = sum(s["useful_bytes"] for s in all_sessions)
    sent = sum(record["bytes_sent"] for record in records)
    return {
        "recall": statistics.fmean(s["recall"] for s in all_sessions),
        "sim_latency_s": statistics.fmean(answered) if answered else 0.0,
        "overhead_ratio": sent / useful if useful else 0.0,
        "incomplete_ratio": sum(1 for s in all_sessions if s["recall"] < 1.0)
        / len(all_sessions),
    }
