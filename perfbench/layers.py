"""Per-layer self time, measured from outside the program.

:class:`Tracer` wraps the public entry points of every layer of the stack
(and the callbacks those layers register with the simulator, the medium,
the radio, the face and the timers) in spans.  A span's *self time* is its
duration minus the time of the spans nested inside it, so the self times
of all layers add up to the time spent inside the outermost span.  Work a
layer does in helpers that are not wrapped (message constructors,
counters, predicates...) is charged to the layer that called them.

Nothing under ``src/`` changes: :meth:`Tracer.install` replaces class
attributes and module-level function references, and :meth:`Tracer.remove`
puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

#: Layer names in report order.  ``setup`` is scenario construction and
#: data generation/placement; ``bench`` is the benchmark's own output
#: checks, which run with tracing paused and are left out of coverage.
LAYERS = (
    "sim",
    "net.medium",
    "net.radio",
    "net.faces",
    "net.leaky_bucket",
    "net.reliability",
    "net.topology",
    "node.device",
    "core.discovery",
    "core.lqt",
    "bloom",
    "data.store",
    "core.retrieval",
    "core.cdi",
    "core.assignment",
    "core.mdr",
    "core.consumer",
    "core.rounds",
    "mobility",
    "experiments.runner",
    "experiments.figures",
    "setup",
    "other",
)

#: Module prefix -> layer, for callbacks handed to a registrar.  The
#: longest matching prefix wins.
MODULE_LAYERS = {
    "repro.sim": "sim",
    "repro.net.medium": "net.medium",
    "repro.net.radio": "net.radio",
    "repro.net.faces": "net.faces",
    "repro.net.leaky_bucket": "net.leaky_bucket",
    "repro.net.reliability": "net.reliability",
    "repro.net.topology": "net.topology.read",
    "repro.node": "node.device",
    "repro.core.discovery": "core.discovery",
    "repro.core.lqt": "core.lqt",
    "repro.bloom": "bloom",
    "repro.data.store": "data.store",
    "repro.core.retrieval": "core.retrieval",
    "repro.core.cdi": "core.cdi",
    "repro.core.assignment": "core.assignment",
    "repro.core.mdr": "core.mdr",
    "repro.core.consumer": "core.consumer",
    "repro.core.rounds": "core.rounds",
    "repro.mobility": "mobility",
    "repro.experiments.runner": "experiments.runner",
    "repro.experiments.figures": "experiments.figures",
    "repro.experiments.scenario": "setup",
    "repro.experiments.workload": "setup",
}


def _count(name: str) -> Callable[["Tracer", object], None]:
    def observe(tracer: "Tracer", result: object) -> None:
        tracer.counts[name] += 1

    return observe


def _count_true(total: str, hits: str) -> Callable[["Tracer", object], None]:
    def observe(tracer: "Tracer", result: object) -> None:
        counts = tracer.counts
        counts[total] += 1
        if result:
            counts[hits] += 1

    return observe


def _count_assigned(tracer: "Tracer", result: object) -> None:
    tracer.counts["core.assignment.chunks_assigned"] += sum(
        len(chunks) for chunks in result.values()
    )


#: (module, class or None for a module function, method, layer, observer).
#: An observer sees each call's return value and bumps ``Tracer.counts``.
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str, Optional[Callable]], ...] = (
    ("repro.sim.simulator", "Simulator", "run", "sim", None),
    ("repro.sim.simulator", "Simulator", "cancel", "sim", None),
    ("repro.sim.event", "EventQueue", "push", "sim", _count("sim.queue_ops")),
    ("repro.sim.event", "EventQueue", "pop", "sim", _count("sim.queue_ops")),
    ("repro.sim.event", "EventQueue", "peek_time", "sim", None),
    ("repro.sim.process", "Timer", "start", "sim", None),
    ("repro.sim.process", "Timer", "cancel", "sim", None),
    ("repro.net.medium", "BroadcastMedium", "transmit", "net.medium", None),
    ("repro.net.medium", "BroadcastMedium", "channel_busy", "net.medium", None),
    ("repro.net.medium", "BroadcastMedium", "busy_until", "net.medium", None),
    ("repro.net.medium", "BroadcastMedium", "node_transmitting", "net.medium", None),
    ("repro.net.medium", "BroadcastMedium", "detach", "net.medium", None),
    ("repro.net.radio", "Radio", "send", "net.radio", None),
    ("repro.net.radio", "Radio", "remove", "net.radio", None),
    ("repro.net.radio", "Radio", "shutdown", "net.radio", None),
    ("repro.net.faces", "BroadcastFace", "send", "net.faces", None),
    ("repro.net.faces", "BroadcastFace", "neighbors", "net.faces", None),
    ("repro.net.faces", "BroadcastFace", "shutdown", "net.faces", None),
    ("repro.net.leaky_bucket", "LeakyBucket", "offer", "net.leaky_bucket", None),
    ("repro.net.leaky_bucket", "LeakyBucket", "remove", "net.leaky_bucket", None),
    ("repro.net.leaky_bucket", "LeakyBucket", "flush", "net.leaky_bucket", None),
    ("repro.net.reliability", "ReliabilitySender", "send", "net.reliability",
     _count("net.reliability.first_sends")),
    ("repro.net.reliability", "ReliabilitySender", "frame_transmitted", "net.reliability", None),
    ("repro.net.reliability", "ReliabilitySender", "frame_dropped", "net.reliability", None),
    ("repro.net.reliability", "ReliabilitySender", "ack_received", "net.reliability", None),
    ("repro.net.reliability", "ReliabilitySender", "cancel_frame", "net.reliability", None),
    ("repro.net.reliability", "ReliabilitySender", "cancel_all", "net.reliability", None),
    ("repro.net.reliability", "ReliabilityReceiver", "accept", "net.reliability", None),
    ("repro.net.topology", "Topology", "neighbors", "net.topology.read", None),
    ("repro.net.topology", "Topology", "nodes_within", "net.topology.read", None),
    ("repro.net.topology", "Topology", "within", "net.topology.read", None),
    ("repro.net.topology", "Topology", "in_range", "net.topology.read", None),
    ("repro.net.topology", "Topology", "move", "net.topology.write", None),
    ("repro.net.topology", "Topology", "add_node", "net.topology.write", None),
    ("repro.net.topology", "Topology", "remove_node", "net.topology.write", None),
    ("repro.node.device", "Device", "add_item", "node.device", None),
    ("repro.node.device", "Device", "add_chunk", "node.device", None),
    ("repro.node.device", "Device", "add_metadata", "node.device", None),
    ("repro.node.device", "Device", "cache_metadata", "node.device", None),
    ("repro.node.device", "Device", "cache_chunk", "node.device", None),
    ("repro.node.device", "Device", "may_forward_flood", "node.device", None),
    ("repro.node.device", "Device", "leave", "node.device", None),
    ("repro.core.discovery", "DiscoveryEngine", "issue_query", "core.discovery", None),
    ("repro.core.discovery", "DiscoveryEngine", "handle_query", "core.discovery", None),
    ("repro.core.discovery", "DiscoveryEngine", "handle_response", "core.discovery", None),
    ("repro.core.discovery", "DiscoveryEngine", "on_local_data", "core.discovery", None),
    ("repro.core.lqt", "LingeringQueryTable", "exists", "core.lqt", None),
    ("repro.core.lqt", "LingeringQueryTable", "insert", "core.lqt", None),
    ("repro.core.lqt", "LingeringQueryTable", "get", "core.lqt", None),
    ("repro.core.lqt", "LingeringQueryTable", "remove", "core.lqt", None),
    ("repro.core.lqt", "LingeringQueryTable", "live_entries", "core.lqt", None),
    ("repro.core.lqt", "RecentResponses", "seen_before", "core.lqt", None),
    ("repro.bloom.bloom_filter", "BloomFilter", "insert", "bloom", _count("bloom.ops")),
    ("repro.bloom.bloom_filter", "BloomFilter", "__contains__", "bloom",
     _count_true("bloom.contains", "bloom.hits")),
    ("repro.bloom.bloom_filter", "BloomFilter", "union_update", "bloom", _count("bloom.ops")),
    ("repro.bloom.bloom_filter", "BloomFilter", "copy", "bloom", _count("bloom.ops")),
    ("repro.bloom.bloom_filter", None, "make_round_filter", "bloom", None),
    ("repro.data.store", "DataStore", "insert_metadata", "data.store", None),
    ("repro.data.store", "DataStore", "insert_chunk", "data.store", None),
    ("repro.data.store", "DataStore", "match_metadata", "data.store", None),
    ("repro.data.store", "DataStore", "match_chunks", "data.store", None),
    ("repro.core.retrieval", "CdiEngine", "issue_query", "core.retrieval", None),
    ("repro.core.retrieval", "CdiEngine", "handle_query", "core.retrieval", None),
    ("repro.core.retrieval", "CdiEngine", "handle_response", "core.retrieval", None),
    ("repro.core.retrieval", "ChunkEngine", "request_chunks", "core.retrieval", None),
    ("repro.core.retrieval", "ChunkEngine", "handle_query", "core.retrieval", None),
    ("repro.core.retrieval", "ChunkEngine", "handle_response", "core.retrieval", None),
    ("repro.core.cdi", "CdiTable", "update", "core.cdi",
     _count_true("core.cdi.updates", "core.cdi.improving")),
    ("repro.core.cdi", "CdiTable", "best_entries", "core.cdi", None),
    ("repro.core.cdi", "CdiTable", "best_hop", "core.cdi", None),
    ("repro.core.cdi", "CdiTable", "known_chunks", "core.cdi", None),
    ("repro.core.cdi", "CdiTable", "remove_neighbor", "core.cdi", None),
    ("repro.core.assignment", None, "assign_chunks", "core.assignment", _count_assigned),
    ("repro.core.mdr", "MdrEngine", "issue_round", "core.mdr", None),
    ("repro.core.mdr", "MdrEngine", "handle_query", "core.mdr", None),
    ("repro.core.mdr", "MdrEngine", "handle_response", "core.mdr", None),
    ("repro.core.consumer", "DiscoverySession", "start", "core.consumer", None),
    ("repro.core.consumer", "DiscoverySession", "_on_metadata", "core.consumer", None),
    ("repro.core.consumer", "DiscoverySession", "_on_chunk", "core.consumer", None),
    ("repro.core.consumer", "DiscoverySession", "_on_response", "core.consumer", None),
    ("repro.core.consumer", "RetrievalSession", "start", "core.consumer", None),
    ("repro.core.consumer", "RetrievalSession", "_on_chunk", "core.consumer", None),
    ("repro.core.consumer", "RetrievalSession", "_on_response", "core.consumer", None),
    ("repro.core.consumer", "MdrSession", "start", "core.consumer", None),
    ("repro.core.consumer", "MdrSession", "_on_chunk", "core.consumer", None),
    ("repro.core.consumer", "MdrSession", "_on_response", "core.consumer", None),
    ("repro.core.rounds", "RoundController", "begin_round", "core.rounds", None),
    ("repro.core.rounds", "RoundController", "record_response", "core.rounds", None),
    ("repro.core.rounds", "RoundController", "stop", "core.rounds", None),
    ("repro.mobility.trace", "TracePlayer", "schedule", "mobility", None),
    ("repro.experiments.runner", None, "run_sweep", "experiments.runner", None),
    ("repro.experiments.figures.common", None, "pdd_experiment", "experiments.figures", None),
    ("repro.experiments.figures.common", None, "retrieval_experiment", "experiments.figures", None),
)

#: Entry points that register a callback: (module, class, method, layer,
#: position of the callback in the call's arguments, counting ``self``).
#: The callback is wrapped in a span of the layer its code belongs to.
REGISTRARS: Tuple[Tuple[str, str, str, str, int], ...] = (
    ("repro.sim.simulator", "Simulator", "schedule", "sim", 2),
    ("repro.sim.simulator", "Simulator", "at", "sim", 2),
    ("repro.sim.process", "Timer", "__init__", "sim", 2),
    ("repro.sim.process", "PeriodicTask", "__init__", "sim", 3),
    ("repro.net.medium", "BroadcastMedium", "attach", "net.medium", 2),
    ("repro.net.radio", "Radio", "on_receive", "net.radio", 1),
    ("repro.net.radio", "Radio", "on_sent", "net.radio", 1),
    ("repro.net.faces", "BroadcastFace", "on_receive", "net.faces", 1),
    ("repro.core.rounds", "RoundController", "__init__", "core.rounds", 3),
)

#: Scenario construction and workload generation/placement.
SETUP_FUNCTIONS: Tuple[Tuple[str, str], ...] = (
    ("repro.experiments.scenario", "build_grid_scenario"),
    ("repro.experiments.scenario", "build_campus_scenario"),
    ("repro.mobility.campus", "generate_campus_trace"),
    ("repro.experiments.workload", "generate_metadata"),
    ("repro.experiments.workload", "make_video_item"),
    ("repro.experiments.workload", "distribute_metadata"),
    ("repro.experiments.workload", "distribute_chunks"),
)


class Patcher:
    """Replaces attributes and remembers how to put the originals back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, bool, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        own = vars(owner)
        self._undo.append((owner, name, name in own, own.get(name)))
        setattr(owner, name, value)

    def replace_function(self, module: str, name: str, make: Callable) -> bool:
        """Swap ``module.name`` and every ``repro`` module's reference to it.

        Figure modules import their experiment functions by name, so replacing only the
        defining module's attribute would miss the calls that matter.
        """
        original = getattr(importlib.import_module(module), name, None)
        if original is None:
            return False
        replacement = make(original)
        for loaded_name, loaded in list(sys.modules.items()):
            if not (loaded_name == "repro" or loaded_name.startswith("repro.")):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self.set(loaded, attr, replacement)
        return True

    def restore(self) -> None:
        while self._undo:
            owner, name, had, old = self._undo.pop()
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


def layer_of(callback: object) -> str:
    """The layer a callback's code belongs to, from its defining module."""
    target = getattr(callback, "__func__", callback)
    target = getattr(target, "func", target)  # functools.partial
    return _module_layer(getattr(target, "__module__", None) or "")


@functools.lru_cache(maxsize=None)
def _module_layer(module: str) -> str:
    matches = [
        prefix for prefix in MODULE_LAYERS if module == prefix or module.startswith(prefix + ".")
    ]
    return MODULE_LAYERS[max(matches, key=len)] if matches else "other"


class Tracer:
    """Span-based self-time accounting per layer.

    Attributes:
        self_ns: Layer -> summed self time in nanoseconds.
        calls: Layer -> number of spans closed.
        counts: Work counts from entry-point observers (``bloom.hits``...).
        missing: Entry points named above that the program no longer has.
    """

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self._stack: List[int] = [0]
        self._on = [False]
        self._patcher = Patcher()

    # ------------------------------------------------------------------
    def span(self, fn: Callable, layer: str, observe: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span of ``layer`` (inert while paused)."""
        self_ns = self.self_ns
        calls = self.calls
        self_ns.setdefault(layer, 0)
        calls.setdefault(layer, 0)
        stack = self._stack
        on = self._on
        tracer = self

        if observe is None:
            def wrapper(*args, **kwargs):
                if not on[0]:
                    return fn(*args, **kwargs)
                stack.append(0)
                start = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter_ns() - start
                    self_ns[layer] += elapsed - stack.pop()
                    calls[layer] += 1
                    stack[-1] += elapsed
        else:
            def wrapper(*args, **kwargs):
                if not on[0]:
                    return fn(*args, **kwargs)
                stack.append(0)
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter_ns() - start
                    self_ns[layer] += elapsed - stack.pop()
                    calls[layer] += 1
                    stack[-1] += elapsed
                observe(tracer, result)
                return result

        wrapper._perfbench_layer = layer
        return wrapper

    def bind(self, callback: Callable) -> Callable:
        """A registered callback, spanned under its own layer."""
        target = getattr(callback, "__func__", callback)
        if getattr(target, "_perfbench_layer", None) is not None:
            return callback  # already a span (a wrapped method)
        return self.span(callback, layer_of(callback))

    def _registrar(self, fn: Callable, layer: str, position: int) -> Callable:
        bind = self.bind

        def registrar(*args, **kwargs):
            if len(args) > position:
                args = args[:position] + (bind(args[position]),) + args[position + 1:]
            else:
                name = list(inspect.signature(fn).parameters)[position]
                if name in kwargs:
                    kwargs[name] = bind(kwargs[name])
            return fn(*args, **kwargs)

        return self.span(registrar, layer)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point, registrar and set-up function."""
        patcher = self._patcher
        for module, cls_name, name, layer, observe in ENTRY_POINTS:
            if cls_name is None:
                found = patcher.replace_function(
                    module, name,
                    lambda fn, layer=layer, observe=observe: functools.update_wrapper(
                        self.span(fn, layer, observe), fn
                    ),
                )
            else:
                found = self._wrap_method(module, cls_name, name,
                                          lambda fn, layer=layer, observe=observe:
                                          self.span(fn, layer, observe))
            if not found:
                self.missing.append(f"{module}.{cls_name or ''}.{name}")
        for module, cls_name, name, layer, position in REGISTRARS:
            found = self._wrap_method(module, cls_name, name,
                                      lambda fn, layer=layer, position=position:
                                      self._registrar(fn, layer, position))
            if not found:
                self.missing.append(f"{module}.{cls_name}.{name}")
        for module, name in SETUP_FUNCTIONS:
            if not patcher.replace_function(
                module, name,
                lambda fn: functools.update_wrapper(self.span(fn, "setup"), fn),
            ):
                self.missing.append(f"{module}.{name}")
        for layer in LAYERS:
            self.self_ns.setdefault(layer, 0)
            self.calls.setdefault(layer, 0)
        self._on[0] = True

    def _wrap_method(self, module: str, cls_name: str, name: str, make: Callable) -> bool:
        cls = getattr(importlib.import_module(module), cls_name, None)
        original = getattr(cls, name, None) if cls is not None else None
        if not inspect.isfunction(original):
            return False
        wrapped = functools.update_wrapper(make(original), original)
        self._patcher.set(cls, name, wrapped)
        return True

    def remove(self) -> None:
        """Put every original back and stop recording."""
        self._on[0] = False
        self._patcher.restore()

    # ------------------------------------------------------------------
    def paused(self) -> "_Paused":
        """Context in which spans are inert; its time is booked to ``bench``."""
        return _Paused(self)

    def layer_seconds(self) -> Dict[str, float]:
        """Self time per layer in seconds (topology reads and writes merged
        into ``net.topology``, also kept apart under their own keys)."""
        seconds = {layer: ns / 1e9 for layer, ns in self.self_ns.items()}
        seconds["net.topology"] = seconds.get("net.topology.read", 0.0) + seconds.get(
            "net.topology.write", 0.0
        )
        return seconds

    def layer_calls(self) -> Dict[str, int]:
        calls = dict(self.calls)
        calls["net.topology"] = calls.get("net.topology.read", 0) + calls.get(
            "net.topology.write", 0
        )
        return calls


class _Paused:
    """Stops spans from recording; the paused interval counts as a child of
    the enclosing span so that span's self time excludes it."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._was_on = False
        self._start = 0

    def __enter__(self) -> None:
        self._was_on = self._tracer._on[0]
        self._tracer._on[0] = False
        self._start = perf_counter_ns()

    def __exit__(self, *exc: object) -> None:
        elapsed = perf_counter_ns() - self._start
        tracer = self._tracer
        if self._was_on:
            tracer._stack[-1] += elapsed
            tracer.self_ns["bench"] = tracer.self_ns.get("bench", 0) + elapsed
        tracer._on[0] = self._was_on
