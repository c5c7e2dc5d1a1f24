"""Observability: structured tracing, metrics and run profiling.

Three complementary views into a running simulation, all designed to cost
(approximately) nothing when switched off:

* :mod:`repro.obs.trace` — a typed event bus the protocol layers publish
  onto (query forwarded, mixedcast merge, Bloom prune, retransmission...),
  with pluggable sinks (in-memory ring buffer, JSONL file writer);
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket histograms
  behind :class:`repro.net.stats.NetworkStats` and the round machinery;
* :mod:`repro.obs.kernelprof` — wall-time / events-per-second / queue-depth
  records of whole simulator runs plus per-handler hotspot attribution,
  surfaced by the runner, ``--metrics`` and ``repro profile``.

:mod:`repro.obs.inspect` turns a trace file back into per-node and
per-message-kind summaries (``python -m repro inspect out.jsonl``);
:mod:`repro.obs.spans` reconstructs per-query/per-chunk span trees from
the correlation ids stamped on every event; :mod:`repro.obs.audit`
checks causal protocol invariants over those traces.

:mod:`repro.obs.recorder` is the flight recorder: sim-time sampling of
per-node protocol state into a keyframe+delta JSONL timeline;
:mod:`repro.obs.timeline` reconstructs exact state at any sample time
(``python -m repro inspect tl.jsonl --at 12.5``), diffs instants, and
renders per-node sparkline series.
"""

from repro.obs.audit import AuditReport, Violation, audit_events, audit_extras
from repro.obs.kernelprof import KernelProfiler, RunRecord, active_kernel_profiler
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.recorder import (
    FlightRecorder,
    RecordingConfig,
    TimelineWriter,
    capture_network_state,
    configured_recording,
    flatten_state,
    install_global_recording,
    recording,
    remove_global_recording,
    unflatten_state,
)
from repro.obs.spans import (
    QuerySpan,
    SpanForest,
    TraceLoad,
    build_spans,
    load_trace,
    resolve_trace_paths,
)
from repro.obs.timeline import (
    TimelineError,
    TimelineLoad,
    TimelineRun,
    diff_between,
    inspect_timeline,
    load_timeline,
    reconstruct_at,
    state_at,
)
from repro.obs.trace import (
    JsonlSink,
    ListSink,
    RingBufferSink,
    TraceBus,
    TraceEvent,
    TraceSink,
    global_sink,
    install_global_sink,
    read_jsonl,
    remove_global_sink,
)

__all__ = [
    "AuditReport",
    "FlightRecorder",
    "QuerySpan",
    "RecordingConfig",
    "SpanForest",
    "TimelineError",
    "TimelineLoad",
    "TimelineRun",
    "TimelineWriter",
    "TraceLoad",
    "Violation",
    "capture_network_state",
    "configured_recording",
    "diff_between",
    "flatten_state",
    "inspect_timeline",
    "install_global_recording",
    "load_timeline",
    "reconstruct_at",
    "recording",
    "remove_global_recording",
    "state_at",
    "unflatten_state",
    "audit_events",
    "audit_extras",
    "build_spans",
    "load_trace",
    "resolve_trace_paths",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "KernelProfiler",
    "RunRecord",
    "active_kernel_profiler",
    "JsonlSink",
    "ListSink",
    "RingBufferSink",
    "TraceBus",
    "TraceEvent",
    "TraceSink",
    "global_sink",
    "install_global_sink",
    "read_jsonl",
    "remove_global_sink",
]
