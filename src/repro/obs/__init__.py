"""Observability: structured tracing, metrics and run profiling.

Four complementary views into a running simulation, all designed to cost
(approximately) nothing when switched off:

* :mod:`repro.obs.trace` — a typed event bus the protocol layers publish
  onto (query forwarded, mixedcast merge, Bloom prune, retransmission...),
  with pluggable sinks (in-memory ring buffer, JSONL file writer);
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket histograms
  behind :class:`repro.net.stats.NetworkStats` and the round machinery;
* :mod:`repro.obs.kernelprof` — wall-time / events-per-second / queue-depth
  records of whole simulator runs plus their merged registries, surfaced
  by the runner and ``--metrics``;
* :mod:`repro.obs.memprof` — tracemalloc deltas at experiment phase
  boundaries (``--memory``).

Which layer of the stack the wall time goes to is answered outside the
package, by perfbench's per-layer self time
(``python3 perfbench/run.py --workload W --seed 1 --seconds 10 --trace 1``).

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

:mod:`repro.obs.config` holds :class:`ObsConfig`, the one switch for
every instrument — trace, timeline, fingerprint, metrics and memory — and
its activation stack, the only process-wide observability state;
:mod:`repro.obs.durable` owns the JSONL writer, shard naming, attempt
markers and the record reader the three file artifacts share.
"""

from repro.obs.audit import AuditReport, Violation, audit_events
from repro.obs.config import ActiveObs, ObsConfig
from repro.obs.durable import (
    DurableJsonlWriter,
    JsonlArtifact,
    JsonlRecords,
    resolve_trace_paths,
    shard_path,
)
from repro.obs.kernelprof import KernelProfiler, RunRecord
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.recorder import (
    FlightRecorder,
    capture_network_state,
    flatten_state,
    unflatten_state,
)
from repro.obs.spans import QuerySpan, SpanForest, TraceLoad, build_spans, load_trace
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
    read_jsonl,
)

__all__ = [
    "ActiveObs",
    "AuditReport",
    "DurableJsonlWriter",
    "FlightRecorder",
    "JsonlArtifact",
    "JsonlRecords",
    "ObsConfig",
    "QuerySpan",
    "SpanForest",
    "TimelineError",
    "TimelineLoad",
    "TimelineRun",
    "TraceLoad",
    "Violation",
    "capture_network_state",
    "diff_between",
    "flatten_state",
    "inspect_timeline",
    "load_timeline",
    "reconstruct_at",
    "shard_path",
    "state_at",
    "unflatten_state",
    "audit_events",
    "build_spans",
    "load_trace",
    "resolve_trace_paths",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "KernelProfiler",
    "RunRecord",
    "JsonlSink",
    "ListSink",
    "RingBufferSink",
    "TraceBus",
    "TraceEvent",
    "TraceSink",
    "read_jsonl",
]
