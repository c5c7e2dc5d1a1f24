"""Multi-seed trial running, parallel sweeps and table rendering.

The paper averages each point over 5 runs (§VI-A); experiment modules
define a per-seed trial function and hand it to :func:`run_trials`, or a
per-(point, seed) function plus a parameter grid to :func:`run_sweep`.
Benchmarks honour ``REPRO_SEEDS`` / ``REPRO_SCALE`` environment knobs so
full-fidelity runs and quick CI runs share the same code.

Parallelism
-----------

Trials are embarrassingly parallel — each builds its own simulator and
RNGs from its seed — so both entry points take a ``jobs`` parameter
(default: the ``REPRO_JOBS`` env knob, itself defaulting to 1) backed by
:class:`concurrent.futures.ProcessPoolExecutor`.  ``jobs=1`` keeps
everything on the caller's thread, exactly as before.  With ``jobs>1``:

* results are reassembled in submission order, so tables are
  bit-identical to a serial run of the same seeds regardless of worker
  completion order;
* each trial runs under a per-trial wall-clock deadline (``timeout_s`` /
  ``REPRO_TRIAL_TIMEOUT``) enforced with ``SIGALRM`` inside the worker;
* a trial that raises, times out, or kills its worker process is retried
  once (``retries``) and then surfaced as a structured
  :class:`~repro.experiments.metrics.TrialFailure` instead of aborting
  the campaign.  After a worker *process* death the retry round runs
  each remaining trial in its own single-worker pool, so a
  deterministically crashing trial only takes itself down;
* observability survives the fan-out: workers return merged
  :class:`~repro.obs.metrics.MetricsRegistry` snapshots and
  :class:`~repro.obs.kernelprof.KernelProfiler` run-record snapshots,
  which the parent folds into its active profiler / registry collector;
* process-wide JSONL trace sinks are sharded — worker ``k`` writes
  ``trace.k.jsonl`` next to the parent's ``trace.jsonl``.  Other sink
  types cannot cross a process boundary and raise
  :class:`~repro.errors.ConfigurationError` telling you to use
  ``jobs=1``.

Campaign store
--------------

Both entry points take ``store=`` (a path or
:class:`~repro.experiments.store.CampaignStore`; default: the
``REPRO_STORE`` env knob, CLI ``--store``) and ``resume=`` knobs.  With a
store, every completed trial is durably recorded under its content
address and — with ``resume=True``, the default — trials whose digest is
already present are *skipped*: their cached values slot into the
reassembly exactly where execution would have put them, so the final
tables are bit-identical to an uninterrupted run.  A campaign killed
mid-flight (even ``SIGKILL``) resumes from what it finished; in-flight
trials simply re-run.  Worker-shard hygiene rides along: each trial
attempt ends with a commit/abort marker on the worker's JSONL shards,
and after the campaign the shards are sanitized so events from failed or
abandoned attempts never double-count in merged spans/timelines.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.util
import os
import signal
import tempfile
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError, ReproError
from repro.experiments.metrics import AggregateMetrics, TrialFailure, TrialMetrics
from repro.experiments.store import (
    CampaignStore,
    resolve_store,
    task_digest,
    trial_id,
)
from repro.obs import fingerprint as obs_fingerprint
from repro.obs import kernelprof as obs_kernelprof
from repro.obs import memprof as obs_memprof
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.obs.audit import audit_extras
from repro.obs.metrics import MetricsRegistry, _clear_collectors, collect_registries

#: Per the paper: "results are averaged over 5 runs".
DEFAULT_SEEDS = (1, 2, 3, 4, 5)

TrialFn = Callable[[int], TrialMetrics]
SweepTrialFn = Callable[[Any, int], Any]


class TrialTimeout(ReproError):
    """A trial exceeded its per-trial wall-clock deadline."""


# ----------------------------------------------------------------------
# Environment knobs
# ----------------------------------------------------------------------
def configured_seeds(default: Sequence[int] = DEFAULT_SEEDS) -> List[int]:
    """Seeds to use, honouring the ``REPRO_SEEDS`` env var (a count).

    Raises:
        ConfigurationError: when ``REPRO_SEEDS`` is not a positive integer.
    """
    raw = os.environ.get("REPRO_SEEDS")
    if not raw:
        return list(default)
    try:
        count = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_SEEDS must be a positive integer (a seed count), "
            f"got {raw!r}"
        ) from None
    if count < 1:
        raise ConfigurationError(
            f"REPRO_SEEDS must be a positive integer (a seed count), "
            f"got {raw!r}"
        )
    return list(range(1, count + 1))


def scale_factor(default: float = 1.0) -> float:
    """Workload scale, honouring ``REPRO_SCALE`` (1.0 = paper scale).

    Benchmarks default to a reduced scale so the suite completes quickly;
    set ``REPRO_SCALE=1`` for paper-scale runs.

    Raises:
        ConfigurationError: when ``REPRO_SCALE`` is not a positive number.
    """
    raw = os.environ.get("REPRO_SCALE")
    if not raw:
        return default
    try:
        scale = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_SCALE must be a positive number, got {raw!r}"
        ) from None
    if scale <= 0:
        raise ConfigurationError(
            f"REPRO_SCALE must be a positive number, got {raw!r}"
        )
    return scale


def configured_jobs(default: int = 1) -> int:
    """Worker processes per campaign, honouring ``REPRO_JOBS``.

    ``1`` (the default) runs everything in-process; ``0`` or ``auto``
    means one worker per CPU core.

    Raises:
        ConfigurationError: when ``REPRO_JOBS`` is not a non-negative
            integer or ``auto``.
    """
    raw = os.environ.get("REPRO_JOBS")
    if not raw:
        return default
    if raw.strip().lower() == "auto":
        return os.cpu_count() or 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_JOBS must be a non-negative integer or 'auto', got {raw!r}"
        ) from None
    if jobs < 0:
        raise ConfigurationError(
            f"REPRO_JOBS must be a non-negative integer or 'auto', got {raw!r}"
        )
    return jobs if jobs > 0 else (os.cpu_count() or 1)


def configured_trial_timeout(default: Optional[float] = None) -> Optional[float]:
    """Per-trial wall-clock deadline in seconds (``REPRO_TRIAL_TIMEOUT``).

    ``None`` (unset/empty) disables the deadline.  Only enforced for
    parallel campaigns (``jobs > 1``) on platforms with ``SIGALRM``.

    Raises:
        ConfigurationError: when ``REPRO_TRIAL_TIMEOUT`` is not a
            positive number.
    """
    raw = os.environ.get("REPRO_TRIAL_TIMEOUT")
    if not raw:
        return default
    try:
        timeout = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_TRIAL_TIMEOUT must be a positive number of seconds, "
            f"got {raw!r}"
        ) from None
    if timeout <= 0:
        raise ConfigurationError(
            f"REPRO_TRIAL_TIMEOUT must be a positive number of seconds, "
            f"got {raw!r}"
        )
    return timeout


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_init(
    shard_bases: Sequence[str],
    shard_counter: Any,
    timeline_shards: bool = False,
    fingerprint_shards: bool = False,
) -> None:
    """Per-worker-process setup.

    Forked workers inherit the parent's process-wide observability state:
    global trace sinks (whose file handles are shared with the parent),
    the active profiler and its labels, memory telemetry, open registry
    collectors, and open recorder collectors.  All of it belongs to the
    parent, so drop it — workers report back through their return values
    instead — then open this worker's own JSONL trace shards and re-point
    any configured timeline recording at this worker's shard.
    """
    for sink in obs_trace.global_sinks():
        # Remove without closing: under fork the file object is shared
        # with the parent, and closing here would flush its buffer twice.
        obs_trace.remove_global_sink(sink)
    obs_kernelprof._clear_active()
    obs_memprof._clear_active()
    _clear_collectors()
    obs_recorder._clear_recorder_collectors()
    if shard_bases or timeline_shards or fingerprint_shards:
        with shard_counter.get_lock():
            index = shard_counter.value
            shard_counter.value += 1
        for base in shard_bases:
            stem, ext = os.path.splitext(base)
            sink = obs_trace.JsonlSink(f"{stem}.{index}{ext}")
            obs_trace.install_global_sink(sink)
            # Workers exit through os._exit (multiprocessing skips normal
            # interpreter shutdown), so buffered tail events would be lost
            # without an explicit finalizer.  (TimelineWriter registers its
            # own finalizer when the recording opens its shard.)
            multiprocessing.util.Finalize(sink, sink.close, exitpriority=10)
        if timeline_shards:
            obs_recorder.reshard_for_worker(index)
        if fingerprint_shards:
            # The inherited config's writer (if the parent already opened
            # one) is dropped, not closed — its buffer belongs to the
            # parent (pid-guarded, like trace sinks under fork).
            obs_fingerprint.reshard_for_worker(index)


def _audited_call(trial: Callable[..., Any], args: Tuple[Any, ...]) -> Any:
    """Run one trial; wire tracing/recording summaries into its extras.

    When a process-wide trace sink is active (CLI ``--trace``), the
    trial's events are also captured in memory and run through the
    :mod:`repro.obs.audit` invariants; the per-invariant violation counts
    land in ``TrialMetrics.extras["audit"]`` so they surface as
    ``violations`` / ``audit_<invariant>`` columns in the figure tables.
    When a timeline recording is configured (``timeline=`` knob, CLI
    ``--timeline`` or ``REPRO_TIMELINE``), the flight recorders the
    trial's scenarios attach are collected and their merged series summary
    lands in ``TrialMetrics.extras["timeline"]``.  Campaigns with neither
    skip all of this.
    """
    tracing = bool(obs_trace.global_sinks())
    recording = obs_recorder.configured_recording() is not None
    if not tracing and not recording:
        return trial(*args)
    capture: Optional[obs_trace.ListSink] = None
    if tracing:
        capture = obs_trace.ListSink()
        obs_trace.install_global_sink(capture)
    try:
        with obs_recorder.collect_recorders() as recorders:
            result = trial(*args)
    finally:
        if capture is not None:
            obs_trace.remove_global_sink(capture)
    if isinstance(result, TrialMetrics):
        if capture is not None:
            result.extras["audit"] = audit_extras(
                [event.to_json_dict() for event in capture.events]
            )
        if recorders:
            result.extras["timeline"] = obs_recorder.merge_summaries(
                [recorder.summary() for recorder in recorders]
            )
    return result


def _mark_attempt(outcome: str, label: str) -> None:
    """End one trial attempt on every open JSONL artifact of this worker.

    Writes ``{"attempt": "commit"|"abort", "label": ...}`` to the
    worker's trace shards and to the timeline/fingerprint writers *if
    they are already open* (a marker must never force an idle lazy shard
    into existence), then flushes — so once an attempt commits, its
    events survive the worker being killed during a *later* trial.
    Post-campaign sanitization keeps exactly the committed segments:
    aborted attempts, duplicate commits of the same label, and the
    unterminated tail a killed worker leaves are all dropped, which is
    what stops a retried trial's abandoned first attempt from
    double-counting in merged spans and timelines.
    """
    doc = {"attempt": outcome, "label": label}
    for sink in obs_trace.global_sinks():
        if isinstance(sink, obs_trace.JsonlSink):
            sink.write_doc(doc)
            sink.flush()
    recording = obs_recorder.configured_recording()
    if recording is not None:
        writer = recording.current_writer()
        if writer is not None:
            writer.write_doc(doc)
            writer.flush()
    fingerprint = obs_fingerprint.configured_fingerprint()
    if fingerprint is not None:
        writer = fingerprint.current_writer()
        if writer is not None:
            writer.write_doc(doc)
            writer.flush()


@contextmanager
def _trial_deadline(timeout_s: Optional[float], label: str) -> Iterator[None]:
    """Raise :class:`TrialTimeout` if the block runs longer than allowed.

    Armed with ``signal.setitimer`` (not the integer-only
    ``signal.alarm``), so sub-second deadlines like ``timeout_s=0.5``
    fire at 0.5s instead of being truncated to "never".  ``None``
    disables the deadline; a non-positive value is a configuration error,
    never a silent no-op (``alarm(0)``-style "0 disarms the timer"
    semantics would make a mistyped timeout vanish without a trace).

    Uses ``SIGALRM``, which only exists on Unix and only works on the
    main thread — both true inside a ProcessPoolExecutor worker.  On
    platforms without it the deadline is silently unenforced.
    """
    if timeout_s is not None and timeout_s <= 0:
        raise ConfigurationError(
            f"trial timeout must be a positive number of seconds "
            f"(or None to disable), got {timeout_s!r}"
        )
    if timeout_s is None or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _on_alarm(signum: int, frame: Any) -> None:
        raise TrialTimeout(
            f"trial {label!r} exceeded its {timeout_s:g}s deadline"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _run_task_in_worker(
    trial: Callable[..., Any],
    args: Tuple[Any, ...],
    label: str,
    timeout_s: Optional[float],
) -> Tuple[Any, Dict[str, Dict[str, object]], Dict[str, object]]:
    """Execute one trial out-of-process and package its observability.

    Returns ``(value, metrics_snapshot, kernel_snapshot)`` where the
    metrics snapshot merges every registry the trial's simulators created
    and the kernel snapshot carries this trial's labelled run records for
    the parent to fold into its own :class:`KernelProfiler`.
    """
    kernel = obs_kernelprof.KernelProfiler()
    try:
        with collect_registries() as registries:
            with kernel.activate(), obs_kernelprof.label(label):
                with _trial_deadline(timeout_s, label):
                    value = _audited_call(trial, args)
    except BaseException:
        # The attempt's partial shard events must not survive the merge;
        # a killed worker writes no marker, leaving an unterminated tail
        # that sanitization drops the same way.
        _mark_attempt("abort", label)
        raise
    _mark_attempt("commit", label)
    merged = MetricsRegistry()
    for registry in registries:
        merged.merge_snapshot(registry.snapshot())
    return value, merged.snapshot(), kernel.snapshot()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Task:
    """One (trial, args) unit of a campaign, keyed for reassembly."""

    key: int
    seed: int
    label: str
    args: Tuple[Any, ...]


def _pool_context() -> Any:
    """Fork when available: cheap, and inherits imported trial modules."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _plan_trace_shards(context: Any) -> List[str]:
    """Decide how process-wide trace sinks behave under a fan-out.

    JSONL sinks shard (worker ``k`` writes ``<stem>.k<ext>``); anything
    else cannot cross a process boundary, so the campaign must run with
    ``jobs=1``.
    """
    bases: List[str] = []
    for sink in obs_trace.global_sinks():
        if isinstance(sink, obs_trace.JsonlSink):
            bases.append(sink.path)
        else:
            raise ConfigurationError(
                f"trace sink {type(sink).__name__} cannot follow trials into "
                f"worker processes; run with jobs=1 (--jobs 1) to keep "
                f"tracing through it"
            )
    if bases and context.get_start_method() != "fork":
        raise ConfigurationError(
            "per-worker trace shards need the 'fork' start method; run "
            "with jobs=1 (--jobs 1) to trace on this platform"
        )
    return bases


def _plan_timeline_shards(context: Any) -> bool:
    """Whether workers must shard a configured timeline recording.

    Memory-only recordings (no path) still need per-worker recorder
    collection, but summaries travel back inside the pickled trial
    results, so they work under any start method.  File-backed timelines
    shard like trace files and need ``fork``.
    """
    config = obs_recorder.configured_recording()
    if config is None:
        return False
    if config.path is not None and context.get_start_method() != "fork":
        raise ConfigurationError(
            "per-worker timeline shards need the 'fork' start method; run "
            "with jobs=1 (--jobs 1) to record a timeline on this platform"
        )
    return config.path is not None


def _plan_fingerprint_shards(context: Any) -> bool:
    """Whether workers must shard a configured fingerprint stream.

    File-backed fingerprint streams shard per worker exactly like trace
    and timeline files (fork only); a memory-only fingerprint config
    cannot follow trials into worker processes at all — its
    :class:`~repro.obs.fingerprint.EventFingerprinter` records would die
    with the worker — so it demands ``jobs=1``.
    """
    config = obs_fingerprint.configured_fingerprint()
    if config is None:
        return False
    if config.path is None:
        raise ConfigurationError(
            "an in-memory fingerprint (path=None) cannot follow trials "
            "into worker processes; give it a path or run with jobs=1 "
            "(--jobs 1)"
        )
    if context.get_start_method() != "fork":
        raise ConfigurationError(
            "per-worker fingerprint shards need the 'fork' start method; "
            "run with jobs=1 (--jobs 1) to fingerprint on this platform"
        )
    return True


def _failure_kind(error: BaseException) -> str:
    if isinstance(error, TrialTimeout):
        return "timeout"
    if isinstance(error, BrokenProcessPool):
        return "crash"
    return "error"


def _sanitize_shard(path: str, committed_labels: set) -> None:
    """Keep only committed attempt segments of one worker JSONL shard.

    A shard is a sequence of segments, each terminated by an attempt
    marker (``{"attempt": "commit"|"abort", "label": ...}``).  Aborted
    segments, the unterminated tail a killed worker leaves, truncated
    lines, and duplicate commits of a label already committed on an
    earlier shard (a worker killed between finishing a trial and
    delivering its result forces a re-run of an already-committed trial)
    are all dropped; markers themselves are stripped.  Provenance headers
    always survive.  The rewrite is atomic (temp file + rename), and a
    shard with nothing to drop is left byte-untouched.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError:
        return
    kept: List[str] = []
    segment: List[str] = []
    dirty = False
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        try:
            doc = json.loads(stripped)
        except ValueError:
            # Truncated tail of a killed writer: part of the unterminated
            # (dead) attempt — dropped with the rest of its segment.
            segment.append(line)
            continue
        if isinstance(doc, dict) and "provenance" in doc:
            kept.append(line)
            continue
        if isinstance(doc, dict) and "attempt" in doc:
            label = doc.get("label")
            if doc.get("attempt") == "commit" and label not in committed_labels:
                committed_labels.add(label)
                kept.extend(segment)
            dirty = True
            segment = []
            continue
        segment.append(line)
    if segment:
        dirty = True  # unterminated tail: the attempt died mid-write
    if not dirty:
        return
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as out:
            out.writelines(kept)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _clean_artifact_shards(base: str, count: int) -> None:
    """Post-campaign shard hygiene for one sharded JSONL artifact.

    Sanitizes this campaign's shards (``<stem>.0<ext>`` …
    ``<stem>.<count-1><ext>``) in index order — so a trial committed on
    two shards (worker killed after commit but before result delivery,
    then re-run) keeps only its first copy — and deletes shards with
    index ≥ ``count``: leftovers of an earlier, wider (or killed)
    campaign that a merged load would otherwise double-count.
    """
    stem, ext = os.path.splitext(base)
    committed_labels: set = set()
    for index in range(count):
        path = f"{stem}.{index}{ext}"
        if os.path.exists(path):
            _sanitize_shard(path, committed_labels)
    directory = os.path.dirname(base) or "."
    prefix = os.path.basename(stem) + "."
    try:
        names = os.listdir(directory)
    except OSError:
        return
    for name in names:
        if not (name.startswith(prefix) and name.endswith(ext)):
            continue
        middle = name[len(prefix) : len(name) - len(ext)] if ext else name[len(prefix) :]
        if middle.isdigit() and int(middle) >= count:
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:
                pass


def _execute_parallel(
    trial: Callable[..., Any],
    tasks: Sequence[_Task],
    jobs: int,
    timeout_s: Optional[float],
    retries: int,
) -> Tuple[Dict[int, Any], Dict[int, TrialFailure], Dict[int, Any]]:
    """Fan tasks out over worker processes with retry and crash isolation.

    Returns ``(values_by_key, failures_by_key, snapshots_by_key)`` —
    the last carries each successful trial's merged metrics snapshot so a
    campaign store can record it.  Worker profiler snapshots are folded
    into the parent's active profiler and worker metric snapshots into a
    registry that joins any open :func:`collect_registries` block.

    Failure accounting is per-task: an attempt is only charged when the
    task itself raised, timed out, or was the lone task in a pool whose
    worker died.  When a worker death breaks a pool with several tasks in
    flight, ``BrokenProcessPool`` is raised on *every* pending future —
    including siblings that never ran on the dead worker — so those tasks
    are requeued attempt-free; the retry round runs one task per pool
    (crash isolation), where blame is unambiguous.
    """
    context = _pool_context()
    shard_bases = _plan_trace_shards(context)
    timeline_shards = _plan_timeline_shards(context)
    fingerprint_shards = _plan_fingerprint_shards(context)
    shard_counter = (
        context.Value("i", 0)
        if (shard_bases or timeline_shards or fingerprint_shards)
        else None
    )
    kernel = obs_kernelprof.active_kernel_profiler()
    # Created here so it registers with the caller's collector (if any);
    # every worker snapshot is merged into it.
    campaign_metrics = MetricsRegistry()

    values: Dict[int, Any] = {}
    failures: Dict[int, TrialFailure] = {}
    snapshots: Dict[int, Any] = {}
    attempts: Dict[int, int] = {task.key: 0 for task in tasks}
    queue: List[_Task] = list(tasks)
    isolate = False  # after a worker death, retry one task per pool

    def charge(task: _Task, error: BaseException) -> None:
        """Record one genuine execution of ``task`` that ended in ``error``."""
        attempts[task.key] += 1
        if attempts[task.key] <= retries:
            queue.append(task)
        else:
            failures[task.key] = TrialFailure(
                label=task.label,
                seed=task.seed,
                kind=_failure_kind(error),
                error=f"{type(error).__name__}: {error}",
                attempts=attempts[task.key],
            )

    while queue:
        batch, queue = queue, []
        groups = [[task] for task in batch] if isolate else [batch]
        saw_crash = False
        for group in groups:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(group)),
                mp_context=context,
                initializer=_worker_init,
                initargs=(
                    shard_bases,
                    shard_counter,
                    timeline_shards,
                    fingerprint_shards,
                ),
            ) as pool:
                futures = {
                    pool.submit(
                        _run_task_in_worker, trial, task.args, task.label, timeout_s
                    ): task
                    for task in group
                }
                broken: List[Tuple[_Task, BaseException]] = []
                for future, task in futures.items():
                    try:
                        value, snapshot, kernel_snap = future.result()
                    except BaseException as error:  # noqa: BLE001 — recorded
                        if isinstance(error, BrokenProcessPool):
                            # A worker death poisons every pending future
                            # in the pool; which task actually ran on the
                            # dead worker is only knowable from the pool's
                            # composition, so attribution is deferred
                            # until the whole group has drained.
                            saw_crash = True
                            broken.append((task, error))
                        else:
                            # The exception was pickled back from the
                            # worker: this task genuinely executed (and
                            # raised or timed out), so the attempt is its
                            # own.
                            charge(task, error)
                    else:
                        values[task.key] = value
                        snapshots[task.key] = snapshot
                        if kernel is not None:
                            kernel.merge_snapshot(kernel_snap)
                        campaign_metrics.merge_snapshot(snapshot)
            if len(broken) == 1:
                # Exactly one task was in flight when the pool broke, so
                # the dead worker was running it: the crash is its own.
                charge(broken[0][0], broken[0][1])
            elif broken:
                # Several tasks were poisoned by one worker death; the
                # innocent siblings must not be charged (a healthy trial
                # could otherwise exhaust its retries — and be recorded
                # as a "crash" — without ever failing itself).  Requeue
                # everyone attempt-free; the isolated retry round pins
                # the blame.
                queue.extend(task for task, _ in broken)
        if saw_crash:
            isolate = True

    if shard_counter is not None:
        bases = list(shard_bases)
        if timeline_shards:
            timeline_base = obs_recorder.recording_shard_base()
            if timeline_base:
                bases.append(timeline_base)
        if fingerprint_shards:
            fingerprint_config = obs_fingerprint.configured_fingerprint()
            if fingerprint_config is not None and fingerprint_config.path:
                bases.append(fingerprint_config.path)
        for base in bases:
            _clean_artifact_shards(base, shard_counter.value)

    return values, failures, snapshots


# ----------------------------------------------------------------------
# Campaign-store plumbing
# ----------------------------------------------------------------------
def _campaign_artifacts() -> Dict[str, Any]:
    """JSONL artifact base paths recorded on every store entry.

    Points a store entry back at the trace/timeline/fingerprint streams
    the campaign that executed it was writing (per-worker shards live
    next to these bases).  Cached trials emit no events in a resumed
    campaign, so its artifact files cover only the trials it executed —
    the original campaign's artifacts are named here.
    """
    artifacts: Dict[str, Any] = {}
    trace_paths = [
        sink.path
        for sink in obs_trace.global_sinks()
        if isinstance(sink, obs_trace.JsonlSink)
    ]
    if trace_paths:
        artifacts["trace"] = trace_paths
    timeline_base = obs_recorder.recording_shard_base()
    if timeline_base:
        artifacts["timeline"] = timeline_base
    fingerprint = obs_fingerprint.configured_fingerprint()
    if fingerprint is not None and fingerprint.path:
        artifacts["fingerprint"] = fingerprint.path
    return artifacts


def _run_task_serial(
    trial: Callable[..., Any], task: _Task
) -> Tuple[Any, Dict[str, Dict[str, object]]]:
    """One in-process trial plus its metrics snapshot (for the store).

    The scratch registry stays unregistered: the trial's own registries
    already joined any open collector, so a registered merge target would
    double every instrument in the caller's campaign view.
    """
    with collect_registries() as registries, obs_kernelprof.label(task.label):
        value = _audited_call(trial, task.args)
    scratch = MetricsRegistry(register=False)
    for registry in registries:
        scratch.merge_snapshot(registry.snapshot())
    return value, scratch.snapshot()


def _run_stored_campaign(
    trial: Callable[..., Any],
    tasks: Sequence[_Task],
    store: CampaignStore,
    resume: bool,
    jobs: int,
    timeout_s: Optional[float],
    retries: int,
) -> Tuple[Dict[int, Any], Dict[int, TrialFailure], set]:
    """Run a keyed campaign against a content-addressed store.

    Returns ``(values_by_key, failures_by_key, hit_keys)``.  With
    ``resume`` on, tasks whose digest already has a successful entry are
    satisfied from the store (their cached metrics snapshots merge into a
    registry that joins any open collector); everything else executes and
    is written through — values on success, failure records when a task
    permanently fails.  Stored *failures* never count as hits: crashes
    and timeouts are environment-dependent, so a resumed campaign re-runs
    them (a deterministic error just fails identically again, keeping the
    resumed table bit-identical).
    """
    name = trial_id(trial)
    digests = {task.key: task_digest(trial, task.args) for task in tasks}
    artifacts = _campaign_artifacts()
    # Registers with the caller's collector (if any) so cached trials'
    # metrics still reach the campaign-wide view.
    campaign_metrics = MetricsRegistry()

    values: Dict[int, Any] = {}
    failures: Dict[int, TrialFailure] = {}
    hit_keys: set = set()
    if resume:
        for task in tasks:
            entry = store.get(digests[task.key])
            if entry is None:
                continue
            values[task.key] = entry.value
            hit_keys.add(task.key)
            if entry.metrics:
                campaign_metrics.merge_snapshot(entry.metrics)

    misses = [task for task in tasks if task.key not in hit_keys]
    if jobs == 1:
        # Serial contract unchanged: exceptions propagate.  Completed
        # trials are already durably stored, so a crashed serial campaign
        # resumes from the trial it died in.
        for task in misses:
            value, snapshot = _run_task_serial(trial, task)
            store.put_value(
                digests[task.key],
                name,
                task.label,
                task.seed,
                value,
                metrics=snapshot,
                artifacts=artifacts,
            )
            values[task.key] = value
    elif misses:
        executed, failures, snapshots = _execute_parallel(
            trial, misses, jobs, timeout_s, retries
        )
        by_key = {task.key: task for task in misses}
        for key, value in executed.items():
            task = by_key[key]
            store.put_value(
                digests[key],
                name,
                task.label,
                task.seed,
                value,
                metrics=snapshots.get(key),
                artifacts=artifacts,
            )
        for key, failure in failures.items():
            store.put_failure(digests[key], name, failure, artifacts=artifacts)
        values.update(executed)
    return values, failures, hit_keys


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_trials(
    trial: TrialFn,
    seeds: Optional[Iterable[int]] = None,
    jobs: Optional[int] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    timeline: Optional[Any] = None,
    store: Optional[Any] = None,
    resume: bool = True,
) -> AggregateMetrics:
    """Run ``trial`` per seed and aggregate.

    With ``jobs=1`` (the default unless ``REPRO_JOBS`` says otherwise)
    trials run serially in-process and any exception propagates, exactly
    as before.  With ``jobs>1`` trials fan out over worker processes;
    a trial that keeps failing after ``retries`` extra attempts becomes a
    :class:`~repro.experiments.metrics.TrialFailure` on the returned
    aggregate and the campaign continues.  Results are aggregated in seed
    order either way, so the statistics are identical for both paths.

    ``store`` (a path or :class:`~repro.experiments.store.CampaignStore`;
    default: the ``REPRO_STORE`` env knob) makes the campaign durable:
    every completed trial is recorded under its content address, and with
    ``resume=True`` (the default) trials already in the store are skipped
    — their cached values aggregate exactly where execution would have
    put them, so the result is bit-identical to an uninterrupted run.
    The aggregate's ``cache_hits``/``executed`` fields say how much came
    from the store.

    ``timeline=True`` records a flight-recorder timeline of every trial
    in memory; ``timeline="path.jsonl"`` additionally streams it to a
    JSONL file (per-worker shards with ``jobs>1``, like trace files).
    Either way the merged series summary (peak LQT size, CDI convergence
    time, mean airtime utilization) lands on each trial's
    ``TrialMetrics.extras["timeline"]`` and surfaces as table columns.

    When a :class:`repro.obs.kernelprof.KernelProfiler` is active (CLI
    ``--metrics``), each trial's simulator runs are labelled with its seed
    so the profile reads per-trial — including trials that ran in workers.
    """
    if timeline:
        path = timeline if isinstance(timeline, str) else None
        with obs_recorder.recording(path=path):
            return run_trials(
                trial,
                seeds=seeds,
                jobs=jobs,
                timeout_s=timeout_s,
                retries=retries,
                store=store,
                resume=resume,
            )
    if seeds is None:
        seeds = configured_seeds()
    seeds = list(seeds)
    if jobs is None:
        jobs = configured_jobs()
    if timeout_s is None:
        timeout_s = configured_trial_timeout()
    campaign_store = resolve_store(store)

    if campaign_store is None:
        if jobs == 1:
            results = []
            for seed in seeds:
                with obs_kernelprof.label(f"seed {seed}"):
                    results.append(_audited_call(trial, (seed,)))
            return AggregateMetrics.from_trials(results)
        tasks = [
            _Task(key=index, seed=seed, label=f"seed {seed}", args=(seed,))
            for index, seed in enumerate(seeds)
        ]
        values, failures, _ = _execute_parallel(
            trial, tasks, jobs, timeout_s, retries
        )
        ordered = [values[key] for key in sorted(values)]
        ordered_failures = [failures[key] for key in sorted(failures)]
        return AggregateMetrics.from_trials(ordered, failures=ordered_failures)

    tasks = [
        _Task(key=index, seed=seed, label=f"seed {seed}", args=(seed,))
        for index, seed in enumerate(seeds)
    ]
    values, failures, hit_keys = _run_stored_campaign(
        trial, tasks, campaign_store, resume, jobs, timeout_s, retries
    )
    ordered = [values[key] for key in sorted(values)]
    ordered_failures = [failures[key] for key in sorted(failures)]
    return AggregateMetrics.from_trials(
        ordered,
        failures=ordered_failures,
        cache_hits=len(hit_keys),
        executed=len(tasks) - len(hit_keys),
    )


@dataclass(frozen=True)
class SweepPoint:
    """One parameter point's slice of a sweep.

    Attributes:
        point: The parameter-point object handed to :func:`run_sweep`.
        label: Human label used in profiles and failure records.
        results: Per-seed trial return values, in seed order, for the
            seeds that succeeded.
        seeds: The seeds behind ``results`` (same order).
        failures: Seeds that kept failing (parallel campaigns only).
        cache_hits: Seeds satisfied from a campaign store instead of
            being executed (``None`` when the sweep ran without a store).
        executed: Seeds actually executed this campaign (store sweeps
            only): ``cache_hits + executed == len(seeds-swept)``.
    """

    point: Any
    label: str
    results: Tuple[Any, ...]
    seeds: Tuple[int, ...]
    failures: Tuple[TrialFailure, ...] = ()
    cache_hits: Optional[int] = None
    executed: Optional[int] = None

    @property
    def ok(self) -> bool:
        """Whether at least one seed produced a result."""
        return bool(self.results)


def run_sweep(
    trial: SweepTrialFn,
    points: Sequence[Any],
    seeds: Optional[Iterable[int]] = None,
    jobs: Optional[int] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    label_fn: Optional[Callable[[Any], str]] = None,
    timeline: Optional[Any] = None,
    store: Optional[Any] = None,
    resume: bool = True,
) -> List[SweepPoint]:
    """Run ``trial(point, seed)`` over a whole (point × seed) grid.

    The figure modules' sweep loops are all instances of this shape; the
    grid is flattened into independent tasks so parallelism spans points
    as well as seeds (a sweep of 5 points × 5 seeds keeps 8 workers busy).
    Returns one :class:`SweepPoint` per point, in the order given,
    regardless of completion order — bit-identical between ``jobs=1`` and
    ``jobs=N``.

    ``trial`` must be picklable for parallel runs (a module-level
    function) and ``point`` must be a picklable value; figure modules
    pass plain dicts of scalars.  With ``jobs=1`` everything runs
    in-process and exceptions propagate, as the hand-rolled loops did.

    ``label_fn(point)`` names each point in profiles and failure records
    (trials are labelled ``"<point-label> seed <seed>"``).

    ``timeline`` behaves exactly as in :func:`run_trials`.

    ``store``/``resume`` behave exactly as in :func:`run_trials`: with a
    store (or ``REPRO_STORE``), every (point, seed) trial is keyed by its
    content digest, completed trials persist across process restarts, and
    a resumed sweep skips cached trials while producing bit-identical
    :class:`SweepPoint` results; each point's ``cache_hits``/``executed``
    fields say how much came from the store.
    """
    if timeline:
        path = timeline if isinstance(timeline, str) else None
        with obs_recorder.recording(path=path):
            return run_sweep(
                trial,
                points,
                seeds=seeds,
                jobs=jobs,
                timeout_s=timeout_s,
                retries=retries,
                label_fn=label_fn,
                store=store,
                resume=resume,
            )
    if seeds is None:
        seeds = configured_seeds()
    seeds = list(seeds)
    points = list(points)
    if jobs is None:
        jobs = configured_jobs()
    if timeout_s is None:
        timeout_s = configured_trial_timeout()
    labels = [
        label_fn(point) if label_fn is not None else f"point {index}"
        for index, point in enumerate(points)
    ]
    campaign_store = resolve_store(store)

    if campaign_store is None and jobs == 1:
        sweep = []
        for index, point in enumerate(points):
            results = []
            for seed in seeds:
                with obs_kernelprof.label(f"{labels[index]} seed {seed}"):
                    results.append(_audited_call(trial, (point, seed)))
            sweep.append(
                SweepPoint(
                    point=point,
                    label=labels[index],
                    results=tuple(results),
                    seeds=tuple(seeds),
                )
            )
        return sweep

    tasks = []
    for point_index, point in enumerate(points):
        for seed_index, seed in enumerate(seeds):
            tasks.append(
                _Task(
                    key=point_index * len(seeds) + seed_index,
                    seed=seed,
                    label=f"{labels[point_index]} seed {seed}",
                    args=(point, seed),
                )
            )
    if campaign_store is None:
        values, failures_by_key, _ = _execute_parallel(
            trial, tasks, jobs, timeout_s, retries
        )
        hit_keys: set = set()
    else:
        values, failures_by_key, hit_keys = _run_stored_campaign(
            trial, tasks, campaign_store, resume, jobs, timeout_s, retries
        )

    sweep = []
    for point_index, point in enumerate(points):
        point_results = []
        point_seeds = []
        point_failures = []
        point_hits = 0
        for seed_index, seed in enumerate(seeds):
            key = point_index * len(seeds) + seed_index
            if key in values:
                point_results.append(values[key])
                point_seeds.append(seed)
            elif key in failures_by_key:
                point_failures.append(failures_by_key[key])
            if key in hit_keys:
                point_hits += 1
        sweep.append(
            SweepPoint(
                point=point,
                label=labels[point_index],
                results=tuple(point_results),
                seeds=tuple(point_seeds),
                failures=tuple(point_failures),
                cache_hits=point_hits if campaign_store is not None else None,
                executed=(
                    len(seeds) - point_hits
                    if campaign_store is not None
                    else None
                ),
            )
        )
    return sweep


def point_mean(
    sweep_point: SweepPoint, key: str, ndigits: Optional[int] = None
) -> float:
    """Mean of one field over a point's surviving per-seed result dicts.

    ``nan`` when every seed of the point failed, so a crashed point shows
    up in a rendered table as a visible hole rather than a silent zero.
    """
    values = [result[key] for result in sweep_point.results]
    if not values:
        return float("nan")
    mean = sum(values) / len(values)
    return round(mean, ndigits) if ndigits is not None else mean


def render_table(
    title: str,
    columns: Sequence[str],
    rows: List[Dict[str, object]],
) -> str:
    """A plain fixed-width table, one row per parameter point."""
    widths = {col: max(len(col), 10) for col in columns}
    for row in rows:
        for col in columns:
            widths[col] = max(widths[col], len(str(row.get(col, ""))))
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    rule = "-" * len(header)
    lines = [title, rule, header, rule]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(col, "")).ljust(widths[col]) for col in columns)
        )
    lines.append(rule)
    return "\n".join(lines)
