"""Multi-seed trial sweeps, parallel campaigns and table rendering.

The paper averages each point over 5 runs (§VI-A); experiment modules
define a per-(point, seed) trial function returning a plain JSON dict
and hand it, with a parameter grid, to :func:`run_sweep` — the one
campaign entry point — then average fields with :func:`point_mean`.
Benchmarks honour ``REPRO_SEEDS`` / ``REPRO_SCALE`` environment knobs so
full-fidelity runs and quick CI runs share the same code.

Parallelism
-----------

Trials are embarrassingly parallel — each builds its own simulator and
RNGs from its seed — so :func:`run_sweep` takes a ``jobs`` parameter
(default: the ``REPRO_JOBS`` env knob, itself defaulting to 1) backed by
:class:`concurrent.futures.ProcessPoolExecutor`.  ``jobs=1`` keeps
everything on the caller's thread.  With ``jobs>1``:

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
* the active :class:`~repro.obs.config.ObsConfig` is the pool initarg:
  worker ``k`` activates it with every trace/timeline/fingerprint file
  moved to its shard ``k`` (``trace.jsonl`` -> ``trace.k.jsonl``).
  What cannot cross a process boundary — a trace sink outside the
  config, an in-memory timeline or fingerprint, file shards without
  ``fork`` — raises :class:`~repro.errors.ConfigurationError` telling
  you to use ``jobs=1``.

Campaign store
--------------

:func:`run_sweep` takes ``store=`` (a path or
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

import multiprocessing
import os
import signal
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
    Set,
    Tuple,
)

from repro.errors import ConfigurationError, ReproError
from repro.experiments.metrics import TrialFailure
from repro.experiments.store import (
    CampaignStore,
    resolve_store,
    task_digest,
    trial_id,
)
from repro.obs import config as obs_config
from repro.obs import kernelprof as obs_kernelprof
from repro.obs import memprof as obs_memprof
from repro.obs import trace as obs_trace
from repro.obs.config import ObsConfig
from repro.obs.durable import sanitize_shards
from repro.obs.metrics import MetricsRegistry, _clear_collectors, collect_registries

#: Per the paper: "results are averaged over 5 runs".
DEFAULT_SEEDS = (1, 2, 3, 4, 5)

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
def _worker_init(config: Optional[ObsConfig], shard_counter: Any) -> None:
    """Per-worker-process setup.

    Forked workers inherit the parent's process-wide observability state:
    global trace sinks (whose file handles are shared with the parent),
    the active observability config and its open writers, the active
    profiler and its labels, memory telemetry and open registry
    collectors.  All of it belongs to the parent, so
    drop it — workers report back through their return values instead —
    then activate the campaign's ``config`` on this worker's own shards.
    """
    for sink in obs_trace.global_sinks():
        # Remove without closing: under fork the file object is shared
        # with the parent, and closing here would flush its buffer twice.
        obs_trace.remove_global_sink(sink)
    obs_kernelprof._clear_active()
    obs_memprof._clear_active()
    _clear_collectors()
    index = None
    if shard_counter is not None:
        with shard_counter.get_lock():
            index = shard_counter.value
            shard_counter.value += 1
    obs_config.enter_worker(config, index)


def _mark_attempt(outcome: str, label: str) -> None:
    """End one trial attempt on every open JSONL artifact of this worker.

    Post-campaign sanitization (:func:`repro.obs.durable.sanitize_shards`)
    keeps exactly the committed segments: aborted attempts, duplicate
    commits of the same label, and the unterminated tail a killed worker
    leaves are all dropped, which is what stops a retried trial's
    abandoned first attempt from double-counting in merged spans and
    timelines.
    """
    obs = obs_config.active()
    if obs is not None:
        obs.mark_attempt(outcome, label)


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
                    value = trial(*args)
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


def _worker_config(context: Any) -> Optional[ObsConfig]:
    """The observability config workers activate, or ``None``.

    Refuses, with a ``jobs=1`` hint, what cannot follow trials into
    worker processes: trace sinks outside the config and an in-memory
    timeline or fingerprint (their records would die with the worker),
    and file shards under a start method other than ``fork``.
    """
    obs = obs_config.active()
    for sink in obs_trace.global_sinks():
        if obs is None or sink is not obs.trace_sink:
            raise ConfigurationError(
                f"trace sink {type(sink).__name__} cannot follow trials into "
                f"worker processes; run with jobs=1 (--jobs 1) to keep "
                f"tracing through it, or trace through ObsConfig(trace=...)"
            )
    if obs is None:
        return None
    for instrument in ("timeline", "fingerprint"):
        if getattr(obs.config, instrument) is True:
            raise ConfigurationError(
                f"an in-memory {instrument} (no path) cannot follow trials "
                f"into worker processes; give it a path or run with jobs=1 "
                f"(--jobs 1)"
            )
    if obs.config.artifacts() and context.get_start_method() != "fork":
        raise ConfigurationError(
            "per-worker trace/timeline/fingerprint shards need the 'fork' "
            "start method; run with jobs=1 (--jobs 1) to write them on "
            "this platform"
        )
    return obs.config


def _failure_kind(error: BaseException) -> str:
    if isinstance(error, TrialTimeout):
        return "timeout"
    if isinstance(error, BrokenProcessPool):
        return "crash"
    return "error"


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
    config = _worker_config(context)
    artifacts = config.artifacts() if config is not None else []
    shard_counter = context.Value("i", 0) if artifacts else None
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
                initargs=(config, shard_counter),
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

    for _, base in artifacts:
        sanitize_shards(base, shard_counter.value)

    return values, failures, snapshots


# ----------------------------------------------------------------------
# One campaign: optional store, serial loop or worker pool
# ----------------------------------------------------------------------
def _run_task_serial(
    trial: Callable[..., Any], task: _Task, snapshot: bool
) -> Tuple[Any, Optional[Dict[str, Dict[str, object]]]]:
    """One in-process trial, plus its metrics snapshot when ``snapshot``.

    Only a campaign store records the snapshot, so store-less campaigns
    skip collecting it.  The scratch registry stays unregistered: the
    trial's own registries already joined any open collector, so a
    registered merge target would double every instrument in the
    caller's campaign view.
    """
    with obs_kernelprof.label(task.label):
        if not snapshot:
            return trial(*task.args), None
        with collect_registries() as registries:
            value = trial(*task.args)
    scratch = MetricsRegistry(register=False)
    for registry in registries:
        scratch.merge_snapshot(registry.snapshot())
    return value, scratch.snapshot()


def _run_campaign(
    trial: Callable[..., Any],
    tasks: Sequence[_Task],
    store: Optional[CampaignStore],
    resume: bool,
    jobs: int,
    timeout_s: Optional[float],
    retries: int,
) -> Tuple[Dict[int, Any], Dict[int, TrialFailure], Set[int]]:
    """Run a keyed campaign, against a content-addressed store if given.

    Returns ``(values_by_key, failures_by_key, hit_keys)``.  With
    ``jobs=1`` tasks run in order on this thread and exceptions
    propagate; with a store, completed trials are already durably stored,
    so a crashed serial campaign resumes from the trial it died in.  With
    ``jobs>1`` tasks fan out over :func:`_execute_parallel`.

    With a store and ``resume`` on, tasks whose digest already has a
    successful entry are satisfied from the store (their cached metrics
    snapshots merge into a registry that joins any open collector);
    everything else executes and is written through — values on success,
    failure records when a task permanently fails.  Stored *failures*
    never count as hits: crashes and timeouts are environment-dependent,
    so a resumed campaign re-runs them (a deterministic error just fails
    identically again, keeping the resumed table bit-identical).
    """
    values: Dict[int, Any] = {}
    failures: Dict[int, TrialFailure] = {}
    hit_keys: Set[int] = set()
    if store is not None:
        name = trial_id(trial)
        digests = {task.key: task_digest(trial, task.args) for task in tasks}
        # Where the campaign writes its JSONL artifacts (worker shards
        # live next to these bases).  Cached trials emit nothing in a
        # resumed campaign, so an entry names the artifacts of the
        # campaign that executed it.
        obs = obs_config.active()
        artifacts = dict(obs.config.artifacts()) if obs is not None else {}
        # Registers with the caller's collector (if any) so cached trials'
        # metrics still reach the campaign-wide view.
        campaign_metrics = MetricsRegistry()
        for task in tasks:
            entry = store.get(digests[task.key]) if resume else None
            if entry is None:
                continue
            values[task.key] = entry.value
            hit_keys.add(task.key)
            if entry.metrics:
                campaign_metrics.merge_snapshot(entry.metrics)

    def record(task: _Task, value: Any, snapshot: Any) -> None:
        values[task.key] = value
        if store is not None:
            store.put_value(
                digests[task.key],
                name,
                task.label,
                task.seed,
                value,
                metrics=snapshot,
                artifacts=artifacts,
            )

    misses = [task for task in tasks if task.key not in hit_keys]
    if jobs == 1:
        for task in misses:
            record(task, *_run_task_serial(trial, task, store is not None))
    elif misses:
        executed, failures, snapshots = _execute_parallel(
            trial, misses, jobs, timeout_s, retries
        )
        for task in misses:
            if task.key in executed:
                record(task, executed[task.key], snapshots[task.key])
            elif store is not None:
                failure = failures[task.key]
                store.put_failure(
                    digests[task.key], name, failure, artifacts=artifacts
                )
    return values, failures, hit_keys


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
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
    pass plain dicts of scalars and return plain JSON dicts.  With
    ``jobs=1`` everything runs in-process and exceptions propagate.  With
    ``jobs>1`` a trial that keeps failing after ``retries`` extra
    attempts becomes a :class:`~repro.experiments.metrics.TrialFailure`
    on its point and the campaign continues.

    ``label_fn(point)`` names each point in profiles and failure records
    (trials are labelled ``"<point-label> seed <seed>"``).  When a
    :class:`repro.obs.kernelprof.KernelProfiler` is active (CLI
    ``--metrics``), each trial's simulator runs carry that label — also
    for trials that ran in workers.

    ``store`` (a path or :class:`~repro.experiments.store.CampaignStore`;
    default: the ``REPRO_STORE`` env knob) makes the campaign durable:
    every (point, seed) trial is keyed by its content digest, completed
    trials persist across process restarts, and with ``resume=True``
    (the default) a resumed sweep skips cached trials while producing
    bit-identical :class:`SweepPoint` results; each point's
    ``cache_hits``/``executed`` fields say how much came from the store.
    """
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
    values, failures_by_key, hit_keys = _run_campaign(
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
