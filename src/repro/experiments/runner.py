"""Multi-seed trial sweeps, parallel campaigns and table rendering.

The paper averages each point over 5 runs (§VI-A); experiment modules
define a per-(point, seed) trial function returning a plain JSON dict
and hand it, with a parameter grid, to :func:`run_sweep` — the one
campaign entry point — then average fields with :func:`point_mean`.
Campaign settings (seeds, worker count, store, trial deadline) are
arguments of :func:`run_sweep` and nothing else; :func:`seed_list`,
:func:`check_scale` and :func:`worker_count` are the checks the CLI and
the benchmark suite apply to them before a campaign starts.

Parallelism
-----------

Trials are embarrassingly parallel — each builds its own simulator and
RNGs from its seed — so :func:`run_sweep` takes a ``jobs`` parameter
(default 1) backed by :class:`concurrent.futures.ProcessPoolExecutor`.
``jobs=1`` keeps everything on the caller's thread.  With ``jobs>1``:

* results are reassembled in submission order, so tables are
  bit-identical to a serial run of the same seeds regardless of worker
  completion order;
* each trial runs under an optional per-trial wall-clock deadline
  (``timeout_s``) enforced with ``SIGALRM`` inside the worker;
* a trial that raises, times out, or kills its worker process is retried
  once (``retries``) and then surfaced as a structured
  :class:`~repro.experiments.metrics.TrialFailure` instead of aborting
  the campaign.  After a worker *process* death the retry round runs
  each remaining trial in its own single-worker pool, so a
  deterministically crashing trial only takes itself down;
* the active :class:`~repro.obs.config.ObsConfig` is the pool initarg:
  worker ``k`` activates it with every trace/timeline/fingerprint file
  moved to its shard ``k`` (``trace.jsonl`` -> ``trace.k.jsonl``).
  Under ``metrics`` each trial returns its profiler snapshot (run
  records plus merged registry), which the parent folds into its own
  profiler.  What cannot cross a process boundary — an in-memory
  timeline or fingerprint, file shards without ``fork`` — raises :class:`~repro.errors.ConfigurationError` telling
  you to use ``jobs=1``.

Campaign store
--------------

:func:`run_sweep` takes ``store=`` (a path or
:class:`~repro.experiments.store.CampaignStore`; default: none; CLI
``--store``) and ``resume=`` knobs.  With a store, every completed trial
is durably recorded under its content address and — with
``resume=True``, the default — trials whose digest is already present
are *skipped*: their cached values slot into the
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
    Union,
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
from repro.obs.config import ObsConfig
from repro.obs.durable import sanitize_shards
from repro.obs.kernelprof import KernelProfiler

#: Per the paper: "results are averaged over 5 runs".
DEFAULT_SEEDS = (1, 2, 3, 4, 5)

SweepTrialFn = Callable[[Any, int], Any]


class TrialTimeout(ReproError):
    """A trial exceeded its per-trial wall-clock deadline."""


# ----------------------------------------------------------------------
# Campaign settings
# ----------------------------------------------------------------------
def seed_list(count: Union[int, str]) -> List[int]:
    """Seeds ``1..count`` for a seed count (``--seeds``).

    Raises:
        ConfigurationError: when ``count`` is not a positive integer.
    """
    try:
        number = int(count)
    except ValueError:
        number = 0
    if number < 1:
        raise ConfigurationError(
            f"seeds must be a positive integer (a seed count), got {count!r}"
        )
    return list(range(1, number + 1))


def check_scale(scale: Union[float, str]) -> float:
    """A workload scale (``--scale``; 1.0 = paper scale).

    Raises:
        ConfigurationError: when ``scale`` is not a positive number.
    """
    try:
        value = float(scale)
    except ValueError:
        value = 0.0
    if not value > 0:
        raise ConfigurationError(
            f"scale must be a positive number, got {scale!r}"
        )
    return value


def worker_count(jobs: Union[int, str]) -> int:
    """Worker processes per campaign (``--jobs``; 0 = one per CPU core).

    Raises:
        ConfigurationError: when ``jobs`` is not a non-negative integer.
    """
    try:
        number = int(jobs)
    except ValueError:
        number = -1
    if number < 0:
        raise ConfigurationError(
            f"jobs must be a non-negative integer (0 = one per CPU core), "
            f"got {jobs!r}"
        )
    return number or (os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_init(config: Optional[ObsConfig], shard_counter: Any) -> None:
    """Replace the inherited activation stack with ``config`` on this
    worker's shards (:func:`repro.obs.config.enter_worker`)."""
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


@contextmanager
def _profiled(label: str) -> Iterator[Optional[KernelProfiler]]:
    """Yield the active profiler (``None`` without ``metrics``), labelled."""
    obs = obs_config.active("metrics")
    if obs is None:
        yield None
        return
    with obs.profiler.labelled(label):
        yield obs.profiler


def _run_task_in_worker(
    trial: Callable[..., Any],
    args: Tuple[Any, ...],
    label: str,
    timeout_s: Optional[float],
) -> Tuple[Any, Optional[Dict[str, object]]]:
    """Execute one trial out-of-process.

    Returns ``(value, profile)``: ``profile`` is the worker profiler's
    :meth:`~repro.obs.kernelprof.KernelProfiler.drain` — this trial's
    labelled run records and merged registry — under ``metrics``, else
    ``None``.  A failed attempt's records are drained and dropped.
    """
    with _profiled(label) as profiler:
        try:
            with _trial_deadline(timeout_s, label):
                value = trial(*args)
        except BaseException:
            # The attempt's partial shard events must not survive the
            # merge; a killed worker writes no marker, leaving an
            # unterminated tail that sanitization drops the same way.
            _mark_attempt("abort", label)
            raise
        finally:
            profile = profiler.drain() if profiler is not None else None
    _mark_attempt("commit", label)
    return value, profile


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
    worker processes: an in-memory timeline or fingerprint (their records
    would die with the worker) and file shards under a start method
    other than ``fork``.
    """
    obs = obs_config.active()
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
) -> Tuple[Dict[int, Any], Dict[int, TrialFailure]]:
    """Fan tasks out over worker processes with retry and crash isolation.

    Returns ``(values_by_key, failures_by_key)``.  Each successful
    trial's profile (under ``metrics``) is folded into the parent's
    active profiler.

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

    values: Dict[int, Any] = {}
    failures: Dict[int, TrialFailure] = {}
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
                        value, profile = future.result()
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
                        if profile is not None:
                            obs_config.active().profiler.merge_snapshot(profile)
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

    return values, failures


# ----------------------------------------------------------------------
# One campaign: optional store, serial loop or worker pool
# ----------------------------------------------------------------------


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
    successful entry are satisfied from the store (they run no simulator,
    so an active profiler sees nothing of them); everything else executes
    and is written through — values on success, failure records when a
    task permanently fails.  Stored *failures* never count as hits: crashes and timeouts are environment-dependent,
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
        for task in tasks:
            entry = store.get(digests[task.key]) if resume else None
            if entry is not None:
                values[task.key] = entry.value
                hit_keys.add(task.key)

    def record(task: _Task, value: Any) -> None:
        values[task.key] = value
        if store is not None:
            store.put_value(
                digests[task.key],
                name,
                task.label,
                task.seed,
                value,
                artifacts=artifacts,
            )

    misses = [task for task in tasks if task.key not in hit_keys]
    if jobs == 1:
        for task in misses:
            with _profiled(task.label):
                value = trial(*task.args)
            record(task, value)
    elif misses:
        executed, failures = _execute_parallel(
            trial, misses, jobs, timeout_s, retries
        )
        for task in misses:
            if task.key in executed:
                record(task, executed[task.key])
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
    jobs: int = 1,
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
    (trials are labelled ``"<point-label> seed <seed>"``).  Under an
    active ``ObsConfig(metrics=True)`` (CLI ``--metrics``), each trial's
    simulator runs carry that label — also for trials that ran in
    workers.

    ``seeds`` defaults to :data:`DEFAULT_SEEDS`.  ``jobs`` reads as in
    :func:`worker_count`: 0 means one worker per CPU core, and a negative
    value raises :class:`ConfigurationError`.  ``timeout_s`` (parallel
    campaigns only) is each trial's wall-clock deadline; ``None`` disables
    it.

    ``store`` (a path or :class:`~repro.experiments.store.CampaignStore`;
    default: none) makes the campaign durable:
    every (point, seed) trial is keyed by its content digest, completed
    trials persist across process restarts, and with ``resume=True``
    (the default) a resumed sweep skips cached trials while producing
    bit-identical :class:`SweepPoint` results; each point's
    ``cache_hits``/``executed`` fields say how much came from the store.
    """
    jobs = worker_count(jobs)
    seeds = list(DEFAULT_SEEDS if seeds is None else seeds)
    points = list(points)
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
