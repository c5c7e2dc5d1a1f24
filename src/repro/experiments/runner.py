"""Multi-seed trial sweeps, parallel campaigns and table rendering.

The paper averages each point over 5 runs (§VI-A); experiment modules
define a per-(point, seed) trial function returning a plain JSON dict
and hand it, with a parameter grid, to :func:`run_sweep` — the one
campaign entry point — then average fields with :func:`point_mean`.
Campaign settings (seeds, worker count, store) are arguments of
:func:`run_sweep` and nothing else; :func:`seed_list`,
:func:`check_scale` and :func:`worker_count` are the checks the CLI and
the benchmark suite apply to them before a campaign starts.

One failure rule, at every ``jobs``: a trial that raises, or whose
worker process dies, stops the campaign with that error.  Trials that
finished before it stay in the campaign store (when there is one), so
re-running the same command resumes from them.

Parallelism
-----------

Trials are embarrassingly parallel — each builds its own simulator and
RNGs from its seed — so :func:`run_sweep` takes a ``jobs`` parameter
(default 1) backed by :class:`concurrent.futures.ProcessPoolExecutor`.
``jobs=1`` keeps everything on the caller's thread.  With ``jobs>1``
one pool runs every task, and its futures are read in submission order:

* a trial's value is stored, and its profile merged, as soon as it and
  every earlier task are done, so tables and ``--metrics`` output are
  bit-identical to a serial run regardless of worker completion order;
* the first error in that order cancels the tasks not yet started and
  is re-raised;
* the active :class:`~repro.obs.config.ObsConfig` is the pool initarg:
  each worker activates it with every trace/timeline/fingerprint file
  moved to its own shard (``trace.jsonl`` -> ``trace.k.jsonl``), ``k``
  drawn from the activation's shard counter, so the pools of successive
  sweeps never reuse a shard.  Under ``metrics`` each trial returns its
  profiler snapshot (run records plus merged registry), which the parent
  folds into its own profiler.  What cannot cross a process boundary —
  an in-memory timeline or fingerprint, file shards without ``fork`` —
  raises :class:`~repro.errors.ConfigurationError` telling you to use
  ``jobs=1``.

Campaign store
--------------

:func:`run_sweep` takes ``store=`` (a path or
:class:`~repro.experiments.store.CampaignStore`; default: none; CLI
``--store``).  With a store, every completed trial is durably recorded
under its content address, and trials whose digest is already present
are *skipped*: their cached values slot into the reassembly exactly
where execution would have put them, so the final tables are
bit-identical to an uninterrupted run.  A campaign killed mid-flight
(even ``SIGKILL``) resumes from what it recorded; in-flight trials
simply re-run.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
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

from repro.errors import ConfigurationError
from repro.experiments.store import (
    CampaignStore,
    resolve_store,
    task_digest,
    trial_id,
)
from repro.obs import config as obs_config
from repro.obs.config import ObsConfig
from repro.obs.kernelprof import KernelProfiler

#: Per the paper: "results are averaged over 5 runs".
DEFAULT_SEEDS = (1, 2, 3, 4, 5)

SweepTrialFn = Callable[[Any, int], Any]


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
    trial: Callable[..., Any], args: Tuple[Any, ...], label: str
) -> Tuple[Any, Optional[Dict[str, object]]]:
    """Execute one trial out-of-process.

    Returns ``(value, profile)``: ``profile`` is the worker profiler's
    :meth:`~repro.obs.kernelprof.KernelProfiler.drain` — this trial's
    labelled run records and merged registry — under ``metrics``, else
    ``None``.
    """
    with _profiled(label) as profiler:
        value = trial(*args)
    return value, profiler.drain() if profiler is not None else None


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


def _execute_parallel(
    trial: Callable[..., Any],
    tasks: Sequence[_Task],
    jobs: int,
    record: Callable[[_Task, Any], None],
) -> None:
    """Run ``tasks`` on one worker pool, recording values in task order.

    A task's value goes to ``record`` (and its profile, under
    ``metrics``, into the active profiler) once it and every earlier task
    are done.  The first error in that order — the trial's own exception,
    or ``BrokenProcessPool`` when a worker died — cancels the tasks not
    yet started and is re-raised.
    """
    context = _pool_context()
    config = _worker_config(context)
    obs = obs_config.active()
    shard_counter = (
        obs.shard_counter(context)
        if config is not None and config.artifacts()
        else None
    )
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(tasks)),
        mp_context=context,
        initializer=_worker_init,
        initargs=(config, shard_counter),
    ) as pool:
        futures = [
            pool.submit(_run_task_in_worker, trial, task.args, task.label)
            for task in tasks
        ]
        try:
            for task, future in zip(tasks, futures):
                value, profile = future.result()
                if profile is not None:
                    obs.profiler.merge_snapshot(profile)
                record(task, value)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


# ----------------------------------------------------------------------
# One campaign: optional store, serial loop or worker pool
# ----------------------------------------------------------------------
def _run_campaign(
    trial: Callable[..., Any],
    tasks: Sequence[_Task],
    store: Optional[CampaignStore],
    jobs: int,
) -> Tuple[Dict[int, Any], Set[int]]:
    """Run a keyed campaign, against a content-addressed store if given.

    Returns ``(values_by_key, hit_keys)``.  Tasks whose digest already
    has an entry are satisfied from the store (they run no simulator, so
    an active profiler sees nothing of them); every other task executes —
    in order on this thread with ``jobs=1``, else through
    :func:`_execute_parallel` — and is written through as it completes,
    so a campaign stopped by an error or a kill resumes from the trials
    it finished.
    """
    values: Dict[int, Any] = {}
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
            entry = store.get(digests[task.key])
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
        _execute_parallel(trial, misses, jobs, record)
    return values, hit_keys


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One parameter point's slice of a sweep.

    Attributes:
        point: The parameter-point object handed to :func:`run_sweep`.
        label: Human label used in profiles.
        results: Per-seed trial return values, in seed order.
        seeds: The seeds behind ``results`` (same order).
        cache_hits: Seeds satisfied from a campaign store instead of
            being executed (``None`` when the sweep ran without a store).
        executed: Seeds actually executed this campaign (store sweeps
            only): ``cache_hits + executed == len(seeds)``.
    """

    point: Any
    label: str
    results: Tuple[Any, ...]
    seeds: Tuple[int, ...]
    cache_hits: Optional[int] = None
    executed: Optional[int] = None


def run_sweep(
    trial: SweepTrialFn,
    points: Sequence[Any],
    seeds: Optional[Iterable[int]] = None,
    jobs: int = 1,
    label_fn: Optional[Callable[[Any], str]] = None,
    store: Optional[Any] = None,
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
    pass plain dicts of scalars and return plain JSON dicts.  At every
    ``jobs`` a trial that raises, or whose worker dies, stops the sweep
    with that error.

    ``label_fn(point)`` names each point in profiles (trials are
    labelled ``"<point-label> seed <seed>"``).  Under an active
    ``ObsConfig(metrics=True)`` (CLI ``--metrics``), each trial's
    simulator runs carry that label — also for trials that ran in
    workers.

    ``seeds`` defaults to :data:`DEFAULT_SEEDS`; an empty list raises
    :class:`ConfigurationError`.  ``jobs`` reads as in
    :func:`worker_count`: 0 means one worker per CPU core, and a negative
    value raises :class:`ConfigurationError`.

    ``store`` (a path or :class:`~repro.experiments.store.CampaignStore`;
    default: none) makes the campaign durable: every (point, seed) trial
    is keyed by its content digest, completed trials persist across
    process restarts, and a re-run sweep skips cached trials while
    producing bit-identical :class:`SweepPoint` results; each point's
    ``cache_hits``/``executed`` fields say how much came from the store.
    """
    jobs = worker_count(jobs)
    seeds = list(DEFAULT_SEEDS if seeds is None else seeds)
    if not seeds:
        raise ConfigurationError(
            "seeds must name at least one seed, got an empty list"
        )
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
    values, hit_keys = _run_campaign(trial, tasks, campaign_store, jobs)

    sweep = []
    for point_index, point in enumerate(points):
        keys = range(point_index * len(seeds), (point_index + 1) * len(seeds))
        hits = len(hit_keys.intersection(keys))
        sweep.append(
            SweepPoint(
                point=point,
                label=labels[point_index],
                results=tuple(values[key] for key in keys),
                seeds=tuple(seeds),
                cache_hits=hits if campaign_store is not None else None,
                executed=(
                    len(seeds) - hits if campaign_store is not None else None
                ),
            )
        )
    return sweep


def point_mean(
    sweep_point: SweepPoint, key: str, ndigits: Optional[int] = None
) -> float:
    """Mean of one field over a point's per-seed result dicts."""
    values = [result[key] for result in sweep_point.results]
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
