"""Experiment harness: scenarios, workloads, metrics, figure modules."""

from repro.experiments.metrics import TrialFailure
from repro.experiments.runner import (
    DEFAULT_SEEDS,
    SweepPoint,
    TrialTimeout,
    configured_jobs,
    configured_seeds,
    configured_trial_timeout,
    point_mean,
    render_table,
    run_sweep,
    scale_factor,
)
from repro.experiments.store import (
    CampaignStore,
    StoreEntry,
    canonical_params,
    configured_store_path,
    resolve_store,
    task_digest,
)
from repro.experiments.scenario import (
    DEFAULT_RADIO_RANGE,
    Scenario,
    build_campus_scenario,
    build_grid_scenario,
    simulation_device_config,
)
from repro.experiments.workload import (
    distribute_chunks,
    distribute_metadata,
    generate_metadata,
    make_video_item,
    sensor_descriptor,
)

__all__ = [
    "CampaignStore",
    "DEFAULT_RADIO_RANGE",
    "DEFAULT_SEEDS",
    "Scenario",
    "StoreEntry",
    "SweepPoint",
    "TrialFailure",
    "TrialTimeout",
    "build_campus_scenario",
    "build_grid_scenario",
    "canonical_params",
    "configured_jobs",
    "configured_seeds",
    "configured_store_path",
    "configured_trial_timeout",
    "distribute_chunks",
    "distribute_metadata",
    "generate_metadata",
    "make_video_item",
    "point_mean",
    "render_table",
    "resolve_store",
    "run_sweep",
    "scale_factor",
    "task_digest",
    "sensor_descriptor",
    "simulation_device_config",
]
