"""Experiment harness: scenarios, workloads, sweeps, figure modules."""

from repro.experiments.runner import (
    DEFAULT_SEEDS,
    SweepPoint,
    check_scale,
    point_mean,
    render_table,
    run_sweep,
    seed_list,
    worker_count,
)
from repro.experiments.store import (
    CampaignStore,
    StoreEntry,
    canonical_params,
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
    "build_campus_scenario",
    "build_grid_scenario",
    "canonical_params",
    "check_scale",
    "distribute_chunks",
    "distribute_metadata",
    "generate_metadata",
    "make_video_item",
    "point_mean",
    "render_table",
    "resolve_store",
    "run_sweep",
    "seed_list",
    "task_digest",
    "sensor_descriptor",
    "simulation_device_config",
    "worker_count",
]
