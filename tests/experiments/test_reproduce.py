"""Each figure's one entry point: ``reproduce(scale, seeds, jobs, store)``.

The scale rules are pinned as literals: at 1.0 every rule must hand
``run()`` its paper-scale default, and at 0.25 the workload the
benchmark suite has always run at its default scale.
"""

import inspect

import pytest

from repro.cli import main
from repro.experiments.figures import REGISTRY
from repro.experiments.runner import SweepPoint
from repro.experiments.store import canonical_params, task_digest

MB = 1024 * 1024

#: figure id -> (the ``run()`` parameter its scale rule sets, value at 0.25)
AT_QUARTER_SCALE = {
    "fig3": ("packets_per_sender", 6000),
    "lbparams": ("packets_per_sender", 4000),
    "retrparams": ("packets_per_sender", 4000),
    "saturation": ("amounts", (625, 1250, 2500, 5000)),
    "fig4": ("entries_per_node", 25),
    "fig5": ("metadata_count", 1250),
    "fig6": ("amounts", (1250, 2500, 3750, 5000)),
    "fig7": ("metadata_count", 1250),
    "fig8": ("metadata_count", 1250),
    "fig9_10": ("metadata_count", 1250),
    "fig11": ("sizes", (MB // 2, 1310720, 2621440, 5 * MB)),
    "fig12": ("item_size", 5 * MB),
    "fig13_14": ("item_size", 5 * MB),
    "fig15": ("item_size", 5 * MB),
    "fig16": ("item_size", 5 * MB),
}


def test_every_figure_has_a_pinned_scale_rule():
    assert set(AT_QUARTER_SCALE) == set(REGISTRY)


def _capture_run(monkeypatch, module):
    """Stub ``module.run``; returns each call's bound arguments."""
    signature = inspect.signature(module.run)
    calls = []

    def run(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return []

    monkeypatch.setattr(module, "run", run)
    return calls


@pytest.mark.parametrize("figure_id", sorted(REGISTRY))
def test_scale_flag_reaches_run(monkeypatch, capsys, figure_id):
    param, expected = AT_QUARTER_SCALE[figure_id]
    calls = _capture_run(monkeypatch, REGISTRY[figure_id])
    assert main([figure_id, "--scale", "0.25", "--seeds", "1"]) == 0
    assert calls
    for arguments in calls:
        assert arguments[param] == expected
        assert list(arguments["seeds"]) == [1]


@pytest.mark.parametrize("scale", [0.1, 0.25])
@pytest.mark.parametrize("figure_id", sorted(REGISTRY))
def test_reduced_scale_sweeps_have_distinct_points(monkeypatch, figure_id, scale):
    """No scale rule's floor makes a sweep run the same point twice."""
    calls = _capture_run(monkeypatch, REGISTRY[figure_id])
    REGISTRY[figure_id].reproduce(scale)
    assert calls
    for arguments in calls:
        for name, value in arguments.items():
            if name != "seeds" and isinstance(value, (list, tuple)):
                assert len(set(value)) == len(value), (name, value)


@pytest.mark.parametrize("figure_id", sorted(REGISTRY))
def test_scale_rule_at_paper_scale_is_run_defaults(monkeypatch, figure_id):
    module = REGISTRY[figure_id]
    param, _ = AT_QUARTER_SCALE[figure_id]
    default = inspect.signature(module.run).parameters[param].default
    calls = _capture_run(monkeypatch, module)
    module.reproduce(1.0)
    assert calls
    for arguments in calls:
        assert arguments[param] == default
        assert arguments["jobs"] == 1 and arguments["store"] is None


class _AnyResult(dict):
    """A stand-in trial value: every field reads 0.0, every per-consumer
    entry (an int index) another stand-in."""

    def __missing__(self, key):
        return _AnyResult() if isinstance(key, int) else 0.0


@pytest.mark.parametrize("figure_id", sorted(REGISTRY))
def test_sweep_point_keys_differ_between_scales(monkeypatch, figure_id):
    """Every scaled value is a sweep-point field, so a store shared by
    runs at different scales serves a trial only to the same workload."""
    module = REGISTRY[figure_id]
    param, expected = AT_QUARTER_SCALE[figure_id]
    default = inspect.signature(module.run).parameters[param].default
    keys = {}

    def run_sweep(trial, points, seeds=None, **kwargs):
        for point in points:
            keys[task_digest(trial, (point, 1))] = canonical_params(point)
        return [
            SweepPoint(point=point, label="", results=(_AnyResult(),), seeds=(1,))
            for point in points
        ]

    monkeypatch.setattr(module, "run_sweep", run_sweep)
    module.reproduce(1.0)
    paper = dict(keys)
    keys.clear()
    module.reproduce(0.25)
    quarter = dict(keys)
    for digest in set(paper) & set(quarter):
        assert paper[digest] == quarter[digest]
    if expected == default:
        # The rule's floor keeps this workload at paper scale.
        assert quarter == paper
    else:
        assert set(quarter) != set(paper)
        assert set(quarter.values()) != set(paper.values())
