"""Every event the kernel fires was scheduled through ``Simulator.schedule``
or ``Simulator.at``.

perfbench charges each fired callback to its layer by wrapping those two
methods (``perfbench/layers.py``, ``REGISTRARS``).  A hot path that pushes
onto the event queue some other way would fire untagged callbacks, and
their time would land in the wrong layer.  Here both methods tag the
callbacks they schedule, and the tagged fires must add up to every event
``Simulator.run`` processed, on a grid PDD run and a PDR and an MDR run.
"""

import functools

import pytest

from repro.core.rounds import RoundConfig
from repro.experiments.figures.common import pdd_experiment, retrieval_experiment
from repro.experiments.workload import make_video_item
from repro.sim.simulator import Simulator


@pytest.fixture
def tally(monkeypatch):
    counts = {"tagged": 0, "processed": 0}

    def tagging(method):
        @functools.wraps(method)
        def wrapper(self, when, callback, *args, **kwargs):
            def tagged(*cb_args):
                counts["tagged"] += 1
                return callback(*cb_args)

            return method(self, when, tagged, *args, **kwargs)

        return wrapper

    run = Simulator.run

    @functools.wraps(run)
    def counting_run(self, *args, **kwargs):
        processed = run(self, *args, **kwargs)
        counts["processed"] += processed
        return processed

    monkeypatch.setattr(Simulator, "schedule", tagging(Simulator.schedule))
    monkeypatch.setattr(Simulator, "at", tagging(Simulator.at))
    monkeypatch.setattr(Simulator, "run", counting_run)
    return counts


def test_grid_pdd_fires_only_tagged_callbacks(tally):
    outcome = pdd_experiment(
        1, rows=4, cols=4, metadata_count=120, round_config=RoundConfig(max_rounds=2)
    )
    assert outcome.first.recall > 0
    assert tally["processed"] > 500
    assert tally["tagged"] == tally["processed"]


@pytest.mark.parametrize("method", ["pdr", "mdr"])
def test_retrieval_fires_only_tagged_callbacks(tally, method):
    outcome = retrieval_experiment(
        2, make_video_item(1024 * 1024), method=method, rows=4, cols=4
    )
    assert outcome.first.recall == 1.0
    assert tally["processed"] > 500
    assert tally["tagged"] == tally["processed"]
