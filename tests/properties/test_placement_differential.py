"""Differential test: batched metadata placement against per-entry placement.

:func:`reference_distribute_metadata` is ``distribute_metadata`` as it was
before it filled each holder's store with one batch: one ``rng.sample`` and
one ``Device.add_metadata`` per entry and copy.  Over random seeds,
populations on both sides of ``random.Random.sample``'s 21-element switch
between its pool and set-based paths, redundancies and exclusions, both
must return equal placements, leave every holder's metadata table equal in
order and values, and leave the placement RNG in the same state.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.descriptor import DataDescriptor
from repro.experiments.workload import distribute_metadata, sensor_descriptor
from repro.net.topology import NodeId
from repro.node.device import Device
from tests.helpers import make_net


def reference_distribute_metadata(
    devices: Dict[NodeId, Device],
    entries: Sequence[DataDescriptor],
    rng: random.Random,
    redundancy: int = 1,
    exclude: Sequence[NodeId] = (),
) -> Dict[DataDescriptor, List[NodeId]]:
    """The per-entry placement, kept verbatim as the model."""
    candidates = [node_id for node_id in devices if node_id not in exclude]
    if not candidates:
        raise ValueError("no nodes left to hold data after exclusions")
    placement: Dict[DataDescriptor, List[NodeId]] = {}
    copies = min(redundancy, len(candidates))
    for entry in entries:
        holders = rng.sample(candidates, copies)
        for node_id in holders:
            devices[node_id].add_metadata(entry)
        placement[entry] = holders
    return placement


def _devices(node_ids: List[int]) -> Dict[NodeId, Device]:
    return make_net({node_id: (float(node_id), 0.0) for node_id in node_ids}).devices


@st.composite
def placements(draw):
    node_ids = draw(
        st.lists(st.integers(0, 500), min_size=1, max_size=40, unique=True)
    )
    exclude = draw(st.lists(st.sampled_from(node_ids), unique=True))
    # Repeated indices make repeated entries, which both versions must
    # place (and skip re-inserting) alike.
    indices = draw(st.lists(st.integers(0, 60), max_size=80))
    return {
        "node_ids": node_ids,
        "exclude": exclude,
        "entries": [sensor_descriptor(index) for index in indices],
        "redundancy": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@example(
    case={
        "node_ids": list(range(21)),
        "exclude": [],
        "entries": [sensor_descriptor(i) for i in range(40)],
        "redundancy": 1,
        "seed": 7,
    }
)
@example(
    case={
        "node_ids": list(range(22)),
        "exclude": [3],
        "entries": [sensor_descriptor(i) for i in range(40)],
        "redundancy": 1,
        "seed": 7,
    }
)
@example(
    case={
        "node_ids": list(range(40)),
        "exclude": [],
        "entries": [sensor_descriptor(i) for i in range(60)],
        "redundancy": 3,
        "seed": 11,
    }
)
@given(placements())
@settings(max_examples=150)
def test_batched_placement_matches_per_entry_placement(case):
    node_ids = case["node_ids"]
    entries = case["entries"]
    options = {"redundancy": case["redundancy"], "exclude": case["exclude"]}
    devices = _devices(node_ids)
    reference_devices = _devices(node_ids)
    rng = random.Random(case["seed"])
    reference_rng = random.Random(case["seed"])

    if len(case["exclude"]) == len(node_ids):
        with pytest.raises(ValueError):
            distribute_metadata(devices, entries, rng, **options)
        with pytest.raises(ValueError):
            reference_distribute_metadata(reference_devices, entries, reference_rng, **options)
        return

    placement = distribute_metadata(devices, entries, rng, **options)
    expected = reference_distribute_metadata(reference_devices, entries, reference_rng, **options)
    assert placement == expected
    for node_id in node_ids:
        table = list(devices[node_id].store._metadata.items())
        assert table == list(reference_devices[node_id].store._metadata.items())
    assert rng.getstate() == reference_rng.getstate()


@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_choice_draws_as_a_one_element_sample(size, seed):
    """``choice`` and ``sample(..., 1)`` take one ``randbelow(n)`` on both
    of ``sample``'s paths (pool for n ≤ 21, set for n > 21)."""
    population = list(range(100, 100 + size))
    rng = random.Random(seed)
    reference = random.Random(seed)
    for _ in range(5):
        assert [rng.choice(population)] == reference.sample(population, 1)
    assert rng.getstate() == reference.getstate()
