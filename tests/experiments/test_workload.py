"""Unit tests for workload generation and distribution."""

import random

import pytest

from repro.data import attributes as attr
from repro.experiments.scenario import build_grid_scenario
from repro.experiments.workload import (
    distribute_chunks,
    distribute_metadata,
    generate_metadata,
    make_video_item,
    sensor_descriptor,
)


def test_sensor_descriptors_distinct():
    entries = generate_metadata(500)
    assert len(set(entries)) == 500


def test_generate_metadata_shares_one_count_set():
    """Calls for one count share descriptors, never the list; a new count
    replaces the kept set."""
    first = generate_metadata(40)
    second = generate_metadata(40)
    assert first is not second
    assert all(a is b for a, b in zip(first, second))
    assert first == [sensor_descriptor(i) for i in range(40)]
    first.clear()
    first.append(sensor_descriptor(99))
    third = generate_metadata(40)
    assert len(third) == 40 and all(a is b for a, b in zip(second, third))
    other = generate_metadata(41)
    assert other == [sensor_descriptor(i) for i in range(41)]
    assert other[0] is not second[0]
    again = generate_metadata(40)
    assert again == second
    assert again[0] is not second[0]


def test_sensor_descriptor_is_compact():
    """≈30 B per entry, as in §VI-A."""
    entry = sensor_descriptor(3)
    assert 25 <= entry.wire_size() <= 35


def test_distribute_metadata_redundancy():
    scenario = build_grid_scenario(rows=3, cols=3, seed=1)
    entries = generate_metadata(50)
    placement = distribute_metadata(
        scenario.devices, entries, random.Random(1), redundancy=2
    )
    for entry, holders in placement.items():
        assert len(holders) == 2
        assert len(set(holders)) == 2
        for node in holders:
            assert scenario.devices[node].store.has_metadata(entry)


def test_distribute_metadata_exclusion():
    scenario = build_grid_scenario(rows=3, cols=3, seed=1)
    consumer = scenario.consumers[0]
    entries = generate_metadata(30)
    placement = distribute_metadata(
        scenario.devices, entries, random.Random(1), exclude=[consumer]
    )
    assert all(consumer not in holders for holders in placement.values())


def test_distribute_metadata_all_excluded_raises():
    scenario = build_grid_scenario(rows=2, cols=2, seed=1)
    with pytest.raises(ValueError):
        distribute_metadata(
            scenario.devices,
            generate_metadata(1),
            random.Random(1),
            exclude=list(scenario.devices),
        )


def test_make_video_item_chunks():
    item = make_video_item(20 * 1024 * 1024)
    assert item.total_chunks == 80
    assert item.descriptor.get(attr.TOTAL_CHUNKS) == 80


def test_distribute_chunks_covers_every_chunk():
    scenario = build_grid_scenario(rows=3, cols=3, seed=1)
    item = make_video_item(1024 * 1024)
    placement = distribute_chunks(
        scenario.devices, item, random.Random(1), redundancy=3
    )
    assert set(placement) == set(range(item.total_chunks))
    for chunk_id, holders in placement.items():
        assert len(holders) == 3
        descriptor = item.descriptor.chunk_descriptor(chunk_id)
        for node in holders:
            assert scenario.devices[node].store.has_chunk(descriptor)


def test_distribute_chunks_redundancy_capped_by_population():
    scenario = build_grid_scenario(rows=2, cols=2, seed=1)
    item = make_video_item(512 * 1024)
    placement = distribute_chunks(
        scenario.devices, item, random.Random(1), redundancy=10
    )
    assert all(len(holders) == 4 for holders in placement.values())

