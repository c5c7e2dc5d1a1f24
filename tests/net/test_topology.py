"""Unit tests for topology and grid construction."""

import math

import pytest

from repro.errors import TopologyError
from repro.net.topology import (
    Topology,
    build_grid,
    center_node,
    center_subgrid,
    grid_spacing_for_8_neighbors,
)


def test_add_and_remove_node():
    topo = Topology(10.0)
    topo.add_node(1, (0, 0))
    assert 1 in topo
    topo.remove_node(1)
    assert 1 not in topo


def test_positions_is_a_live_read_only_view():
    topo = Topology(10.0)
    view = topo.positions
    topo.add_node(1, (0, 0))
    topo.add_node(2, (3, 4))
    topo.move(2, (5, 5))
    topo.remove_node(1)
    assert dict(view) == {2: (5, 5)}
    assert (2 in view) == (2 in topo) and (1 in view) == (1 in topo)
    with pytest.raises(TypeError):
        view[3] = (0, 0)


def test_duplicate_add_rejected():
    topo = Topology(10.0)
    topo.add_node(1, (0, 0))
    with pytest.raises(TopologyError):
        topo.add_node(1, (1, 1))


def test_remove_unknown_rejected():
    with pytest.raises(TopologyError):
        Topology(10.0).remove_node(7)


def test_move_updates_connectivity():
    topo = Topology(10.0)
    topo.add_node(1, (0, 0))
    topo.add_node(2, (50, 0))
    assert not topo.in_range(1, 2)
    topo.move(2, (5, 0))
    assert topo.in_range(1, 2)


def test_distance():
    topo = Topology(10.0)
    topo.add_node(1, (0, 0))
    topo.add_node(2, (3, 4))
    assert topo.distance(1, 2) == 5.0


def test_node_not_in_range_of_itself():
    topo = Topology(10.0)
    topo.add_node(1, (0, 0))
    assert not topo.in_range(1, 1)


def test_neighbors_cache_invalidated_on_move():
    topo = Topology(10.0)
    topo.add_node(1, (0, 0))
    topo.add_node(2, (5, 0))
    assert topo.neighbors(1) == [2]
    topo.move(2, (100, 0))
    assert topo.neighbors(1) == []


def test_neighbors_cache_invalidated_on_add_remove():
    topo = Topology(10.0)
    topo.add_node(1, (0, 0))
    assert topo.neighbors(1) == []
    topo.add_node(2, (5, 0))
    assert topo.neighbors(1) == [2]
    topo.remove_node(2)
    assert topo.neighbors(1) == []


def test_nodes_within_radius():
    topo = Topology(10.0)
    topo.add_node(1, (0, 0))
    topo.add_node(2, (15, 0))
    topo.add_node(3, (25, 0))
    assert set(topo.nodes_within(1, 20.0)) == {2}
    assert set(topo.nodes_within(1, 30.0)) == {2, 3}


def test_invalid_range_rejected():
    with pytest.raises(TopologyError):
        Topology(0.0)


def test_hop_distance_line():
    topo = Topology(10.0)
    for i in range(4):
        topo.add_node(i, (i * 8.0, 0))
    assert topo.hop_distance(0, 0) == 0
    assert topo.hop_distance(0, 1) == 1
    assert topo.hop_distance(0, 3) == 3


def test_hop_distance_disconnected_is_none():
    topo = Topology(10.0)
    topo.add_node(1, (0, 0))
    topo.add_node(2, (100, 0))
    assert topo.hop_distance(1, 2) is None


def test_is_connected():
    topo = Topology(10.0)
    topo.add_node(1, (0, 0))
    assert topo.is_connected()
    topo.add_node(2, (5, 0))
    assert topo.is_connected()
    topo.add_node(3, (100, 0))
    assert not topo.is_connected()


# ----------------------------------------------------------------------
# Grid construction (§VI-A)
# ----------------------------------------------------------------------
def test_grid_node_count_and_ids():
    topo, ids = build_grid(3, 4, radio_range=40.0)
    assert len(topo) == 12
    assert ids == list(range(12))


def test_grid_has_exactly_8_neighbors_in_interior():
    """§VI-A: each node communicates with its 8 surrounding neighbors."""
    topo, ids = build_grid(5, 5, radio_range=40.0)
    center = center_node(5, 5, ids)
    assert len(topo.neighbors(center)) == 8


def test_grid_corner_has_3_neighbors():
    topo, ids = build_grid(5, 5, radio_range=40.0)
    assert len(topo.neighbors(ids[0])) == 3


def test_grid_max_hops_from_center():
    topo, ids = build_grid(11, 11, radio_range=40.0)
    center = center_node(11, 11, ids)
    hops = [topo.hop_distance(center, node) for node in ids]
    assert max(hops) == 5


def test_grid_spacing_constraints_enforced():
    with pytest.raises(TopologyError):
        build_grid(3, 3, radio_range=40.0, spacing=35.0)  # diagonal too far
    with pytest.raises(TopologyError):
        build_grid(3, 3, radio_range=40.0, spacing=15.0)  # 2-away in range


def test_grid_empty_rejected():
    with pytest.raises(TopologyError):
        build_grid(0, 5)


def test_default_spacing_valid():
    spacing = grid_spacing_for_8_neighbors(40.0)
    assert spacing * math.sqrt(2) <= 40.0
    assert 2 * spacing > 40.0


def test_center_node_of_10x10():
    _, ids = build_grid(10, 10, radio_range=40.0)
    assert center_node(10, 10, ids) == 55


def test_center_subgrid_5x5():
    _, ids = build_grid(10, 10, radio_range=40.0)
    sub = center_subgrid(10, 10, ids, sub=5)
    assert len(sub) == 25
    assert center_node(10, 10, ids) in sub


def test_center_subgrid_clamped_to_grid():
    _, ids = build_grid(3, 3, radio_range=40.0)
    assert len(center_subgrid(3, 3, ids, sub=5)) == 9
