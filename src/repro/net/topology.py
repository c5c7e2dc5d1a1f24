"""Node placement and the neighbor relation.

The topology tracks a position per node and derives connectivity from a
disk model: two nodes are neighbors iff their distance is at most
``radio_range``.  Mobility models move nodes by calling :meth:`move`;
join/leave events add and remove nodes.  A 10×10 grid spaced so each node
reaches its 8 surrounding neighbors is the paper's static scenario (§VI-A).

Range queries run on a uniform-grid spatial index (cell side =
``radio_range``), so :meth:`neighbors`/:meth:`nodes_within` cost
O(occupancy of the covering cells) instead of O(N).  Results are memoized
per ``(node, radius)`` and invalidated *incrementally*: a move only evicts
the entries of nodes near the old or new position, so one walking node no
longer wipes the neighbor knowledge of the whole area.  Query results are
returned as fresh lists — callers may mutate them freely without poisoning
the shared cache — and their element order is the node *insertion* order,
exactly what the previous brute-force scan over the position dict yielded,
which keeps event orderings (and therefore whole simulations)
bit-identical to the unindexed implementation.  Hot read-only callers
(the medium's carrier sense) read the memoised list itself through
:meth:`Topology.nodes_within_memo`.
"""

from __future__ import annotations

import itertools
import math
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.errors import TopologyError

NodeId = int
Position = Tuple[float, float]

Cell = Tuple[int, int]

#: Hard caps keeping the memo bounded for pathological workloads (many
#: distinct query radii, or huge populations): blow past either and the
#: memo is simply dropped and rebuilt on demand.
_MAX_CACHED_RADII = 16
_MAX_CACHED_ENTRIES = 1 << 17


class Topology:
    """Mutable set of node positions with disk-model connectivity."""

    def __init__(self, radio_range: float) -> None:
        if radio_range <= 0:
            raise TopologyError(f"radio range must be positive, got {radio_range}")
        self.radio_range = radio_range
        self._positions: Dict[NodeId, Position] = {}
        #: Live read-only view of ``node -> position``: ``node in
        #: topology.positions`` tests presence in C, without the Python
        #: call that ``node in topology`` costs.
        self.positions: Mapping[NodeId, Position] = MappingProxyType(self._positions)
        #: Bumped on every mutation; range-query caches key off it.
        self.version = 0
        #: Uniform grid: cell -> ids of nodes inside it.
        self._cell_size = radio_range
        self._cells: Dict[Cell, Set[NodeId]] = {}
        self._cell_of: Dict[NodeId, Cell] = {}
        #: Monotonic insertion index per node; range-query results are
        #: sorted by it to reproduce position-dict iteration order.
        self._order: Dict[NodeId, int] = {}
        self._order_counter = itertools.count()
        #: radius -> node -> cached ``nodes_within`` result.
        self._range_cache: Dict[float, Dict[NodeId, List[NodeId]]] = {}
        self._cache_entries = 0

    # ------------------------------------------------------------------
    # Spatial index internals
    # ------------------------------------------------------------------
    def _cell(self, position: Position) -> Cell:
        size = self._cell_size
        return (math.floor(position[0] / size), math.floor(position[1] / size))

    def _index_add(self, node_id: NodeId, position: Position) -> None:
        cell = self._cell(position)
        self._cells.setdefault(cell, set()).add(node_id)
        self._cell_of[node_id] = cell
        self._order[node_id] = next(self._order_counter)

    def _index_remove(self, node_id: NodeId) -> None:
        cell = self._cell_of.pop(node_id)
        bucket = self._cells[cell]
        bucket.discard(node_id)
        if not bucket:
            del self._cells[cell]
        del self._order[node_id]

    def _index_move(self, node_id: NodeId, position: Position) -> None:
        old = self._cell_of[node_id]
        new = self._cell(position)
        if new == old:
            return
        bucket = self._cells[old]
        bucket.discard(node_id)
        if not bucket:
            del self._cells[old]
        self._cells.setdefault(new, set()).add(node_id)
        self._cell_of[node_id] = new

    def _candidates(self, position: Position, radius: float) -> Iterable[NodeId]:
        """Ids in every cell overlapping the disk (a superset of the disk)."""
        size = self._cell_size
        x, y = position
        cx0 = math.floor((x - radius) / size)
        cx1 = math.floor((x + radius) / size)
        cy0 = math.floor((y - radius) / size)
        cy1 = math.floor((y + radius) / size)
        cells = self._cells
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                bucket = cells.get((cx, cy))
                if bucket:
                    yield from bucket

    # ------------------------------------------------------------------
    # Cache maintenance
    # ------------------------------------------------------------------
    def _cache_store(self, radius: float, node_id: NodeId, result: List[NodeId]) -> None:
        per_radius = self._range_cache.get(radius)
        if per_radius is None:
            if len(self._range_cache) >= _MAX_CACHED_RADII:
                self._range_cache.clear()
                self._cache_entries = 0
            per_radius = self._range_cache[radius] = {}
        if self._cache_entries >= _MAX_CACHED_ENTRIES:
            for entries in self._range_cache.values():
                entries.clear()
            self._cache_entries = 0
        per_radius[node_id] = result
        self._cache_entries += 1

    def _evict_near(self, positions: Tuple[Position, ...], node_id: NodeId) -> None:
        """Incremental invalidation: drop entries whose result may change.

        A cached ``(other, radius)`` entry is stale only if ``node_id``'s
        membership in the ``radius``-disk around ``other`` may have changed,
        i.e. ``other`` lies within ``radius`` of one of ``positions`` (the
        moved node's old/new spot).  The grid gives a cheap superset of
        those nodes; evicting the superset is conservative and keeps every
        surviving entry exact.
        """
        for radius, entries in self._range_cache.items():
            if not entries:
                continue
            if entries.pop(node_id, None) is not None:
                self._cache_entries -= 1
            for position in positions:
                for other in self._candidates(position, radius):
                    if entries.pop(other, None) is not None:
                        self._cache_entries -= 1

    # ------------------------------------------------------------------
    def add_node(self, node_id: NodeId, position: Position) -> None:
        """Place a new node.

        Raises:
            TopologyError: if the node already exists.
        """
        if node_id in self._positions:
            raise TopologyError(f"node {node_id} already in topology")
        position = (float(position[0]), float(position[1]))
        self._positions[node_id] = position
        self._index_add(node_id, position)
        self.version += 1
        self._evict_near((position,), node_id)

    def remove_node(self, node_id: NodeId) -> None:
        """Remove a node (e.g. user left the area)."""
        position = self._positions.pop(node_id, None)
        if position is None:
            raise TopologyError(f"node {node_id} not in topology")
        self._index_remove(node_id)
        self.version += 1
        self._evict_near((position,), node_id)

    def move(self, node_id: NodeId, position: Position) -> None:
        """Update a node's position."""
        old = self._positions.get(node_id)
        if old is None:
            raise TopologyError(f"node {node_id} not in topology")
        position = (float(position[0]), float(position[1]))
        self._positions[node_id] = position
        self._index_move(node_id, position)
        self.version += 1
        self._evict_near((old, position), node_id)

    # ------------------------------------------------------------------
    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._positions

    def __len__(self) -> int:
        return len(self._positions)

    def nodes(self) -> List[NodeId]:
        """All node ids currently present."""
        return list(self._positions)

    def position(self, node_id: NodeId) -> Position:
        """Current position of ``node_id``."""
        try:
            return self._positions[node_id]
        except KeyError:
            raise TopologyError(f"node {node_id} not in topology") from None

    def distance(self, a: NodeId, b: NodeId) -> float:
        """Euclidean distance between two nodes."""
        ax, ay = self.position(a)
        bx, by = self.position(b)
        return math.hypot(ax - bx, ay - by)

    def in_range(self, a: NodeId, b: NodeId) -> bool:
        """Whether ``a`` and ``b`` can hear each other (a != b)."""
        if a == b:
            return False
        positions = self._positions
        pa = positions.get(a)
        pb = positions.get(b)
        if pa is None or pb is None:
            return False
        return math.hypot(pa[0] - pb[0], pa[1] - pb[1]) <= self.radio_range

    def within(self, a: NodeId, b: NodeId, radius: float) -> bool:
        """Whether ``a`` and ``b`` are both present and within ``radius``.

        Like :meth:`in_range` with a caller-chosen radius (e.g. the
        carrier-sense range); absent nodes are never within any radius.
        """
        positions = self._positions
        pa = positions.get(a)
        pb = positions.get(b)
        if pa is None or pb is None:
            return False
        return math.hypot(pa[0] - pb[0], pa[1] - pb[1]) <= radius

    def nodes_within(self, node_id: NodeId, radius: float) -> List[NodeId]:
        """All other nodes within ``radius`` of ``node_id``.

        Served from the spatial index (and a per-``(node, radius)`` memo
        with incremental invalidation under mobility).  The returned list
        is the caller's to keep and mutate; element order is node insertion
        order, identical to a brute-force scan of the position dict.
        """
        if node_id not in self._positions:
            return []
        return self.nodes_within_memo(node_id, radius).copy()

    def nodes_within_memo(self, node_id: NodeId, radius: float) -> List[NodeId]:
        """:meth:`nodes_within` without the copy: the memoised list itself.

        For hot read-only callers.  The caller must not mutate the list,
        and ``node_id`` must be present.  The list stays exact until the
        next mutation of the topology.
        """
        per_radius = self._range_cache.get(radius)
        if per_radius is not None:
            cached = per_radius.get(node_id)
            if cached is not None:
                return cached
        x, y = self._positions[node_id]
        positions = self._positions
        result = []
        for other in self._candidates((x, y), radius):
            if other == node_id:
                continue
            ox, oy = positions[other]
            if math.hypot(x - ox, y - oy) <= radius:
                result.append(other)
        order = self._order
        result.sort(key=order.__getitem__)
        self._cache_store(radius, node_id, result)
        return result

    def neighbors(self, node_id: NodeId) -> List[NodeId]:
        """All nodes within radio range of ``node_id``."""
        return self.nodes_within(node_id, self.radio_range)

    # ------------------------------------------------------------------
    def hop_distance(self, source: NodeId, target: NodeId) -> Optional[int]:
        """Fewest hops from source to target, or None if disconnected.

        BFS over the current connectivity graph; used by tests and metrics,
        never by the protocol itself (nodes have no global knowledge).
        """
        if source == target:
            return 0
        visited = {source}
        frontier = [source]
        hops = 0
        while frontier:
            hops += 1
            next_frontier = []
            for node in frontier:
                for neighbor in self.neighbors(node):
                    if neighbor in visited:
                        continue
                    if neighbor == target:
                        return hops
                    visited.add(neighbor)
                    next_frontier.append(neighbor)
            frontier = next_frontier
        return None

    def is_connected(self) -> bool:
        """Whether the current graph is a single connected component."""
        nodes = self.nodes()
        if len(nodes) <= 1:
            return True
        start = nodes[0]
        visited = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbor in self.neighbors(node):
                if neighbor not in visited:
                    visited.add(neighbor)
                    frontier.append(neighbor)
        return len(visited) == len(nodes)


def grid_spacing_for_8_neighbors(radio_range: float) -> float:
    """Grid spacing such that diagonal neighbors are just in range.

    With spacing ``s``, the 8 surrounding neighbors lie at distance ``s`` or
    ``s*sqrt(2)``; the next ring starts at ``2s``.  Any ``s`` with
    ``range/2 < s <= range/sqrt(2)`` works; we centre the window.
    """
    return radio_range / 1.6


def build_grid(
    rows: int,
    cols: int,
    radio_range: float = 40.0,
    spacing: Optional[float] = None,
    first_id: NodeId = 0,
) -> Tuple[Topology, List[NodeId]]:
    """A rows×cols grid where each node reaches its 8 surrounding neighbors.

    Returns:
        ``(topology, node_ids)`` with node ids assigned row-major.
    """
    if rows <= 0 or cols <= 0:
        raise TopologyError(f"grid must be non-empty, got {rows}x{cols}")
    if spacing is None:
        spacing = grid_spacing_for_8_neighbors(radio_range)
    if spacing * math.sqrt(2) > radio_range:
        raise TopologyError(
            f"spacing {spacing} too wide for radio range {radio_range}: "
            "diagonal neighbors would be out of range"
        )
    if 2 * spacing <= radio_range:
        raise TopologyError(
            f"spacing {spacing} too tight for radio range {radio_range}: "
            "nodes two columns away would be in range"
        )
    topology = Topology(radio_range)
    node_ids: List[NodeId] = []
    node_id = first_id
    for row in range(rows):
        for col in range(cols):
            topology.add_node(node_id, (col * spacing, row * spacing))
            node_ids.append(node_id)
            node_id += 1
    return topology, node_ids


def center_node(rows: int, cols: int, node_ids: List[NodeId]) -> NodeId:
    """The id of the node at the grid centre (the paper's consumer spot)."""
    return node_ids[(rows // 2) * cols + cols // 2]


def center_subgrid(
    rows: int, cols: int, node_ids: List[NodeId], sub: int = 5
) -> List[NodeId]:
    """Node ids of the central ``sub×sub`` subgrid (§VI-A consumer pool)."""
    sub = min(sub, rows, cols)
    row0 = (rows - sub) // 2
    col0 = (cols - sub) // 2
    picked = []
    for row in range(row0, row0 + sub):
        for col in range(col0, col0 + sub):
            picked.append(node_ids[row * cols + col])
    return picked
