"""Radio topology for building-scale (multihop) deployments.

The paper's BubbleZERO lab is a single broadcast cell, but its stated
future work is "improving the scalability of BubbleZERO, including the
extension to multihop networking conditions … so as to support building
level deployment" (paper §VII).  This module provides the geometric
substrate: node placements, range-limited connectivity, and standard
deployment generators (a corridor of BubbleZERO-like rooms).

Connectivity is disk-graph: two nodes hear each other iff their distance
is at most the radio range.  The graph is held as a ``networkx.Graph``
so routing layers can run standard algorithms on it.  ``networkx`` is
imported only when a topology is built: the paper's single-cell lab
never builds one, so ``import repro`` does not need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class NodePlacement:
    """One radio node at a planar position."""

    node_id: str
    x: float
    y: float

    def distance_to(self, other: "NodePlacement") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


class RadioTopology:
    """Disk-graph connectivity over a set of placements."""

    def __init__(self, placements: Sequence[NodePlacement],
                 radio_range_m: float) -> None:
        if radio_range_m <= 0:
            raise ValueError("radio range must be positive")
        ids = [p.node_id for p in placements]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids in placement list")
        import networkx as nx

        self.radio_range_m = radio_range_m
        self._placements: Dict[str, NodePlacement] = {
            p.node_id: p for p in placements}
        self.graph = nx.Graph()
        for p in placements:
            self.graph.add_node(p.node_id, pos=(p.x, p.y))
        items = list(placements)
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                distance = a.distance_to(b)
                if distance <= radio_range_m:
                    self.graph.add_edge(a.node_id, b.node_id,
                                        distance=distance)

    # ------------------------------------------------------------------
    @property
    def node_ids(self) -> List[str]:
        return sorted(self._placements)

    def placement_of(self, node_id: str) -> NodePlacement:
        return self._placements[node_id]

    def neighbors(self, node_id: str) -> List[str]:
        """Nodes within radio range of ``node_id``."""
        return sorted(self.graph.neighbors(node_id))

    def in_range(self, a: str, b: str) -> bool:
        return self.graph.has_edge(a, b)

    def is_connected(self) -> bool:
        import networkx as nx

        return nx.is_connected(self.graph)

    def hop_distance(self, a: str, b: str) -> Optional[int]:
        """Shortest hop count between two nodes, or None if partitioned."""
        import networkx as nx

        try:
            return nx.shortest_path_length(self.graph, a, b)
        except nx.NetworkXNoPath:
            return None

    def diameter_hops(self) -> int:
        if not self.is_connected():
            raise ValueError("topology is partitioned")
        import networkx as nx

        return nx.diameter(self.graph)

    def steiner_tree_edges(self, terminals: Iterable[str]
                           ) -> List[Tuple[str, str]]:
        """Edges of an (approximate) multicast tree spanning ``terminals``.

        Uses the classic shortest-path-union heuristic: union of the
        shortest paths from the first terminal to every other; the
        result is a connected subgraph covering all terminals, pruned
        to a tree.
        """
        import networkx as nx

        terminals = sorted(set(terminals))
        if len(terminals) < 2:
            return []
        subgraph_nodes = set()
        root = terminals[0]
        for terminal in terminals[1:]:
            path = nx.shortest_path(self.graph, root, terminal)
            subgraph_nodes.update(path)
        tree = nx.minimum_spanning_tree(
            self.graph.subgraph(subgraph_nodes))
        return sorted((min(a, b), max(a, b)) for a, b in tree.edges)


def bubble_deployment(topology, seed: int = 0,
                      sensor_scatter_m: float = 0.8) -> List[NodePlacement]:
    """Node placements for a declarative scenario topology.

    Takes a :class:`~repro.scenarios.topology.SystemTopology` and
    returns one placement per device in its roster — the singleton
    boards near the room centre, the per-zone boards at their zone
    centre, and each zone's bt-sensor nodes jittered around the centre
    by at most ``sensor_scatter_m`` — so the radio-layer studies can
    run on exactly the device ids a built system will carry.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    cx = topology.length_m / 2.0
    cy = topology.width_m / 2.0
    centers = topology.zone_centers
    placements: List[NodePlacement] = []
    for board_id in topology.board_ids():
        suffix = board_id.rsplit("-", 1)[-1]
        if suffix.isdigit():
            x, y = centers[int(suffix)]
        else:
            x, y = cx, cy
        placements.append(NodePlacement(board_id, float(x), float(y)))
    sensors_per_zone = len(topology.sensor_node_ids()) // topology.zone_count
    for zone, (zx, zy) in enumerate(centers):
        for s in range(sensors_per_zone):
            node_id = topology.sensor_node_ids()[
                zone * sensors_per_zone + s]
            placements.append(NodePlacement(
                node_id,
                float(zx + rng.uniform(-sensor_scatter_m,
                                       sensor_scatter_m)),
                float(zy + rng.uniform(-sensor_scatter_m,
                                       sensor_scatter_m))))
    return placements


def corridor_deployment(rooms: int, sensors_per_room: int = 3,
                        room_pitch_m: float = 12.0,
                        room_width_m: float = 6.0,
                        seed: int = 0) -> List[NodePlacement]:
    """A corridor of BubbleZERO-like rooms for building-scale studies.

    Each room contributes one controller node (at the room centre) and
    ``sensors_per_room`` sensor nodes spread within the room.  Rooms are
    laid out along a corridor at ``room_pitch_m`` spacing, so with the
    default TelosB-indoor range only adjacent rooms hear each other.
    """
    if rooms < 1:
        raise ValueError("need at least one room")
    import numpy as np
    rng = np.random.default_rng(seed)
    placements: List[NodePlacement] = []
    for room in range(rooms):
        cx = room * room_pitch_m
        placements.append(NodePlacement(f"room{room}/ctrl", cx, 0.0))
        for s in range(sensors_per_room):
            placements.append(NodePlacement(
                f"room{room}/sensor{s}",
                cx + float(rng.uniform(-room_width_m / 2, room_width_m / 2)),
                float(rng.uniform(-room_width_m / 2, room_width_m / 2))))
    return placements
