"""Declarative building topology: zones, panels, rosters, coupling.

A :class:`SystemTopology` is the single data-driven description of a
building that the whole stack assembles itself from: the room model
takes the footprint and the inter-zone coupling graph, the plant takes
the panel->zone map and the door/window exposure weights, and the
network stack derives the sensor-node and control-board rosters.  The
default instance is the paper's BubbleZERO laboratory (6 m x 5 m x
2 m, four zones in a 2x2 grid, two radiant panels each serving one row
of the grid); an 8- or 32-zone building is one :func:`grid_topology`
call away.

This module deliberately imports nothing from the rest of ``repro`` so
every layer — including :mod:`repro.core.plant`, which sits near the
bottom of the import graph — can depend on it without cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

# Neighbouring zones exchange openness at this per-step falloff in
# grid_topology's distance-decay exposure model.
_EXPOSURE_DECAY = 0.3


@dataclass(frozen=True)
class SystemTopology:
    """Frozen description of one building; defaults are the paper lab.

    ``panel_zones`` maps each radiant ceiling panel to the tuple of
    zones it serves and must partition the zones exactly.  ``adjacency``
    is the undirected inter-zone coupling graph (conduction + bulk air
    mixing).  ``door_weights`` / ``window_weights`` split a door or
    window opening's bulk air exchange across zones by proximity to the
    opening (paper §V-A); each must sum to one.
    """

    name: str = "bubblezero-lab"
    zone_count: int = 4
    length_m: float = 6.0
    width_m: float = 5.0
    height_m: float = 2.0
    panel_zones: Tuple[Tuple[int, ...], ...] = ((0, 1), (2, 3))
    adjacency: Tuple[Tuple[int, int], ...] = ((0, 1), (0, 2), (1, 3), (2, 3))
    door_weights: Tuple[float, ...] = (0.55, 0.30, 0.09, 0.06)
    window_weights: Tuple[float, ...] = (0.09, 0.06, 0.55, 0.30)
    equipment_w: float = 40.0

    def __post_init__(self) -> None:
        # Normalise nested sequences to tuples so instances hash, pickle
        # and compare by value regardless of how they were declared.
        object.__setattr__(self, "panel_zones",
                           tuple(tuple(zones) for zones in self.panel_zones))
        object.__setattr__(self, "adjacency",
                           tuple(tuple(pair) for pair in self.adjacency))
        object.__setattr__(self, "door_weights", tuple(self.door_weights))
        object.__setattr__(self, "window_weights", tuple(self.window_weights))
        if self.zone_count < 1:
            raise ValueError("a building needs at least one zone")
        if min(self.length_m, self.width_m, self.height_m) <= 0:
            raise ValueError("building dimensions must be positive")
        served = [z for zones in self.panel_zones for z in zones]
        if sorted(served) != list(range(self.zone_count)):
            raise ValueError(
                "panel_zones must serve every zone exactly once; got "
                f"{self.panel_zones} for {self.zone_count} zones")
        seen = set()
        for i, j in self.adjacency:
            if i == j or not (0 <= i < self.zone_count
                              and 0 <= j < self.zone_count):
                raise ValueError(f"adjacency pair ({i}, {j}) is out of range")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate adjacency pair ({i}, {j})")
            seen.add(key)
        for label, weights in (("door", self.door_weights),
                               ("window", self.window_weights)):
            if len(weights) != self.zone_count:
                raise ValueError(f"{label}_weights must list every zone")
            if min(weights) < 0:
                raise ValueError(f"{label}_weights must be non-negative")
            if not math.isclose(sum(weights), 1.0, rel_tol=0, abs_tol=1e-9):
                raise ValueError(f"{label}_weights must sum to 1")

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def panel_count(self) -> int:
        return len(self.panel_zones)

    @property
    def volume_m3(self) -> float:
        return self.length_m * self.width_m * self.height_m

    def panel_of(self, zone: int) -> int:
        """Index of the radiant panel serving ``zone``."""
        for panel, zones in enumerate(self.panel_zones):
            if zone in zones:
                return panel
        raise ValueError(f"zone {zone} out of range")

    def neighbors(self, zone: int) -> Tuple[int, ...]:
        """Zones coupled to ``zone`` (the graph is undirected)."""
        out = []
        for i, j in self.adjacency:
            if i == zone:
                out.append(j)
            elif j == zone:
                out.append(i)
        return tuple(out)

    # ------------------------------------------------------------------
    # Device rosters — the exact ids the system assembles, in the exact
    # construction order, so fault scripts and radio placements can be
    # validated against a topology without building a live system.
    # ------------------------------------------------------------------
    def sensor_node_ids(self) -> Tuple[str, ...]:
        return tuple(
            f"bt-{place}-{kind}-{i}"
            for i in range(self.zone_count)
            for place, kind in (("room", "temp"), ("room", "hum"),
                                ("ceil", "temp"), ("ceil", "hum")))

    def board_ids(self) -> Tuple[str, ...]:
        singletons = ("control-c1", "control-c2", "control-v1")
        per_zone = tuple(f"control-v{v}-{i}"
                         for i in range(self.zone_count) for v in (2, 3))
        return singletons + per_zone

    def device_ids(self) -> Tuple[str, ...]:
        return self.sensor_node_ids() + self.board_ids()

    def describe(self) -> str:
        lines = [
            f"topology {self.name}: {self.zone_count} zone(s), "
            f"{self.length_m:g} x {self.width_m:g} x {self.height_m:g} m "
            f"({self.volume_m3:g} m^3)",
            f"  panels: " + "; ".join(
                f"panel-{p} -> zones {zones}"
                for p, zones in enumerate(self.panel_zones)),
            f"  coupling graph: {self.adjacency}",
            f"  door weights: {self.door_weights}",
            f"  window weights: {self.window_weights}",
            f"  devices: {len(self.sensor_node_ids())} sensor nodes, "
            f"{len(self.board_ids())} boards",
        ]
        return "\n".join(lines)


_PAPER = SystemTopology()


def paper_topology() -> SystemTopology:
    """The BubbleZERO laboratory of the paper (shared frozen instance)."""
    return _PAPER


def grid_topology(zone_count: int,
                  cols: Optional[int] = None,
                  name: Optional[str] = None,
                  zone_length_m: float = 3.0,
                  zone_width_m: float = 2.5,
                  height_m: float = 2.0,
                  door_zone: int = 0,
                  window_zone: Optional[int] = None,
                  equipment_w: float = 40.0) -> SystemTopology:
    """Declare an N-zone row-major grid building in one call.

    Zones are laid out row-major over ``cols`` columns; consecutive
    zone pairs share a radiant panel (a trailing odd zone gets its own).
    Door/window exposure decays geometrically with Manhattan distance
    from ``door_zone`` / ``window_zone`` (default: the far corner),
    normalised to sum to one.  ``grid_topology(4, cols=2)`` has the
    paper lab's footprint and coupling graph with generated weights.
    """
    if zone_count < 1:
        raise ValueError("a building needs at least one zone")
    if cols is None:
        cols = max(1, math.ceil(math.sqrt(zone_count)))
    rows = math.ceil(zone_count / cols)
    if window_zone is None:
        window_zone = zone_count - 1

    def cell(zone: int) -> Tuple[int, int]:
        return zone // cols, zone % cols

    adjacency = []
    for zone in range(zone_count):
        row, col = cell(zone)
        if col + 1 < cols and zone + 1 < zone_count:
            adjacency.append((zone, zone + 1))
        if zone + cols < zone_count:
            adjacency.append((zone, zone + cols))

    def exposure(anchor: int) -> Tuple[float, ...]:
        raw = []
        for zone in range(zone_count):
            d = (abs(cell(zone)[0] - cell(anchor)[0])
                 + abs(cell(zone)[1] - cell(anchor)[1]))
            raw.append(_EXPOSURE_DECAY ** d)
        total = sum(raw)
        return tuple(w / total for w in raw)

    panel_zones = tuple(
        tuple(range(start, min(start + 2, zone_count)))
        for start in range(0, zone_count, 2))
    return SystemTopology(
        name=name or f"grid-{zone_count}",
        zone_count=zone_count,
        length_m=cols * zone_length_m,
        width_m=rows * zone_width_m,
        height_m=height_m,
        panel_zones=panel_zones,
        adjacency=tuple(adjacency),
        door_weights=exposure(door_zone),
        window_weights=exposure(window_zone),
        equipment_w=equipment_w,
    )
