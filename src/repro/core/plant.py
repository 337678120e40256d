"""The physical plant: every piece of hardware, wired and integrated.

``Plant`` owns the room model, the two chilled-water tanks and their
chillers, the radiant panel loops (supply pump + recycle pump + mixing
junction + panel), and the per-zone airbox/CO2flap pairs.  Its
``step(dt)`` advances all of it one time step, given whatever actuator
commands the control boards have applied since the last step.

The hardware roster is declared by a
:class:`~repro.scenarios.topology.SystemTopology` — zone count, the
panel->zone map, the coupling graph and the door/window exposure
weights all come from it.  The default is the paper's laboratory
(Fig. 2):

* panel 0 serves subspaces 0 and 1, panel 1 serves subspaces 2 and 3;
* airbox/flap pair ``i`` serves subspace ``i``;
* the 18 degC tank feeds the panel loops, the 8 degC tank the coils.

Chiller capacities and tank volumes scale linearly with zone count
from the paper's 4-zone calibration, so an N-zone declaration gets a
plant sized for its floor area rather than the lab's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.airside.airbox import Airbox, AirboxOutput
from repro.airside.co2flap import CO2Flap
from repro.control.condensation import CondensationGuard
from repro.hydronics.chiller import CarnotFractionChiller
from repro.hydronics.mixing import MixingJunction, MixResult
from repro.hydronics.panel import PanelResult, RadiantPanel
from repro.hydronics.pump import DCPump, PumpCurve
from repro.hydronics.tank import ColdWaterTank
from repro.hydronics.water import WATER_CP, mass_flow
from repro.physics.room import Room, RoomGeometry, SubspaceInputs, zone_mean
from repro.physics.weather import OutdoorState, WeatherModel
from repro.scenarios.topology import SystemTopology, paper_topology

# The paper lab's panel->zone map, kept as a module constant for
# callers that hard-code the 4-zone layout; the live map is
# ``Plant.topology.panel_zones``.
PANEL_SUBSPACES = ((0, 1), (2, 3))

# Condenser approach: heat is rejected a few degrees above outdoor air.
CONDENSER_APPROACH_K = 6.0


@dataclass
class PanelLoop:
    """One radiant ceiling panel and its hydraulic loop."""

    panel: RadiantPanel
    supply_pump: DCPump
    recycle_pump: DCPump
    junction: MixingJunction = field(init=False)
    return_temp_c: float = 22.0
    mix_temp_c: float = 18.0
    mix_flow_lps: float = 0.0
    last_result: Optional[PanelResult] = None

    def __post_init__(self) -> None:
        self.junction = MixingJunction(self.supply_pump, self.recycle_pump)


@dataclass
class VentUnit:
    """One subspace's airbox + CO2flap pair."""

    airbox: Airbox
    flap: CO2Flap
    last_output: Optional[AirboxOutput] = None


class Plant:
    """All BubbleZERO hardware, integrated on a common time step."""

    def __init__(self, weather: WeatherModel,
                 room: Optional[Room] = None,
                 radiant_chiller: Optional[CarnotFractionChiller] = None,
                 vent_chiller: Optional[CarnotFractionChiller] = None,
                 topology: Optional[SystemTopology] = None,
                 vector: bool = False,
                 solver: str = "dense") -> None:
        self.weather = weather
        self.topology = topology or paper_topology()
        topo = self.topology
        self.room = room or Room(
            geometry=RoomGeometry(topo.length_m, topo.width_m,
                                  topo.height_m, topo.zone_count),
            adjacency=topo.adjacency,
            solver=solver)
        n_sub = len(self.room.subspaces)
        if n_sub != topo.zone_count:
            raise ValueError(
                f"room has {n_sub} subspaces but topology "
                f"{topo.name!r} declares {topo.zone_count} zones")

        # Chillers calibrated per DESIGN.md §4, sized linearly from the
        # paper's 4-zone lab (scale 1.0 there, so the products below
        # reproduce the calibrated constants bit for bit).
        scale = topo.zone_count / 4.0
        self.radiant_chiller = radiant_chiller or CarnotFractionChiller(
            "chiller-18C", cold_setpoint_c=18.0, second_law_fraction=0.30,
            parasitic_w=6.0 * scale, capacity_w=2600.0 * scale)
        self.vent_chiller = vent_chiller or CarnotFractionChiller(
            "chiller-8C", cold_setpoint_c=8.0, second_law_fraction=0.30,
            parasitic_w=2.0 * scale, capacity_w=3600.0 * scale)
        self.radiant_tank = ColdWaterTank(
            "tank-18C", self.radiant_chiller, volume_l=150.0 * scale,
            setpoint_c=18.0)
        self.vent_tank = ColdWaterTank(
            "tank-8C", self.vent_chiller, volume_l=100.0 * scale,
            setpoint_c=8.0)

        self.panel_loops: List[PanelLoop] = [
            PanelLoop(
                panel=RadiantPanel(f"panel-{i}"),
                supply_pump=DCPump(f"panel-{i}/supply-pump",
                                   curve=PumpCurve(max_flow_lps=0.20)),
                recycle_pump=DCPump(f"panel-{i}/recycle-pump",
                                    curve=PumpCurve(max_flow_lps=0.20)))
            for i in range(topo.panel_count)
        ]
        self.vent_units: List[VentUnit] = [
            VentUnit(airbox=Airbox(f"airbox-{i}"), flap=CO2Flap(f"flap-{i}"))
            for i in range(n_sub)
        ]
        self.guard = CondensationGuard()
        self.occupants = [0.0] * n_sub
        self.equipment_w = [topo.equipment_w] * n_sub
        self.door_open_fraction = 0.0
        self.window_open_fraction = 0.0
        self.time_integrated_s = 0.0
        self.fan_energy_j = 0.0
        self.flap_energy_j = 0.0
        # Structure-of-arrays fused integrator (bit-identical fast
        # path); imported lazily so the scalar plant never pays for it.
        self._vector_kernel = None
        if vector:
            from repro.physics.vector import VectorPlantKernel
            self._vector_kernel = VectorPlantKernel(self)

    # ------------------------------------------------------------------
    # Truth accessors for the sensor layer
    # ------------------------------------------------------------------
    def outdoor(self, now: float) -> OutdoorState:
        return self.weather.state_at(now)

    def supply_temp_c(self) -> float:
        """T_supp of the radiant loop (18 degC tank)."""
        return self.radiant_tank.temp_c

    def panel_return_temp_c(self, panel_idx: int) -> float:
        return self.panel_loops[panel_idx].return_temp_c

    def panel_mix_temp_c(self, panel_idx: int) -> float:
        return self.panel_loops[panel_idx].mix_temp_c

    def panel_mix_flow_lps(self, panel_idx: int) -> float:
        return self.panel_loops[panel_idx].mix_flow_lps

    def airbox_outlet_dew_c(self, subspace: int) -> float:
        unit = self.vent_units[subspace]
        if unit.last_output is None or unit.last_output.flow_m3s == 0:
            # With the fans stopped, the outlet sensor reads room air.
            return self.room.state_of(subspace).dew_point_c
        return unit.last_output.supply_dew_point_c

    def airbox_outlet_temp_c(self, subspace: int) -> float:
        unit = self.vent_units[subspace]
        if unit.last_output is None or unit.last_output.flow_m3s == 0:
            return self.room.state_of(subspace).temp_c
        return unit.last_output.supply_temp_c

    # ------------------------------------------------------------------
    # Disturbances (workload hooks)
    # ------------------------------------------------------------------
    def set_door(self, fraction: float) -> None:
        if not (0.0 <= fraction <= 1.0):
            raise ValueError("door fraction must be within [0, 1]")
        self.door_open_fraction = fraction

    def set_window(self, fraction: float) -> None:
        if not (0.0 <= fraction <= 1.0):
            raise ValueError("window fraction must be within [0, 1]")
        self.window_open_fraction = fraction

    def set_occupants(self, subspace: int, count: float) -> None:
        if count < 0:
            raise ValueError("occupant count cannot be negative")
        self.occupants[subspace] = count

    # ------------------------------------------------------------------
    # Integration
    # ------------------------------------------------------------------
    def step(self, now: float, dt: float) -> None:
        """Advance the whole plant by ``dt`` seconds."""
        if self._vector_kernel is not None:
            self._vector_kernel.step(now, dt)
            return
        outdoor = self.outdoor(now)
        reject_temp = outdoor.temp_c + CONDENSER_APPROACH_K
        inputs = self._exchange_tick(outdoor, dt)
        self.room.step(dt, outdoor, inputs)
        ambient = self.room.mean_temp_c()
        self.radiant_tank.step(dt, ambient_temp_c=ambient,
                               reject_temp_c=reject_temp)
        self.vent_tank.step(dt, ambient_temp_c=ambient,
                            reject_temp_c=reject_temp)
        self.time_integrated_s += dt

    def macro_step(self, now: float, ticks: int, dt: float) -> None:
        """Advance the plant over an event-free gap of ``ticks * dt``.

        The hydronic and airside loops keep their reference per-tick
        substep — the radiant loop's condensation limit cycle lives in
        second-scale water-side feedback that a single coarse step would
        wash out — while the room's RC network, the expensive part, is
        integrated once over the whole gap in closed form
        (:meth:`Room.macro_step`) with the substep-averaged boundary
        inputs.  Valid only when no sensing/network/control event falls
        inside the gap: actuator commands are then frozen, the room
        states the substeps read drift by mere millikelvin over the few
        seconds involved, and the averaged inputs carry exactly the
        energy the substeps exchanged.
        """
        if self._vector_kernel is not None:
            self._vector_kernel.macro_step(now, ticks, dt)
            return
        outdoor = self.outdoor(now)
        reject_temp = outdoor.temp_c + CONDENSER_APPROACH_K
        # The room is frozen during the gap, so the tank ambient is too.
        ambient = self.room.mean_temp_c()
        n_sub = len(self.room.subspaces)
        heat_sum = [0.0] * n_sub
        flow_sum = [0.0] * n_sub
        flow_temp_sum = [0.0] * n_sub
        flow_w_sum = [0.0] * n_sub
        temp_sum = [0.0] * n_sub
        w_sum = [0.0] * n_sub
        last_inputs = None
        for _ in range(ticks):
            inputs = self._exchange_tick(outdoor, dt)
            self.radiant_tank.step(dt, ambient_temp_c=ambient,
                                   reject_temp_c=reject_temp)
            self.vent_tank.step(dt, ambient_temp_c=ambient,
                                reject_temp_c=reject_temp)
            for i, inp in enumerate(inputs):
                heat_sum[i] += inp.panel_heat_w
                flow_sum[i] += inp.vent_flow_m3s
                # Supply conditions weighted by flow, so the averaged
                # input injects the same sensible/latent totals the
                # substeps produced even while the fans ramp.
                flow_temp_sum[i] += inp.vent_flow_m3s * inp.vent_supply_temp_c
                flow_w_sum[i] += inp.vent_flow_m3s * inp.vent_supply_w
                temp_sum[i] += inp.vent_supply_temp_c
                w_sum[i] += inp.vent_supply_w
            last_inputs = inputs
        averaged: List[SubspaceInputs] = []
        for i in range(n_sub):
            inp = last_inputs[i]
            flow = flow_sum[i] / ticks
            if flow_sum[i] > 0:
                supply_temp = flow_temp_sum[i] / flow_sum[i]
                supply_w = flow_w_sum[i] / flow_sum[i]
            else:
                supply_temp = temp_sum[i] / ticks
                supply_w = w_sum[i] / ticks
            # Occupants, equipment and openings cannot change inside an
            # event-free gap; take them from the last substep.
            averaged.append(SubspaceInputs(
                panel_heat_w=heat_sum[i] / ticks,
                vent_flow_m3s=flow,
                vent_supply_temp_c=supply_temp,
                vent_supply_w=supply_w,
                occupants=inp.occupants,
                equipment_w=inp.equipment_w,
                door_open_fraction=inp.door_open_fraction,
            ))
        self.room.macro_step(ticks * dt, outdoor, averaged)
        self.time_integrated_s += ticks * dt

    def _exchange_tick(self, outdoor: OutdoorState,
                       dt: float) -> List[SubspaceInputs]:
        """One hydronic/airside substep; returns the room's inputs."""
        panel_heat = [0.0] * len(self.room.subspaces)

        # --- radiant panel loops ---------------------------------------
        panel_zones = self.topology.panel_zones
        for idx, loop in enumerate(self.panel_loops):
            served = panel_zones[idx]
            if len(served) == 2:
                # Fast path for pairwise panels (the paper layout):
                # index the two subspaces directly instead of paying
                # generator overhead in the per-tick loop.  The general
                # branch computes bit-identical values for a pair.
                s0, s1 = served
                state0 = self.room.state_of(s0)
                state1 = self.room.state_of(s1)
                states = (state0, state1)
                zone_temp = (state0.temp_c + state1.temp_c) / 2
            else:
                states = tuple(self.room.state_of(s) for s in served)
                zone_temp = zone_mean([state.temp_c for state in states])
            mix: MixResult = loop.junction.mix(
                self.radiant_tank.draw(), loop.return_temp_c)
            result = loop.panel.exchange(mix.flow_lps, mix.temp_c, zone_temp)
            loop.panel.integrate(result, dt)
            loop.last_result = result
            loop.mix_temp_c = mix.temp_c
            loop.mix_flow_lps = mix.flow_lps
            if mix.flow_lps > 0:
                loop.return_temp_c = result.return_temp_c
            else:
                # Stagnant loop water slowly equilibrates with the room,
                # which is what eventually releases the start-up
                # condensation interlock.
                loop.return_temp_c += ((zone_temp - loop.return_temp_c)
                                       * dt / 600.0)
            # Water drawn from the tank returns at panel-outlet temperature.
            self.radiant_tank.accept_return(
                mix.supply_flow_lps, result.return_temp_c, dt)
            share = result.heat_w / len(served)
            for s in served:
                panel_heat[s] += share
            # Condensation guard: panel surface vs local air dew point.
            if mix.flow_lps > 0:
                local_dew = max(state.dew_point_c for state in states)
                if not self.guard.check_dew(result.surface_temp_c, local_dew):
                    self.room.record_condensation()
            loop.supply_pump.integrate(dt)
            loop.recycle_pump.integrate(dt)

        # --- ventilation units ------------------------------------------
        door_weights = self.topology.door_weights
        window_weights = self.topology.window_weights
        inputs: List[SubspaceInputs] = []
        for i, unit in enumerate(self.vent_units):
            # The coil sees whatever the 8 degC tank actually holds; an
            # overloaded tank degrades dehumidification realistically.
            unit.airbox.coil.water_temp_c = self.vent_tank.temp_c
            output = unit.airbox.process(outdoor, dt)
            unit.last_output = output
            unit.flap.step(dt)
            # Supply air only flows freely once the exhaust flap opens;
            # a closed flap throttles the loop to envelope leakage.
            effective_flow = output.flow_m3s * (0.25
                                                + 0.75 * unit.flap.position)
            # Coil load returns warm water to the 8 degC tank.
            if output.coil_water_flow_lps > 0 and output.coil_heat_w > 0:
                m_cp = mass_flow(output.coil_water_flow_lps) * WATER_CP
                coil_return = (self.vent_tank.draw()
                               + output.coil_heat_w / m_cp)
                self.vent_tank.accept_return(
                    output.coil_water_flow_lps, coil_return, dt)
            opening = (self.door_open_fraction * door_weights[i]
                       + 0.8 * self.window_open_fraction * window_weights[i])
            inputs.append(SubspaceInputs(
                panel_heat_w=panel_heat[i],
                vent_flow_m3s=effective_flow,
                vent_supply_temp_c=output.supply_temp_c,
                vent_supply_w=output.supply_humidity_ratio,
                occupants=self.occupants[i],
                equipment_w=self.equipment_w[i],
                door_open_fraction=opening,
            ))
            self.fan_energy_j += output.fan_power_w * dt

        return inputs

    # ------------------------------------------------------------------
    # Energy / COP accounting (paper §V-B)
    # ------------------------------------------------------------------
    def radiant_heat_removed_j(self) -> float:
        return sum(loop.panel.heat_absorbed_j for loop in self.panel_loops)

    def vent_heat_removed_j(self) -> float:
        return sum(unit.airbox.coil.heat_extracted_j
                   for unit in self.vent_units)

    def radiant_power_consumed_j(self) -> float:
        pumps = sum(loop.supply_pump.energy_j + loop.recycle_pump.energy_j
                    for loop in self.panel_loops)
        return self.radiant_chiller.energy_j + pumps

    def vent_power_consumed_j(self) -> float:
        coil_pumps = sum(unit.airbox.coil_pump.energy_j
                         for unit in self.vent_units)
        flaps = sum(unit.flap.energy_j for unit in self.vent_units)
        return (self.vent_chiller.energy_j + coil_pumps
                + self.fan_energy_j + flaps)

    def meter_snapshot(self) -> Dict[str, float]:
        """Cumulative energy meters at this instant.

        Snapshot before and after a steady-state window and difference
        the two to meter rates over that window — exactly how the paper
        reads its power meters for Fig. 11 (steady operation, not the
        cold-start transient).
        """
        return {
            "time_s": self.time_integrated_s,
            "radiant_heat_j": self.radiant_heat_removed_j(),
            "vent_heat_j": self.vent_heat_removed_j(),
            "radiant_power_j": self.radiant_power_consumed_j(),
            "vent_power_j": self.vent_power_consumed_j(),
        }

    @staticmethod
    def cop_between(before: Dict[str, float],
                    after: Dict[str, float]) -> Dict[str, float]:
        """Per-module and overall COP over a metering window."""
        elapsed = after["time_s"] - before["time_s"]
        if elapsed <= 0:
            raise ValueError("metering window must have positive length")
        qr = after["radiant_heat_j"] - before["radiant_heat_j"]
        qv = after["vent_heat_j"] - before["vent_heat_j"]
        pr = after["radiant_power_j"] - before["radiant_power_j"]
        pv = after["vent_power_j"] - before["vent_power_j"]
        report: Dict[str, float] = {
            "radiant_heat_w": qr / elapsed,
            "vent_heat_w": qv / elapsed,
            "radiant_power_w": pr / elapsed,
            "vent_power_w": pv / elapsed,
        }
        if pr > 0:
            report["bubble_c"] = qr / pr
        if pv > 0:
            report["bubble_v"] = qv / pv
        if pr + pv > 0:
            report["bubble_zero"] = (qr + qv) / (pr + pv)
        return report

    def cop_report(self) -> Dict[str, float]:
        """Lifetime COP of each module and the whole system.

        Includes the cold-start transient; for the paper's Fig. 11
        numbers use :meth:`meter_snapshot` + :meth:`cop_between` over a
        steady-state window instead.
        """
        qr = self.radiant_heat_removed_j()
        qv = self.vent_heat_removed_j()
        pr = self.radiant_power_consumed_j()
        pv = self.vent_power_consumed_j()
        report = {}
        if pr > 0:
            report["bubble_c"] = qr / pr
        if pv > 0:
            report["bubble_v"] = qv / pv
        if pr + pv > 0:
            report["bubble_zero"] = (qr + qv) / (pr + pv)
        return report
