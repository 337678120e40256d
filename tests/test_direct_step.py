"""The wired direct-control step against its per-zone reference.

``BubbleZero._direct_step`` reads every zone's state once per step and
shares the zone dew points between the radiant and the ventilation
laws.  ``_reference_direct_step`` below is the per-zone form it
replaced, kept verbatim: every law reads the room through
``Room.state_of`` and the plant's own accessors
(``supply_temp_c``, ``panel_return_temp_c``, ``airbox_outlet_dew_c``),
so each zone's dew point is computed once for its panel and again for
its ventilation unit.

Both steps must drive the plant identically.  The oracle compares
every input record each law is stepped with, and then the physics
itself: ``state_digest`` (every zone's exact state, tanks, meters,
guard), every unit's last airbox output, every loop's last panel result
and every pump voltage.  Values are compared as ``repr`` strings, so a
sign-of-zero or last-bit difference fails.  The input log matters:
the airbox-outlet fallback to room air engages only on the first
control step, before the fans have run, and in these runs reading the
wrong dew point there moves no physics bit, so only the inputs show it.
Nothing is compared with a recorded literal, so the test does not
depend on the BLAS or CPU that runs it.  (A direct grid's
``discrete_log_hash`` is its fixed control cadence and cannot see any
of this.)
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.fingerprint import state_digest
from repro.control.radiant import RadiantInputs
from repro.control.ventilation import VentilationInputs
from repro.core.system import BubbleZero
from repro.devices.boards import CONTROL_PERIOD_S
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import prepare_run


def _reference_direct_step(self, now: float) -> None:
    plant = self.plant
    room = plant.room
    room_temp = room.mean_temp_c()
    supply = plant.supply_temp_c()
    if self.policy.exchanges_state:
        # Wired consensus exchange: the previous step's agent states
        # circulate in-process (the direct stack has no channel, so
        # the exchange is lossless but still one period delayed).
        states = {i: law.shared_state()
                  for i, law in enumerate(self._vent_direct)
                  if law.shared_state() is not None}
        for law in self._vent_direct:
            law.set_neighbor_states(
                {j: states[j] for j in law.neighbors if j in states})
        for p, law in enumerate(self._radiant_direct):
            served = self.topology.panel_zones[p]
            law.set_zone_estimates(
                {z: states[z] for z in served if z in states})
    for p, controller in enumerate(self._radiant_direct):
        served = self.topology.panel_zones[p]
        ceiling_dew = max(room.state_of(s).dew_point_c for s in served)
        command = controller.step(RadiantInputs(
            room_temp, ceiling_dew, supply, plant.panel_return_temp_c(p)),
            CONTROL_PERIOD_S)
        loop = plant.panel_loops[p]
        loop.supply_pump.set_voltage(command.supply_voltage)
        loop.recycle_pump.set_voltage(command.recycle_voltage)
    for i, controller in enumerate(self._vent_direct):
        state = room.state_of(i)
        command = controller.step(VentilationInputs(
            state.temp_c, state.dew_point_c, state.co2_ppm, supply,
            plant.airbox_outlet_dew_c(i)), CONTROL_PERIOD_S)
        unit = plant.vent_units[i]
        unit.airbox.set_coil_pump_voltage(command.coil_pump_voltage)
        unit.airbox.set_fan_flow_demand(command.fan_flow_demand_m3s)
        unit.flap.command(command.flap_open)


def _record_inputs(law, log: list) -> None:
    """Log the repr of every input record ``law`` is stepped with."""
    step = law.step

    def recorded(inputs, dt):
        log.append(repr(inputs))
        return step(inputs, dt)

    law.step = recorded


def _run(name: str, controller: str, vector: bool) -> dict:
    spec = get_scenario(name)
    spec = dataclasses.replace(
        spec, controller=controller, run_minutes=10.0,
        config=dataclasses.replace(spec.config, physics_vector=vector))
    system, _ = prepare_run(spec)
    inputs: list = []
    for law in system._radiant_direct + system._vent_direct:
        _record_inputs(law, inputs)
    system.start()
    system.run(minutes=spec.run_minutes)
    system.finalize()
    plant = system.plant
    return {
        "law_inputs": inputs,
        "state_digest": state_digest(system),
        "last_output": [repr(unit.last_output)
                        for unit in plant.vent_units],
        "last_result": [repr(loop.last_result)
                        for loop in plant.panel_loops],
        "pump_voltages": [
            repr((loop.supply_pump.voltage, loop.recycle_pump.voltage))
            for loop in plant.panel_loops] + [
            repr(unit.airbox.coil_pump.voltage)
            for unit in plant.vent_units],
    }


CASES = [(name, controller, True)
         for name in ("grid-4", "grid-32")
         for controller in ("pid", "consensus", "deadband")]
CASES.append(("grid-32", "consensus", False))


@pytest.mark.parametrize("name,controller,vector", CASES)
def test_direct_step_matches_reference(monkeypatch, name, controller,
                                       vector):
    production = _run(name, controller, vector)
    monkeypatch.setattr(BubbleZero, "_direct_step", _reference_direct_step)
    reference = _run(name, controller, vector)
    for key in production:
        assert production[key] == reference[key], key
