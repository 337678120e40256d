"""The customized control boards (paper §III, Figs. 5 and 7).

Five board types, all AC powered, each integrated with a TelosB mote:

* **Control-C-1** — pipe temperature interface board: reads the eight
  ADT7410 sensors in the radiant loop piping and broadcasts the water
  temperatures (T_supp, T_mix, T_rcyc per panel).
* **Control-C-2** — radiant cooling controller: runs the per-panel PID,
  reads the VISION-2000 flow sensors, drives the supply/recycle pumps.
* **Control-V-1** — ventilation dew-point controller: per-subspace
  coil-water PID for the airboxes.
* **Control-V-2** — airbox fan driver (one per airbox): reads the
  outlet SHT75, computes the ventilation flow demand and drives the DC
  fans over RS-232.
* **Control-V-3** — CO2flap driver (one per flap): reads the flap's CO2
  sensor and actuates the stepper motor.

Every board consumes remote sensor data exclusively through its mote's
type-addressed bus, so all coordination flows across the simulated
802.15.4 channel.  Each board's periodic report can be driven by an
:class:`~repro.net.schedule.AcScheduleAdapter` to reproduce the paper's
contention-aware AC transmission scheduling.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.control.policy import ControlPolicy, build_policy
from repro.control.radiant import RadiantInputs
from repro.control.ventilation import VentilationInputs
from repro.core.plant import Plant
from repro.devices.mote import Mote, PowerSource
from repro.devices.sensors import (
    ADT7410TemperatureSensor,
    CO2Sensor,
    SHT75Sensor,
    Vision2000FlowSensor,
)
from repro.net.medium import BroadcastMedium
from repro.net.packet import DataType, Packet
from repro.net.schedule import AcScheduleAdapter
from repro.obs.events import TIER_TRANSITION
from repro.physics.psychrometrics import dew_point
from repro.sim.engine import Simulator, PRIORITY_CONTROL, PRIORITY_SENSING
from repro.sim.process import PeriodicTask

CONTROL_PERIOD_S = 5.0
REPORT_PERIOD_S = 2.0

# Safe defaults used before the first packets arrive.
DEFAULT_SUPPLY_C = 18.0
DEFAULT_RETURN_C = 22.0


class Board:
    """Common machinery: a mote plus optionally-adaptive reporting."""

    def __init__(self, sim: Simulator, medium: BroadcastMedium,
                 device_id: str, plant: Plant,
                 use_schedule_adapter: bool = True,
                 report_period_s: float = REPORT_PERIOD_S) -> None:
        self.sim = sim
        self.plant = plant
        self.mote = Mote(sim, medium, device_id, PowerSource.AC)
        self.device_id = device_id
        self.schedule_adapter: Optional[AcScheduleAdapter] = None
        self._report_period_s = report_period_s
        if use_schedule_adapter:
            self.schedule_adapter = AcScheduleAdapter(
                sim, device_id, report_period_s)
            self.schedule_adapter.connect(medium)
        self._report_task: Optional[PeriodicTask] = None
        self._report_name = f"{device_id}/report"
        self._started = False
        # Causal-trace collector (shared disabled singleton when
        # tracing is off, so the per-control-step gate is one test).
        self._trace = sim.obs.trace
        # Graceful-degradation bookkeeping (supplier-loss detection).
        self.supervisor = None
        self.degraded_estimates = 0
        self.fallback_estimates = 0
        self.max_staleness_s = 0.0
        self._last_good: Dict[Tuple[DataType, Tuple[Any, ...]],
                              Tuple[float, float]] = {}
        # Current fallback tier per estimate (1 fresh / 2 widened /
        # 3 last-good decay) and memoized human-readable labels, both
        # keyed like _last_good.  Always maintained (two dict ops per
        # control period); events only fire when observability is on.
        self._estimate_tier: Dict[Tuple[DataType, Tuple[Any, ...]],
                                  int] = {}
        self._estimate_labels: Dict[Tuple[DataType, Tuple[Any, ...]],
                                    str] = {}

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        if self.schedule_adapter is not None:
            self._schedule_adaptive_report()
        else:
            self._report_task = PeriodicTask(
                self.sim, f"{self.device_id}/report", self._report_period_s,
                lambda now: self.report(now), priority=PRIORITY_SENSING,
                jitter=0.3)
            self._report_task.start()

    def _schedule_adaptive_report(self) -> None:
        # Fire-and-forget: the report chain reschedules itself and is
        # never cancelled, so it can skip the Event allocation.
        when = self.schedule_adapter.next_send_time()
        self.sim.post_at(when, self._adaptive_report,
                         priority=PRIORITY_SENSING,
                         name=self._report_name)

    def _adaptive_report(self) -> None:
        self.report(self.sim.clock.now)
        self.schedule_adapter.on_sent()
        self._schedule_adaptive_report()

    def report(self, now: float) -> None:
        """Broadcast this board's periodic data.  Subclasses override."""

    # ------------------------------------------------------------------
    def bus_value(self, data_type: DataType, key: Any,
                  default: float) -> float:
        value = self.mote.bus.latest_value(data_type, key)
        return default if value is None else value

    # A reading older than this is treated as missing: a dead supplier
    # must degrade the estimate, not freeze it (robustness to node
    # failures — the maintainability scenario of paper §II).
    STALE_AFTER_S = 120.0

    def fresh_value(self, data_type: DataType, key: Any) -> Optional[float]:
        """The cached value, or None when absent or stale."""
        age = self.mote.bus.age_of(data_type, key)
        if age is None or age > self.STALE_AFTER_S:
            return None
        return self.mote.bus.latest_value(data_type, key)

    # Supplier-loss fallback ladder.  Tier 2 doubles the acceptance
    # window; tier 3 decays the last good estimate toward the caller's
    # conservative default with this time constant, so a board cut off
    # from all suppliers drifts to safe assumptions instead of acting
    # forever on a frozen snapshot.
    WIDENED_STALE_AFTER_S = 240.0
    FALLBACK_DECAY_TAU_S = 600.0

    def estimate_mean(self, data_type: DataType, keys: List[Any],
                      default: float) -> float:
        """Consumer-side average with graceful degradation.

        Tier 1 averages the fresh suppliers (identical to a plain
        ``mean_of`` while everything reports — the fault-free path is
        unchanged).  When *no* supplier is fresh the board first widens
        its acceptance window to :data:`WIDENED_STALE_AFTER_S`, then
        falls back to its last good estimate decayed exponentially
        toward ``default``.  The tier-2/3 activations are counted so a
        campaign can score estimate staleness.
        """
        bus = self.mote.bus
        oldest = bus.oldest_age(data_type, keys)
        if oldest is not None and oldest > self.max_staleness_s:
            self.max_staleness_s = oldest
        now = self.sim.clock.now
        cache_key = (data_type, tuple(keys))
        fresh = bus.fresh_values(data_type, keys, self.STALE_AFTER_S)
        if fresh:
            value = sum(fresh) / len(fresh)
            self._last_good[cache_key] = (value, now)
            self._note_tier(cache_key, data_type, keys, 1)
            return value
        widened = bus.fresh_values(data_type, keys,
                                   self.WIDENED_STALE_AFTER_S)
        if widened:
            self.degraded_estimates += 1
            self._note_tier(cache_key, data_type, keys, 2)
            return sum(widened) / len(widened)
        self.fallback_estimates += 1
        self._note_tier(cache_key, data_type, keys, 3)
        last = self._last_good.get(cache_key)
        if last is None:
            return default
        value, at = last
        beyond = max(0.0, now - at - self.WIDENED_STALE_AFTER_S)
        weight = math.exp(-beyond / self.FALLBACK_DECAY_TAU_S)
        return default + (value - default) * weight

    def _note_tier(self, cache_key, data_type: DataType, keys: List[Any],
                   tier: int) -> None:
        """Track the fallback tier of one estimate; emit on change."""
        prev = self._estimate_tier.get(cache_key, 1)
        if tier == prev:
            return
        self._estimate_tier[cache_key] = tier
        obs = self.sim.obs
        if obs.enabled:
            label = self._estimate_labels.get(cache_key)
            if label is None:
                label = self._estimate_labels[cache_key] = (
                    self._estimate_label(data_type, keys))
            obs.events.emit(TIER_TRANSITION, self.sim.now,
                            board=self.device_id, estimate=label,
                            tier=tier, prev_tier=prev)
            obs.metrics.counter("control.tier_transitions").inc()
            obs.metrics.gauge(
                f"control.board.{self.device_id}.fallback_tier").set(
                    self.current_tier)

    @staticmethod
    def _estimate_label(data_type: DataType, keys: List[Any]) -> str:
        """Readable estimate name, e.g. ``temperature/room``."""
        groups = sorted({str(key[0]) if isinstance(key, (tuple, list))
                         else str(key) for key in keys})
        return data_type.name.lower() + "/" + "+".join(groups)

    @property
    def current_tier(self) -> int:
        """Worst active fallback tier across this board's estimates."""
        return max(self._estimate_tier.values(), default=1)

    def _note_actuation(self, now: float) -> None:
        """Causal tracing: this control step just drove actuators.

        Attributes every value ingested since the previous step to the
        decision (one ``actuate`` span per pending trace, carrying the
        sensing→actuation data age, the board's fallback tier and the
        supervisor's conservative latch).  Never draws randomness or
        schedules anything.
        """
        if self._trace.enabled:
            conservative = (self.supervisor is not None
                            and self.supervisor.conservative_mode)
            self._trace.actuate(self.device_id, now, self.current_tier,
                                1 if conservative else 0)

    def room_dew_point(self, subspace: int,
                       default_temp: float = 28.9,
                       default_rh: float = 92.0) -> float:
        """Dew point of a subspace from its broadcast T and RH.

        Stale or missing readings fall back to conservative (humid)
        defaults: when in doubt the system must assume condensation
        risk, never assume dryness.
        """
        temp = self.fresh_value(DataType.TEMPERATURE, ("room", subspace))
        rh = self.fresh_value(DataType.HUMIDITY, ("room", subspace))
        if temp is None:
            temp = default_temp
        if rh is None:
            rh = default_rh
        return dew_point(temp, min(max(rh, 0.5), 100.0))


class ControlC1(Board):
    """Pipe temperature interface board (paper Fig. 5(a))."""

    def __init__(self, sim: Simulator, medium: BroadcastMedium,
                 plant: Plant, **kwargs) -> None:
        super().__init__(sim, medium, "control-c1", plant, **kwargs)
        rng = sim.rng
        self.supply_sensor = ADT7410TemperatureSensor(
            "pipe/supply", plant.supply_temp_c, rng)
        self.mix_sensors = [
            ADT7410TemperatureSensor(
                f"pipe/mix-{p}", lambda p=p: plant.panel_mix_temp_c(p), rng)
            for p in range(len(plant.panel_loops))
        ]
        self.return_sensors = [
            ADT7410TemperatureSensor(
                f"pipe/return-{p}",
                lambda p=p: plant.panel_return_temp_c(p), rng)
            for p in range(len(plant.panel_loops))
        ]

    def report(self, now: float) -> None:
        self.mote.broadcast(DataType.WATER_TEMP,
                            self.supply_sensor.read(), key="supply")
        for p in range(len(self.mix_sensors)):
            self.mote.broadcast(DataType.WATER_TEMP,
                                self.mix_sensors[p].read(), key=("mix", p))
            self.mote.broadcast(DataType.WATER_TEMP,
                                self.return_sensors[p].read(),
                                key=("return", p))


class ControlC2(Board):
    """Radiant cooling controller board (paper Fig. 5(b)).

    Hosts one radiant decision law per ceiling panel (built by the
    injected :class:`~repro.control.policy.ControlPolicy`); reads the
    flow sensors locally (wired) and the water/air temperatures from
    the channel; drives the supply and recycle pumps through its DAC.
    """

    def __init__(self, sim: Simulator, medium: BroadcastMedium,
                 plant: Plant, preferred_temp_c: float = 25.0,
                 policy: Optional[ControlPolicy] = None,
                 **kwargs) -> None:
        super().__init__(sim, medium, "control-c2", plant, **kwargs)
        self.policy = policy if policy is not None else build_policy("pid")
        self.controllers = [
            self.policy.radiant_law(
                f"radiant-{p}", preferred_temp_c=preferred_temp_c,
                pump_curve=plant.panel_loops[p].supply_pump.curve,
                panel=p, topology=plant.topology)
            for p in range(len(plant.panel_loops))
        ]
        self.flow_sensors = [
            Vision2000FlowSensor(
                f"flow/mix-{p}", lambda p=p: plant.panel_mix_flow_lps(p),
                sim.rng)
            for p in range(len(plant.panel_loops))
        ]
        for dt in (DataType.TEMPERATURE, DataType.HUMIDITY,
                   DataType.WATER_TEMP):
            self.mote.subscribe(dt)
        if self.policy.exchanges_state:
            self.mote.subscribe(DataType.CONSENSUS)
        self._control_task = PeriodicTask(
            sim, "control-c2/loop", CONTROL_PERIOD_S, self._control,
            priority=PRIORITY_CONTROL, jitter=0.5)

    def start(self) -> None:
        super().start()
        self._control_task.start()

    # ------------------------------------------------------------------
    def _ceiling_dew(self, panel: int) -> float:
        """Worst-case (highest) dew point under ``panel``.

        Computed from the ceiling sensor nodes' broadcast T/RH pairs for
        the panel's served subspaces; falls back to the room sensors.
        """
        dews: List[float] = []
        for s in self.plant.topology.panel_zones[panel]:
            temp = self.fresh_value(DataType.TEMPERATURE, ("ceiling", s))
            rh = self.fresh_value(DataType.HUMIDITY, ("ceiling", s))
            if temp is None or rh is None:
                # Dead or silent ceiling node: fall back to the room
                # sensors rather than trusting a frozen reading.
                dews.append(self.room_dew_point(s))
            else:
                dews.append(dew_point(temp, min(max(rh, 0.5), 100.0)))
        return max(dews)

    def _room_temp(self) -> float:
        keys = [("room", s)
                for s in range(len(self.plant.room.subspaces))]
        return self.estimate_mean(DataType.TEMPERATURE, keys, 28.9)

    def _humidity_sensing_compromised(self) -> bool:
        """True when some subspace has lost *all* humidity suppliers.

        Both the ceiling and the room humidity node of one subspace
        gone silent means the dew point under a panel is flying blind;
        the supervisor then latches the radiant loop into conservative
        mode.  Suppliers never heard from don't count — before first
        contact the conservative startup defaults already apply.
        """
        bus = self.mote.bus
        for s in range(len(self.plant.room.subspaces)):
            ages = (bus.age_of(DataType.HUMIDITY, ("ceiling", s)),
                    bus.age_of(DataType.HUMIDITY, ("room", s)))
            if all(age is not None and age > self.STALE_AFTER_S
                   for age in ages):
                return True
        return False

    def _control(self, now: float) -> None:
        if self.supervisor is not None:
            self.supervisor.note_humidity_sensing(
                self._humidity_sensing_compromised(), now)
        supply = self.bus_value(DataType.WATER_TEMP, "supply",
                                DEFAULT_SUPPLY_C)
        room_temp = self._room_temp()
        for p, controller in enumerate(self.controllers):
            if self.policy.exchanges_state:
                # Feed the served zones' consensus states heard on the
                # channel; a zone whose agent has gone silent simply
                # drops out and the law degrades toward the board's own
                # room-temperature estimate.
                estimates: Dict[int, float] = {}
                for z in self.plant.topology.panel_zones[p]:
                    value = self.fresh_value(DataType.CONSENSUS, z)
                    if value is not None:
                        estimates[z] = value
                controller.set_zone_estimates(estimates)
            inputs = RadiantInputs(
                room_temp_c=room_temp,
                ceiling_dew_point_c=self._ceiling_dew(p),
                supply_temp_c=supply,
                return_temp_c=self.bus_value(DataType.WATER_TEMP,
                                             ("return", p), DEFAULT_RETURN_C),
            )
            command = controller.step(inputs, CONTROL_PERIOD_S)
            loop = self.plant.panel_loops[p]
            loop.supply_pump.set_voltage(command.supply_voltage)
            loop.recycle_pump.set_voltage(command.recycle_voltage)
            self.sim.trace.record(f"radiant/mix_target/{p}", now,
                                  command.mix_temp_target_c)
            self.sim.trace.record(f"radiant/flow_target/{p}", now,
                                  command.mix_flow_target_lps)
        self._note_actuation(now)

    def report(self, now: float) -> None:
        for p in range(len(self.flow_sensors)):
            self.mote.broadcast(DataType.WATER_FLOW,
                                self.flow_sensors[p].read(), key=("mix", p))


class ControlV1(Board):
    """Ventilation dew-point controller board.

    One physical board runs the coil-water PID for all four airboxes
    (paper §III-C: "All sensors and pumps (of four airboxes) are
    connected to another control board ... named Control-V-1").
    """

    def __init__(self, sim: Simulator, medium: BroadcastMedium,
                 plant: Plant, preferred_temp_c: float = 25.0,
                 preferred_rh_percent: float = 65.0,
                 policy: Optional[ControlPolicy] = None, **kwargs) -> None:
        super().__init__(sim, medium, "control-v1", plant, **kwargs)
        self.policy = policy if policy is not None else build_policy("pid")
        volume = plant.room.geometry.subspace_volume_m3
        self.controllers = [
            self.policy.ventilation_law(
                f"vent-{i}", subspace_volume_m3=volume,
                preferred_temp_c=preferred_temp_c,
                preferred_rh_percent=preferred_rh_percent, zone=i,
                coil_pump_curve=plant.vent_units[i].airbox.coil_pump.curve,
                topology=plant.topology)
            for i in range(len(plant.vent_units))
        ]
        self.coil_flow_sensors = [
            Vision2000FlowSensor(
                f"flow/coil-{i}",
                lambda i=i: plant.vent_units[i].airbox.coil_water_flow_lps,
                sim.rng)
            for i in range(len(plant.vent_units))
        ]
        for dt in (DataType.TEMPERATURE, DataType.HUMIDITY,
                   DataType.WATER_TEMP, DataType.AIRBOX_DEW, DataType.CO2):
            self.mote.subscribe(dt)
        self._control_task = PeriodicTask(
            sim, "control-v1/loop", CONTROL_PERIOD_S, self._control,
            priority=PRIORITY_CONTROL, jitter=0.5)

    def start(self) -> None:
        super().start()
        self._control_task.start()

    def _control(self, now: float) -> None:
        supply = self.bus_value(DataType.WATER_TEMP, "supply",
                                DEFAULT_SUPPLY_C)
        for i, controller in enumerate(self.controllers):
            room_dew = self.room_dew_point(i)
            inputs = VentilationInputs(
                room_temp_c=self.bus_value(DataType.TEMPERATURE,
                                           ("room", i), 28.9),
                room_dew_point_c=room_dew,
                room_co2_ppm=self.bus_value(DataType.CO2, i, 450.0),
                supply_water_temp_c=supply,
                airbox_out_dew_point_c=self.bus_value(
                    DataType.AIRBOX_DEW, i, room_dew),
            )
            command = controller.step(inputs, CONTROL_PERIOD_S)
            self.plant.vent_units[i].airbox.set_coil_pump_voltage(
                command.coil_pump_voltage)
            self.sim.trace.record(f"vent/supply_dew_target/{i}", now,
                                  command.supply_dew_target_c)
        self._note_actuation(now)

    def report(self, now: float) -> None:
        for i, controller in enumerate(self.controllers):
            self.mote.broadcast(
                DataType.DEW_TARGET,
                controller.preferred_dew_point(), key=i)


class ControlV2(Board):
    """Airbox fan driver (one per airbox; paper Fig. 7(b)).

    Reads its outlet SHT75 locally, computes the ventilation flow demand
    from broadcast room humidity and CO2, drives the fans over RS-232
    and broadcasts the measured outlet dew point for Control-V-1.
    """

    def __init__(self, sim: Simulator, medium: BroadcastMedium,
                 plant: Plant, subspace: int,
                 preferred_temp_c: float = 25.0,
                 preferred_rh_percent: float = 65.0,
                 policy: Optional[ControlPolicy] = None, **kwargs) -> None:
        super().__init__(sim, medium, f"control-v2-{subspace}", plant,
                         **kwargs)
        self.subspace = subspace
        self.policy = policy if policy is not None else build_policy("pid")
        volume = plant.room.geometry.subspace_volume_m3
        self.controller = self.policy.ventilation_law(
            f"fan-{subspace}", subspace_volume_m3=volume,
            preferred_temp_c=preferred_temp_c,
            preferred_rh_percent=preferred_rh_percent, zone=subspace,
            topology=plant.topology)
        self.outlet_sensor = SHT75Sensor(
            f"airbox-{subspace}/outlet",
            lambda: plant.airbox_outlet_temp_c(subspace),
            lambda: _outlet_rh(plant, subspace),
            sim.rng)
        for dt in (DataType.TEMPERATURE, DataType.HUMIDITY,
                   DataType.WATER_TEMP, DataType.CO2):
            self.mote.subscribe(dt)
        if self.policy.exchanges_state:
            self.mote.subscribe(DataType.CONSENSUS)
        self._control_task = PeriodicTask(
            sim, f"control-v2-{subspace}/loop", CONTROL_PERIOD_S,
            self._control, priority=PRIORITY_CONTROL, jitter=0.5)
        self._last_outlet_dew: Optional[float] = None

    def start(self) -> None:
        super().start()
        self._control_task.start()

    def measured_outlet_dew(self) -> float:
        temp = self.outlet_sensor.read_temperature()
        rh = self.outlet_sensor.read_humidity()
        self._last_outlet_dew = dew_point(temp, min(max(rh, 0.5), 100.0))
        return self._last_outlet_dew

    def _control(self, now: float) -> None:
        i = self.subspace
        if self.policy.exchanges_state:
            # Latest neighbor consensus states heard over the channel.
            states: Dict[int, float] = {}
            for j in self.controller.neighbors:
                value = self.fresh_value(DataType.CONSENSUS, j)
                if value is not None:
                    states[j] = value
            self.controller.set_neighbor_states(states)
        room_dew = self.room_dew_point(i)
        inputs = VentilationInputs(
            room_temp_c=self.bus_value(DataType.TEMPERATURE, ("room", i),
                                       28.9),
            room_dew_point_c=room_dew,
            room_co2_ppm=self.bus_value(DataType.CO2, i, 450.0),
            supply_water_temp_c=self.bus_value(DataType.WATER_TEMP, "supply",
                                               DEFAULT_SUPPLY_C),
            airbox_out_dew_point_c=self.measured_outlet_dew(),
        )
        command = self.controller.step(inputs, CONTROL_PERIOD_S)
        self.plant.vent_units[i].airbox.set_fan_flow_demand(
            command.fan_flow_demand_m3s)
        self.mote.broadcast(DataType.FAN_CMD, command.fan_speed_step, key=i)
        if self.policy.exchanges_state:
            state = self.controller.shared_state()
            if state is not None:
                # Zone-to-zone consensus exchange: one extra frame per
                # control period, paid on the real channel.
                self.mote.broadcast(DataType.CONSENSUS, state, key=i)
        self.sim.trace.record(f"vent/fan_step/{i}", now,
                              command.fan_speed_step)
        self._note_actuation(now)

    def report(self, now: float) -> None:
        if self._last_outlet_dew is None:
            self.measured_outlet_dew()
        self.mote.broadcast(DataType.AIRBOX_DEW, self._last_outlet_dew,
                            key=self.subspace)


class ControlV3(Board):
    """CO2flap driver (one per flap; paper Fig. 7(c,d)).

    Actuates the stepper on FAN_CMD packets from its airbox's V-2 board
    and broadcasts its CO2 sensor readings.
    """

    def __init__(self, sim: Simulator, medium: BroadcastMedium,
                 plant: Plant, subspace: int, **kwargs) -> None:
        super().__init__(sim, medium, f"control-v3-{subspace}", plant,
                         **kwargs)
        self.subspace = subspace
        self.co2_sensor = CO2Sensor(
            f"flap-{subspace}/co2",
            lambda: plant.room.state_of(subspace).co2_ppm,
            sim.rng)
        self.mote.subscribe(DataType.FAN_CMD, self._on_fan_cmd)

    def _on_fan_cmd(self, packet: Packet, sender: str) -> None:
        if packet.payload.get("key") != self.subspace:
            return
        step = packet.payload.get("value", 0)
        self.plant.vent_units[self.subspace].flap.command(step > 0)
        # Packet-driven actuation: the flap steps on this very frame,
        # so the trace's actuate span comes straight from its context.
        if packet.trace_ctx is not None:
            self._trace.actuate_packet(packet.trace_ctx, self.device_id,
                                       self.sim.now, self.current_tier, 0)

    def report(self, now: float) -> None:
        self.mote.broadcast(DataType.CO2, self.co2_sensor.read(),
                            key=self.subspace)


def _outlet_rh(plant: Plant, subspace: int) -> float:
    """Relative humidity at the airbox outlet (for the SHT75 model)."""
    from repro.physics.psychrometrics import relative_humidity_from_dew_point
    temp = plant.airbox_outlet_temp_c(subspace)
    dew = min(plant.airbox_outlet_dew_c(subspace), temp)
    return relative_humidity_from_dew_point(temp, dew)
