"""The assembled BubbleZERO system — the library's main entry point.

``BubbleZero`` wires together the simulator, the physical plant, the
wireless network, the sensor fleet and the control boards, schedules
workload events, and runs the experiment.  It is the simulation
counterpart of the whole laboratory.

Typical use::

    from repro import BubbleZero, BubbleZeroConfig

    system = BubbleZero(BubbleZeroConfig(seed=7))
    system.start()
    system.run(hours=1.75)
    print(system.plant.cop_report())
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.degradation import COMFORT_BAND_K
from repro.control.radiant import RadiantInputs
from repro.control.ventilation import VentilationInputs
from repro.core.config import BubbleZeroConfig
from repro.core.plant import Plant
from repro.obs.events import (
    COMFORT_BREACH,
    COMFORT_CLEARED,
    DEW_BREACH,
    DEW_CLEARED,
)
from repro.scenarios.topology import SystemTopology, paper_topology
from repro.devices.boards import (
    Board,
    ControlC1,
    ControlC2,
    ControlV1,
    ControlV2,
    ControlV3,
    CONTROL_PERIOD_S,
)
from repro.devices.btnode import BtSensorNode, TransmissionMode
from repro.devices.sensors import SensorModel
from repro.net.adaptive import AdaptivePolicy
from repro.net.medium import BroadcastMedium, Sniffer
from repro.net.packet import DataType
from repro.physics.weather import ConstantWeather, WeatherModel
from repro.sim.engine import (
    Event,
    Simulator,
    PRIORITY_CONTROL,
    PRIORITY_MONITOR,
    PRIORITY_PHYSICS,
)
from repro.sim.process import PeriodicTask
from repro.workloads.events import (
    DoorEvent,
    EventScript,
    OccupancyChange,
    WindowEvent,
)


# Longest event-free gap the macro physics scheduler integrates in one
# closed-form step, in physics ticks.  Bounds the single-shot error of
# the hydronic components (whose time constants are minutes) and keeps
# any one firing cheap; gaps longer than this are simply split.
_MACRO_MAX_TICKS = 60


class BubbleZero:
    """The full distributed HVAC system."""

    def __init__(self, config: Optional[BubbleZeroConfig] = None,
                 weather: Optional[WeatherModel] = None,
                 obs=None,
                 topology: Optional[SystemTopology] = None,
                 controller: str = "pid") -> None:
        from repro.control.policy import build_policy
        self.config = config or BubbleZeroConfig()
        self.topology = topology or paper_topology()
        self.controller_name = controller
        self.policy = build_policy(controller)
        self.sim = Simulator(seed=self.config.seed,
                             start_time=self.config.start_time_s,
                             obs=obs)
        self.weather = weather or ConstantWeather(
            self.config.outdoor.temp_c, self.config.outdoor.dew_point_c)
        self.plant = Plant(self.weather, topology=self.topology,
                           vector=self.config.physics_vector,
                           solver=self.config.physics_solver)
        self.bt_nodes: List[BtSensorNode] = []
        self.boards: List[Board] = []
        self.medium: Optional[BroadcastMedium] = None
        self.sniffer: Optional[Sniffer] = None
        self._direct_loop: Optional[PeriodicTask] = None
        if self.config.network.enabled:
            self._build_network_stack()
        else:
            self._build_direct_stack()
        # Physics runs either as a plain 1 Hz periodic task (the
        # reference behaviour) or through the macro-stepping scheduler,
        # which skips ahead over event-free gaps in one closed-form
        # integration (see _commit_physics).
        self._physics_task: Optional[PeriodicTask] = None
        self._physics_pending: Optional[Event] = None
        self._physics_last = 0.0
        self._physics_ticks = 1
        self.physics_macro_steps = 0
        self.physics_unit_steps = 0
        # Distinct event name per physics backend so the stride-sampled
        # profiler attributes the vector core as its own component.
        self._physics_event_name = ("physics-vector"
                                    if self.config.physics_vector
                                    else "physics")
        if not self.config.physics_macro_step:
            self._physics_task = PeriodicTask(
                self.sim, self._physics_event_name,
                self.config.physics_dt_s,
                self._physics_step, priority=PRIORITY_PHYSICS,
                phase=self.config.physics_dt_s)
        self._recorder_task = PeriodicTask(
            self.sim, "recorder", self.config.record_period_s, self._record,
            priority=PRIORITY_MONITOR, phase=0.0)
        # Last observed comfort/dew breach state, per zone and panel.
        # The recorder flips these and emits comfort.*/dew.* transition
        # events (the SLO scorer's raw material) — pure bookkeeping on
        # the existing sampling grid, so observation stays passive.
        self._comfort_breached = [False] * self.topology.zone_count
        self._dew_breached = [False] * self.topology.panel_count
        self._started = False
        self.supervisor = self._build_supervisor()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_network_stack(self) -> None:
        net = self.config.network
        self.medium = BroadcastMedium(
            self.sim, loss_probability=net.loss_probability)
        self.sniffer = Sniffer()
        self.medium.attach_sniffer(self.sniffer)

        mode = (TransmissionMode.ADAPTIVE if net.bt_mode == "adaptive"
                else TransmissionMode.FIXED)
        rng = self.sim.rng
        room = self.plant.room

        def make_node(device_id: str, data_type: DataType, key,
                      measure, noise: float, quantum: float) -> BtSensorNode:
            sensor = SensorModel(device_id, measure, rng, noise_std=noise,
                                 offset_std=noise, quantum=quantum)
            policy = AdaptivePolicy.for_type(
                data_type, histogram_slots=net.histogram_slots)
            node = BtSensorNode(self.sim, self.medium, device_id, data_type,
                                key, sensor, mode=mode, policy=policy,
                                track_oracle=net.track_oracle)
            self.bt_nodes.append(node)
            return node

        # One room/ceiling temperature+humidity quartet per zone, in the
        # exact id order SystemTopology.sensor_node_ids() declares.
        for i in range(self.topology.zone_count):
            make_node(f"bt-room-temp-{i}", DataType.TEMPERATURE, ("room", i),
                      lambda i=i: room.state_of(i).temp_c, 0.012, 0.01)
            make_node(f"bt-room-hum-{i}", DataType.HUMIDITY, ("room", i),
                      lambda i=i: room.state_of(i).relative_humidity(),
                      0.3, 0.05)
            make_node(f"bt-ceil-temp-{i}", DataType.TEMPERATURE,
                      ("ceiling", i),
                      lambda i=i: room.state_of(i).temp_c - 0.2, 0.012, 0.01)
            make_node(f"bt-ceil-hum-{i}", DataType.HUMIDITY, ("ceiling", i),
                      lambda i=i: room.state_of(i).relative_humidity(),
                      0.3, 0.05)

        comfort = self.config.comfort
        adapter = net.ac_schedule_adaptation
        self.boards = [
            ControlC1(self.sim, self.medium, self.plant,
                      use_schedule_adapter=adapter),
            ControlC2(self.sim, self.medium, self.plant,
                      preferred_temp_c=comfort.preferred_temp_c,
                      policy=self.policy,
                      use_schedule_adapter=adapter),
            ControlV1(self.sim, self.medium, self.plant,
                      preferred_temp_c=comfort.preferred_temp_c,
                      preferred_rh_percent=comfort.preferred_rh_percent,
                      policy=self.policy,
                      use_schedule_adapter=adapter),
        ]
        for i in range(self.topology.zone_count):
            self.boards.append(ControlV2(
                self.sim, self.medium, self.plant, i,
                preferred_temp_c=comfort.preferred_temp_c,
                preferred_rh_percent=comfort.preferred_rh_percent,
                policy=self.policy,
                use_schedule_adapter=adapter))
            self.boards.append(ControlV3(
                self.sim, self.medium, self.plant, i,
                use_schedule_adapter=adapter))

    def _build_direct_stack(self) -> None:
        """Wired baseline: controllers read the plant truth directly."""
        comfort = self.config.comfort
        volume = self.plant.room.geometry.subspace_volume_m3
        self._radiant_direct = [
            self.policy.radiant_law(
                f"direct-radiant-{p}",
                preferred_temp_c=comfort.preferred_temp_c,
                pump_curve=self.plant.panel_loops[p].supply_pump.curve,
                panel=p, topology=self.topology)
            for p in range(self.topology.panel_count)
        ]
        self._vent_direct = [
            self.policy.ventilation_law(
                f"direct-vent-{i}", subspace_volume_m3=volume,
                preferred_temp_c=comfort.preferred_temp_c,
                preferred_rh_percent=comfort.preferred_rh_percent, zone=i,
                coil_pump_curve=(
                    self.plant.vent_units[i].airbox.coil_pump.curve),
                topology=self.topology)
            for i in range(self.topology.zone_count)
        ]
        self._direct_loop = PeriodicTask(
            self.sim, "direct-control", CONTROL_PERIOD_S, self._direct_step,
            priority=PRIORITY_CONTROL)

    def _direct_step(self, now: float) -> None:
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
                room_temp_c=room_temp,
                ceiling_dew_point_c=ceiling_dew,
                supply_temp_c=supply,
                return_temp_c=plant.panel_return_temp_c(p),
            ), CONTROL_PERIOD_S)
            loop = plant.panel_loops[p]
            loop.supply_pump.set_voltage(command.supply_voltage)
            loop.recycle_pump.set_voltage(command.recycle_voltage)
        for i, controller in enumerate(self._vent_direct):
            state = room.state_of(i)
            command = controller.step(VentilationInputs(
                room_temp_c=state.temp_c,
                room_dew_point_c=state.dew_point_c,
                room_co2_ppm=state.co2_ppm,
                supply_water_temp_c=supply,
                airbox_out_dew_point_c=plant.airbox_outlet_dew_c(i),
            ), CONTROL_PERIOD_S)
            unit = plant.vent_units[i]
            unit.airbox.set_coil_pump_voltage(command.coil_pump_voltage)
            unit.airbox.set_fan_flow_demand(command.fan_flow_demand_m3s)
            unit.flap.command(command.flap_open)

    def _build_supervisor(self):
        """Register every controller with a shared supervisor, so
        occupant preference changes (and strategies like occupancy
        setback) reach all of them at once."""
        from repro.control.supervisor import OccupantPreferences, Supervisor
        comfort = self.config.comfort
        supervisor = Supervisor(OccupantPreferences(
            temp_c=comfort.preferred_temp_c,
            rh_percent=comfort.preferred_rh_percent,
            co2_ppm=comfort.co2_target_ppm))
        supervisor.obs = self.sim.obs
        from repro.devices.boards import ControlC2, ControlV1, ControlV2
        for board in self.boards:
            board.supervisor = supervisor
            if isinstance(board, ControlC2):
                for controller in board.controllers:
                    supervisor.register_radiant(controller)
            elif isinstance(board, ControlV1):
                for controller in board.controllers:
                    supervisor.register_ventilation(controller)
            elif isinstance(board, ControlV2):
                supervisor.register_ventilation(board.controller)
        if self._direct_loop is not None:
            for controller in self._radiant_direct:
                supervisor.register_radiant(controller)
            for controller in self._vent_direct:
                supervisor.register_ventilation(controller)
        return supervisor

    def total_occupancy(self) -> float:
        """Current total headcount (ground truth for setback studies)."""
        return sum(self.plant.occupants)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot the system: physics, sensors, boards, recording."""
        if self._started:
            return
        self._started = True
        if self._physics_task is not None:
            self._physics_task.start()
        self._recorder_task.start()
        for node in self.bt_nodes:
            node.start()
        for board in self.boards:
            board.start()
        if self._direct_loop is not None:
            self._direct_loop.start()
        if self._physics_task is None:
            # Macro mode commits the first physics firing only after
            # every other task has queued its first event, so the gap
            # scan in _commit_physics sees the complete schedule.
            # Physics is alone at its priority level, so starting it
            # last cannot reorder same-instant dispatches.
            self._physics_last = self.sim.clock.now
            self._commit_physics()

    def run(self, seconds: Optional[float] = None,
            minutes: Optional[float] = None,
            hours: Optional[float] = None) -> None:
        """Advance the experiment by the given duration."""
        total = 0.0
        total += seconds or 0.0
        total += (minutes or 0.0) * 60.0
        total += (hours or 0.0) * 3600.0
        if total <= 0:
            raise ValueError("run duration must be positive")
        if not self._started:
            self.start()
        self.sim.run(total)
        if self._physics_pending is not None:
            self._flush_physics()

    def finalize(self) -> None:
        """Close energy accounting (call once, after the last run)."""
        for node in self.bt_nodes:
            node.finalize(self.sim.now)

    # ------------------------------------------------------------------
    # Workload events
    # ------------------------------------------------------------------
    def schedule_script(self, script: EventScript) -> None:
        for event in script.events:
            if isinstance(event, DoorEvent):
                self.schedule_door(event.start, event.duration,
                                   event.fraction)
            elif isinstance(event, WindowEvent):
                self.schedule_window(event.start, event.duration,
                                     event.fraction)
            elif isinstance(event, OccupancyChange):
                self.sim.schedule_at(
                    event.time,
                    lambda e=event: self.plant.set_occupants(
                        e.subspace, e.occupants),
                    name=f"occupancy/{event.subspace}")

    def schedule_door(self, start: float, duration: float,
                      fraction: float = 1.0) -> None:
        """Open the door at ``start`` (absolute) for ``duration`` s."""
        self.sim.schedule_at(start,
                             lambda: self.plant.set_door(fraction),
                             name="door-open")
        self.sim.schedule_at(start + duration,
                             lambda: self.plant.set_door(0.0),
                             name="door-close")

    def schedule_window(self, start: float, duration: float,
                        fraction: float = 1.0) -> None:
        self.sim.schedule_at(start,
                             lambda: self.plant.set_window(fraction),
                             name="window-open")
        self.sim.schedule_at(start + duration,
                             lambda: self.plant.set_window(0.0),
                             name="window-close")

    # ------------------------------------------------------------------
    # Physics and recording
    # ------------------------------------------------------------------
    def _physics_step(self, now: float) -> None:
        self.plant.step(now, self.config.physics_dt_s)

    def _commit_physics(self) -> None:
        """Schedule the next physics firing (macro mode).

        Scans the queue head for the next pending event.  Nothing can be
        dispatched before that instant, and new events are only created
        by dispatches, so the interval up to it is guaranteed
        event-free: every sensor read and actuator command in it — there
        are none — would have seen per-tick state.  The firing lands on
        the tick grid at or before that event (events exactly on the
        boundary still see fully-integrated state, because physics has
        the lowest priority number and dispatches first at an instant).
        Pending same-instant events make the gap zero ticks wide, which
        clamps to a single tick — the reference path.
        """
        sim = self.sim
        dt = self.config.physics_dt_s
        base = self._physics_last
        # Never schedule into the past: after a flush the clock may sit
        # a fraction of a tick past the last integrated boundary.
        k_min = int((sim.clock.now - base) / dt - 1e-9) + 1
        if k_min < 1:
            k_min = 1
        next_event = sim.queue.peek_time()
        if next_event is None:
            k = k_min
        else:
            k = int((next_event - base) / dt)
            if k < k_min:
                k = k_min
            elif k > _MACRO_MAX_TICKS:
                k = _MACRO_MAX_TICKS
        self._physics_ticks = k
        self._physics_pending = sim.queue.push(
            base + k * dt, PRIORITY_PHYSICS, self._physics_fire,
            self._physics_event_name)

    def _physics_fire(self) -> None:
        self._physics_pending = None
        now = self.sim.clock.now
        k = self._physics_ticks
        dt = self.config.physics_dt_s
        if k == 1:
            self.plant.step(now, dt)
            self.physics_unit_steps += 1
        else:
            self.plant.macro_step(now, k, dt)
            self.physics_macro_steps += 1
        self._physics_last = now
        self._commit_physics()

    def _flush_physics(self) -> None:
        """Integrate whole ticks left pending at the end of a run.

        A macro gap may straddle the run horizon; without this, state
        inspected between runs (meter snapshots, traces) would lag the
        reference by up to the committed gap.  Only whole ticks are
        integrated — the reference path never integrates partial ones —
        and the next firing is then re-committed on the same grid.
        """
        sim = self.sim
        dt = self.config.physics_dt_s
        k = int((sim.clock.now - self._physics_last) / dt + 1e-9)
        if k <= 0:
            return
        pending = self._physics_pending
        if pending is not None:
            pending.cancel()
            self._physics_pending = None
        now = sim.clock.now
        if k == 1:
            self.plant.step(now, dt)
            self.physics_unit_steps += 1
        else:
            self.plant.macro_step(now, k, dt)
            self.physics_macro_steps += 1
        self._physics_last = self._physics_last + k * dt
        self._commit_physics()

    def _record(self, now: float) -> None:
        trace = self.sim.trace
        outdoor = self.plant.outdoor(now)
        trace.record("outdoor/temp", now, outdoor.temp_c)
        trace.record("outdoor/dew", now, outdoor.dew_point_c)
        for i, subspace in enumerate(self.plant.room.subspaces):
            trace.record(f"subspace/{i}/temp", now, subspace.state.temp_c)
            trace.record(f"subspace/{i}/dew", now, subspace.state.dew_point_c)
            trace.record(f"subspace/{i}/co2", now, subspace.state.co2_ppm)
        trace.record("tank/18C", now, self.plant.radiant_tank.temp_c)
        trace.record("tank/8C", now, self.plant.vent_tank.temp_c)
        for p, loop in enumerate(self.plant.panel_loops):
            trace.record(f"panel/{p}/mix_temp", now, loop.mix_temp_c)
            trace.record(f"panel/{p}/mix_flow", now, loop.mix_flow_lps)
            if loop.last_result is not None:
                trace.record(f"panel/{p}/heat", now, loop.last_result.heat_w)
                trace.record(f"panel/{p}/surface", now,
                             loop.last_result.surface_temp_c)
        self._slo_probe(now)

    def _slo_probe(self, now: float) -> None:
        """Emit comfort/dew breach transitions on the recorder grid.

        Observes the same plant state the recorder just traced — no
        randomness, no scheduling — so an observed run stays
        bit-identical to a blind one.  Comfort uses the occupant band
        (preferred +/- COMFORT_BAND_K); a dew breach is a panel surface
        at or below the highest dew point among its served zones (the
        zero-margin accounting of repro.analysis.degradation).
        """
        obs = self.sim.obs
        if not obs.enabled:
            return
        preferred = self.config.comfort.preferred_temp_c
        subspaces = self.plant.room.subspaces
        for i, subspace in enumerate(subspaces):
            breached = (abs(subspace.state.temp_c - preferred)
                        > COMFORT_BAND_K)
            if breached != self._comfort_breached[i]:
                self._comfort_breached[i] = breached
                obs.events.emit(
                    COMFORT_BREACH if breached else COMFORT_CLEARED,
                    now, zone=i)
        for p, loop in enumerate(self.plant.panel_loops):
            if loop.last_result is None:
                continue
            dew_max = max(subspaces[z].state.dew_point_c
                          for z in self.topology.panel_zones[p])
            breached = loop.last_result.surface_temp_c - dew_max <= 0.0
            if breached != self._dew_breached[p]:
                self._dew_breached[p] = breached
                obs.events.emit(
                    DEW_BREACH if breached else DEW_CLEARED,
                    now, panel=p)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def subspace_series(self, index: int, quantity: str = "temp"):
        """(times, values) for one subspace's recorded series."""
        series = self.sim.trace.series(f"subspace/{index}/{quantity}")
        return series.times(), series.values()

    def network_stats(self) -> Dict[str, float]:
        if self.medium is None:
            return {}
        return self.medium.stats()

    def degradation_status(self) -> Dict[str, object]:
        """How gracefully the system is degrading right now.

        Aggregates the supplier-loss bookkeeping of every board (tier-2
        widened-window and tier-3 last-good-with-decay activations, the
        worst estimate staleness seen) with the supervisor's
        conservative-mode latch and the crashed-node roster — the raw
        material of :mod:`repro.analysis.degradation` scoring.
        """
        return {
            "crashed_nodes": sorted(node.device_id
                                    for node in self.bt_nodes
                                    if node.crashed),
            "stuck_sensors": sorted(node.device_id
                                    for node in self.bt_nodes
                                    if node.sensor.is_stuck),
            "degraded_estimates": sum(board.degraded_estimates
                                      for board in self.boards),
            "fallback_estimates": sum(board.fallback_estimates
                                      for board in self.boards),
            "max_staleness_s": max(
                (board.max_staleness_s for board in self.boards),
                default=0.0),
            "conservative_mode": self.supervisor.conservative_mode,
            "conservative_entries": self.supervisor.conservative_entries,
            "conservative_mode_s": self.supervisor.conservative_seconds(
                self.sim.now),
        }

    def adaptive_transmitters(self):
        """All BT-ADPT state machines (empty in fixed/direct modes)."""
        return [node.transmitter for node in self.bt_nodes
                if node.transmitter is not None]
