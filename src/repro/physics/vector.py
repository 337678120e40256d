"""Structure-of-arrays vectorized physics core.

The scalar plant walks one Python object per zone through every physics
tick: each radiant loop re-reads pump curves, re-derives exchanger
effectiveness and re-boxes dataclasses, and each airbox re-resolves a
dozen attribute chains — per tick, per zone.  For the paper's 4-zone lab
that overhead is tolerable; for the many-zone buildings the related work
evaluates on (and ``grid_topology(n)`` now declares in one line) it is
the scaling wall.

This module keeps the *numbers* of the scalar path and restructures the
*storage and the loop*:

* :class:`ZoneStateArrays` holds every zone's temperature, humidity
  ratio and CO2 concentration as ``float64[n]`` numpy arrays — one
  structure of arrays instead of n ``SubspaceState`` boxes.
* :func:`attach_soa` rewires a :class:`~repro.physics.room.Room` onto
  that storage.  Device-facing reads stay scalar: each subspace becomes
  a :class:`VectorSubspace` whose ``state`` is a live
  :class:`ZoneStateView` over its row, so sensors, boards and the
  recorder read exactly the values they always did, and RNG draw order
  is untouched.
* :class:`VectorPlantKernel` advances the whole plant over one
  event-free gap in a single fused call: every gap-invariant quantity
  (pump flows, exchanger effectiveness, fan power, coil constants, tank
  thermal masses, chiller COP at the frozen reject temperature) is
  hoisted once per gap, and the per-tick loop runs on plain local
  floats.  Macro gaps then delegate the room advance to the
  closed-form eigensolve the scalar path already uses
  (:meth:`Room.macro_step`), so clamp-binding regimes fall back to
  per-tick integration *exactly* as the reference does.

Bit-exactness contract: every floating-point expression below repeats
the grouping of the scalar component it replaces (``plant.py``,
``room.py``, ``tank.py``, ``coil.py``, ``panel.py``, ...), accumulators
keep their per-tick add order, and hoisted subexpressions are exactly
the loop-invariant factors of the original expressions.  The scalar
path remains the reference oracle; ``tests/test_vector_equivalence.py``
pins the two together bit for bit.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.airside.airbox import AirboxOutput
from repro.hydronics.panel import PanelResult
from repro.hydronics.water import WATER_CP, mass_flow
from repro.physics.psychrometrics import (
    dew_point_from_humidity_ratio,
    humidity_ratio_from_dew_point,
    moist_air_enthalpy,
    relative_humidity_from_ratio,
)
from repro.physics.room import (
    AIR_CP,
    AIR_DENSITY,
    OCCUPANT_CO2_M3S,
    OCCUPANT_LATENT_KGS,
    OCCUPANT_SENSIBLE_W,
    Room,
    Subspace,
    SubspaceInputs,
)

# plant.py imports this module only lazily (inside ``Plant.__init__``),
# so pulling its constant here cannot cycle.
from repro.core.plant import CONDENSER_APPROACH_K


class ZoneStateArrays:
    """All zones' air state as three ``float64[n]`` arrays."""

    __slots__ = ("temp_c", "humidity_ratio", "co2_ppm")

    def __init__(self, temp_c: Sequence[float],
                 humidity_ratio: Sequence[float],
                 co2_ppm: Sequence[float]) -> None:
        self.temp_c = np.asarray(temp_c, dtype=np.float64)
        self.humidity_ratio = np.asarray(humidity_ratio, dtype=np.float64)
        self.co2_ppm = np.asarray(co2_ppm, dtype=np.float64)
        if not (self.temp_c.shape == self.humidity_ratio.shape
                == self.co2_ppm.shape) or self.temp_c.ndim != 1:
            raise ValueError("zone state arrays must be equal-length 1-D")

    def __len__(self) -> int:
        return len(self.temp_c)


class ZoneStateView:
    """Live scalar view of one zone's row of a :class:`ZoneStateArrays`.

    Duck-types :class:`~repro.physics.room.SubspaceState`: sensors and
    controllers read ``temp_c`` / ``humidity_ratio`` / ``co2_ppm`` /
    ``dew_point_c`` / ``relative_humidity()`` and always see the current
    array contents.
    """

    __slots__ = ("_arrays", "_index")

    def __init__(self, arrays: ZoneStateArrays, index: int) -> None:
        self._arrays = arrays
        self._index = index

    @property
    def temp_c(self) -> float:
        return float(self._arrays.temp_c[self._index])

    @property
    def humidity_ratio(self) -> float:
        return float(self._arrays.humidity_ratio[self._index])

    @property
    def co2_ppm(self) -> float:
        return float(self._arrays.co2_ppm[self._index])

    @property
    def dew_point_c(self) -> float:
        return dew_point_from_humidity_ratio(self.humidity_ratio)

    def relative_humidity(self) -> float:
        return relative_humidity_from_ratio(self.temp_c, self.humidity_ratio)

    def __repr__(self) -> str:
        return (f"ZoneStateView(temp_c={self.temp_c!r}, "
                f"humidity_ratio={self.humidity_ratio!r}, "
                f"co2_ppm={self.co2_ppm!r})")


class VectorSubspace(Subspace):
    """A :class:`Subspace` whose state lives in shared SoA storage.

    ``state`` reads return the live view; ``state`` writes (the pattern
    the scalar integrators and tests use: ``s.state = SubspaceState(...)``)
    store the three scalars into the arrays.
    """

    def __init__(self, index: int, volume_m3: float,
                 arrays: ZoneStateArrays) -> None:
        self.index = index
        self.volume_m3 = volume_m3
        self._arrays = arrays
        self._view = ZoneStateView(arrays, index)

    @property
    def state(self) -> ZoneStateView:
        return self._view

    @state.setter
    def state(self, value) -> None:
        i = self.index
        self._arrays.temp_c[i] = value.temp_c
        self._arrays.humidity_ratio[i] = value.humidity_ratio
        self._arrays.co2_ppm[i] = value.co2_ppm


def attach_soa(room: Room) -> ZoneStateArrays:
    """Rewire ``room`` onto structure-of-arrays state storage.

    Idempotent: a room already attached keeps its arrays.  The scalar
    integrators (:meth:`Room.step`, :meth:`Room.macro_step`) keep
    working unchanged — they read per-zone views and write through the
    ``state`` setter — so the fallback paths stay bit-identical.
    """
    if room.subspaces and isinstance(room.subspaces[0], VectorSubspace):
        return room.subspaces[0]._arrays
    arrays = ZoneStateArrays(
        [s.state.temp_c for s in room.subspaces],
        [s.state.humidity_ratio for s in room.subspaces],
        [s.state.co2_ppm for s in room.subspaces])
    room.subspaces = [VectorSubspace(s.index, s.volume_m3, arrays)
                      for s in room.subspaces]
    return arrays


def _tank_tick(st: list, dt: float, ambient: float, ua: float, mass: float,
               hi: float, lo: float, cap: float, par: float,
               cop: float) -> None:
    """One :meth:`ColdWaterTank.step` on unboxed state.

    ``st`` is ``[temp_c, energy_in_j, heat_returned_j, ambient_gain_j,
    chilling, chiller_energy_j, chiller_heat_moved_j]``.  Repeats the
    tank/chiller expressions verbatim; ``cop`` is the chiller's
    ``cop_at(reject)``, constant across a gap because the reject
    temperature is.
    """
    temp = st[0]
    gain_w = ua * (ambient - temp)
    g_dt = gain_w * dt
    temp += g_dt / mass
    st[3] += g_dt
    chilling = st[4]
    if temp > hi:
        chilling = True
    elif temp < lo:
        chilling = False
    if chilling:
        load_w = cap
        excess_k = temp - lo
        max_removable = excess_k * mass / dt if dt else 0.0
        load_w = min(load_w, max(0.0, max_removable))
        clamped = min(load_w, cap)
        if clamped == 0:
            st[5] += par * dt
        else:
            st[5] += (par + clamped / cop) * dt
        st[6] += clamped * dt
        temp -= load_w * dt / mass
    else:
        st[5] += par * dt
    st[0] = temp
    st[4] = chilling


class VectorPlantKernel:
    """Fused gap integrator for one :class:`~repro.core.plant.Plant`.

    Owns the plant's zone state as SoA arrays and advances hydronics,
    airside, tanks and room over a whole event-free gap in one call.
    Constructed by ``Plant(..., vector=True)``; the plant then delegates
    :meth:`step` / :meth:`macro_step` here.
    """

    def __init__(self, plant) -> None:
        self.plant = plant
        self.arrays = attach_soa(plant.room)
        self._n = len(plant.room.subspaces)
        self._ctx_built = False

    # ------------------------------------------------------------------
    def _build_ctx(self) -> None:
        """Build the persistent gap context.

        Component *constants* (coil geometry, tank masses, panel UA,
        flap travel times) are read once; *control inputs* (pump
        voltages, fan speed steps) get value caches so their derived
        quantities — pump curves, exchanger effectiveness, fan tables —
        are recomputed only on actual actuation changes rather than
        every gap.  Accumulators and actuator targets are still re-read
        from the owning objects at every gap, so anything the scalar
        component model mutates between gaps stays authoritative.
        """
        plant = self.plant
        n = self._n
        loops = list(plant.panel_loops)
        units = list(plant.vent_units)
        n_panels = len(loops)
        topo = plant.topology
        self._loops = loops
        self._units = units
        self._n_panels = n_panels
        self._p_served = [topo.panel_zones[p] for p in range(n_panels)]
        self._p_ua = [loop.panel.ua_w_per_k for loop in loops]
        self._p_film = [loop.panel.surface_film_fraction for loop in loops]
        self._door_weights = topo.door_weights
        self._window_weights = topo.window_weights
        # Pump-voltage caches (None forces the first-gap computation).
        self._cv_sup = [None] * n_panels
        self._cv_rcy = [None] * n_panels
        self._p_fsupp = [0.0] * n_panels
        self._p_frcyc = [0.0] * n_panels
        self._p_total = [0.0] * n_panels
        self._p_mcp = [0.0] * n_panels
        self._p_emcp = [0.0] * n_panels
        self._p_eff = [0.0] * n_panels
        self._p_mf_supp = [0.0] * n_panels
        self._p_sup_pw = [0.0] * n_panels
        self._p_rcy_pw = [0.0] * n_panels
        # Per-tick scratch, persistent across gaps (overwritten fully).
        self._p_zt = [0.0] * n_panels
        self._p_dew = [0.0] * n_panels
        self._p_mwc = [0.0] * n_panels
        self._p_rt = [0.0] * n_panels
        self._p_heat_abs = [0.0] * n_panels
        self._p_sup_e = [0.0] * n_panels
        self._p_rcy_e = [0.0] * n_panels
        self._p_sup_pd = [0.0] * n_panels
        self._p_rcy_pd = [0.0] * n_panels
        self._p_last_heat = [0.0] * n_panels
        self._p_last_ret = [0.0] * n_panels
        self._p_last_surf = [0.0] * n_panels
        self._p_last_mixt = [0.0] * n_panels
        # Vent units: constants and actuation caches.
        self._cu_fan = [None] * n
        self._cu_pumpv = [None] * n
        self._u_fanflow = [0.0] * n
        self._u_fan_pw = [0.0] * n
        self._u_pump_pw = [0.0] * n
        self._u_flow = [0.0] * n
        self._u_mass_air = [0.0] * n
        self._u_reheat = [False] * n
        self._u_pumpflow = [0.0] * n
        self._u_alpha = [0.0] * n
        self._u_eff = [0.0] * n
        self._u_maxwf = [u.airbox.coil.max_water_flow_lps for u in units]
        self._u_drop = [u.airbox.coil.dew_drop_per_lps for u in units]
        self._u_appr = [u.airbox.coil.approach_k for u in units]
        self._u_bf1 = [1.0 - u.airbox.coil.bypass_factor for u in units]
        self._u_reheat_k = [u.airbox.SUPPLY_REHEAT_K for u in units]
        self._u_motor_pw = [u.flap.motor_power_w for u in units]
        self._u_travel = [u.flap.travel_time_s for u in units]
        self._u_heat_e = [0.0] * n
        self._u_fan_e = [0.0] * n
        self._u_fan_pd = [0.0] * n
        self._u_pump_e = [0.0] * n
        self._u_pump_pd = [0.0] * n
        self._u_flap_pos = [0.0] * n
        self._u_flap_tgt = [0.0] * n
        self._u_flap_rate = [0.0] * n
        self._u_flap_pd = [0.0] * n
        self._u_flap_e = [0.0] * n
        self._u_supt = [0.0] * n
        self._u_supw = [0.0] * n
        self._u_eflow = [0.0] * n
        self._u_last_dew = [0.0] * n
        self._u_last_heat = [0.0] * n
        self._u_last_waterT = [0.0] * n
        # Tanks and chillers: thermal constants plus a COP cache keyed
        # on the (weather-driven) reject temperature.
        rtank = plant.radiant_tank
        vtank = plant.vent_tank
        self._r_mass = rtank.thermal_mass_j_per_k
        self._v_mass = vtank.thermal_mass_j_per_k
        self._r_ua = rtank.ambient_ua_w_per_k
        self._v_ua = vtank.ambient_ua_w_per_k
        self._r_hi = rtank.setpoint_c + rtank.deadband_k
        self._r_lo = rtank.setpoint_c - rtank.deadband_k
        self._v_hi = vtank.setpoint_c + vtank.deadband_k
        self._v_lo = vtank.setpoint_c - vtank.deadband_k
        self._r_cap = rtank.chiller.capacity_w
        self._v_cap = vtank.chiller.capacity_w
        self._r_par = rtank.chiller.parasitic_w
        self._v_par = vtank.chiller.parasitic_w
        self._cop_key = None
        self._r_cop = 0.0
        self._v_cop = 0.0
        self._ctx_built = True

    # ------------------------------------------------------------------
    def step(self, now: float, dt: float) -> None:
        """Fused equivalent of :meth:`Plant.step` (one unit tick)."""
        self._run_gap(now, 1, dt, macro=False)

    def macro_step(self, now: float, ticks: int, dt: float) -> None:
        """Fused equivalent of :meth:`Plant.macro_step`."""
        self._run_gap(now, ticks, dt, macro=True)

    # ------------------------------------------------------------------
    def _run_gap(self, now: float, ticks: int, dt: float,
                 macro: bool) -> None:
        plant = self.plant
        room = plant.room
        arrays = self.arrays
        n = self._n

        outdoor = plant.weather.state_at(now)
        out_t = outdoor.temp_c
        out_w = outdoor.humidity_ratio
        out_co2 = outdoor.co2_ppm
        reject = out_t + CONDENSER_APPROACH_K

        # Zone state, frozen for the whole gap (the scalar paths update
        # the room only once per gap too).
        temps = arrays.temp_c.tolist()
        ws = arrays.humidity_ratio.tolist()
        co2s = arrays.co2_ppm.tolist()

        if macro:
            # mean_temp_c(): int-0 seeded sequential sum, like sum().
            acc = 0
            for t in temps:
                acc = acc + t
            ambient = acc / n

        if not self._ctx_built:
            self._build_ctx()

        # --- tank / chiller gap context --------------------------------
        rtank = plant.radiant_tank
        vtank = plant.vent_tank
        rchiller = rtank.chiller
        vchiller = vtank.chiller
        r_mass = self._r_mass
        v_mass = self._v_mass
        r_st = [rtank.temp_c, rtank.energy_in_j, rtank.heat_returned_j,
                rtank.ambient_gain_j, rtank._chilling,
                rchiller.energy_j, rchiller.heat_moved_j]
        v_st = [vtank.temp_c, vtank.energy_in_j, vtank.heat_returned_j,
                vtank.ambient_gain_j, vtank._chilling,
                vchiller.energy_j, vchiller.heat_moved_j]
        r_ua = self._r_ua
        v_ua = self._v_ua
        r_hi = self._r_hi
        r_lo = self._r_lo
        v_hi = self._v_hi
        v_lo = self._v_lo
        r_cap = self._r_cap
        v_cap = self._v_cap
        r_par = self._r_par
        v_par = self._v_par
        if reject != self._cop_key:
            self._cop_key = reject
            self._r_cop = rchiller.cop_at(reject)
            self._v_cop = vchiller.cop_at(reject)
        r_cop = self._r_cop
        v_cop = self._v_cop

        # --- condensation guard gap context ----------------------------
        guard = plant.guard
        g_margin = guard.margin_k
        g_worst = guard.worst_margin_k
        g_viol = guard.violations
        cond_events = room.condensation_events

        # --- radiant loop gap context ----------------------------------
        loops = self._loops
        n_panels = self._n_panels
        p_served = self._p_served
        p_zt = self._p_zt
        p_fsupp = self._p_fsupp
        p_frcyc = self._p_frcyc
        p_total = self._p_total
        p_mcp = self._p_mcp
        p_emcp = self._p_emcp
        p_eff = self._p_eff
        p_film = self._p_film
        p_dew = self._p_dew
        p_mwc = self._p_mwc
        p_rt = self._p_rt
        p_heat_abs = self._p_heat_abs
        p_sup_e = self._p_sup_e
        p_rcy_e = self._p_rcy_e
        p_sup_pd = self._p_sup_pd
        p_rcy_pd = self._p_rcy_pd
        p_last_heat = self._p_last_heat
        p_last_ret = self._p_last_ret
        p_last_surf = self._p_last_surf
        p_last_mixt = self._p_last_mixt
        cv_sup = self._cv_sup
        cv_rcy = self._cv_rcy
        p_mf_supp = self._p_mf_supp
        p_sup_pw = self._p_sup_pw
        p_rcy_pw = self._p_rcy_pw
        for p, loop in enumerate(loops):
            served = p_served[p]
            if len(served) == 2:
                s0, s1 = served
                p_zt[p] = (temps[s0] + temps[s1]) / 2
            else:
                acc = 0
                for s in served:
                    acc = acc + temps[s]
                p_zt[p] = acc / len(served)
            # Pump-curve and exchanger quantities depend only on the
            # commanded voltages; recompute them on actuation changes.
            sp = loop.supply_pump
            rp = loop.recycle_pump
            sv = sp._voltage
            rv = rp._voltage
            if sv != cv_sup[p] or rv != cv_rcy[p]:
                cv_sup[p] = sv
                cv_rcy[p] = rv
                f_supp = sp.flow_lps
                f_rcyc = rp.flow_lps
                total = f_supp + f_rcyc
                p_fsupp[p] = f_supp
                p_frcyc[p] = f_rcyc
                p_total[p] = total
                p_sup_pw[p] = sp.electrical_power_w()
                p_rcy_pw[p] = rp.electrical_power_w()
                if total > 0:
                    m_cp = mass_flow(total) * WATER_CP
                    effectiveness = 1.0 - math.exp(-self._p_ua[p] / m_cp)
                    p_mcp[p] = m_cp
                    p_emcp[p] = effectiveness * m_cp
                    p_eff[p] = effectiveness
                p_mf_supp[p] = mass_flow(f_supp) if f_supp > 0 else 0.0
            if p_total[p] > 0:
                # max() over the served generator, zone states frozen.
                best = None
                for s in served:
                    d = dew_point_from_humidity_ratio(ws[s])
                    if best is None or d > best:
                        best = d
                p_dew[p] = best
                if p_fsupp[p] > 0:
                    p_mwc[p] = (p_mf_supp[p] * dt) * WATER_CP
            p_rt[p] = loop.return_temp_c
            p_heat_abs[p] = loop.panel.heat_absorbed_j
            p_sup_e[p] = sp.energy_j
            p_rcy_e[p] = rp.energy_j
            p_sup_pd[p] = p_sup_pw[p] * dt
            p_rcy_pd[p] = p_rcy_pw[p] * dt

        # --- vent unit gap context -------------------------------------
        units = self._units
        door_weights = self._door_weights
        window_weights = self._window_weights
        door_f = plant.door_open_fraction
        w08 = 0.8 * plant.window_open_fraction
        occupants = plant.occupants
        equipment = plant.equipment_w
        opening = [door_f * door_weights[i] + w08 * window_weights[i]
                   for i in range(n)]
        in_dew_gap = dew_point_from_humidity_ratio(out_w)
        h_in_gap = moist_air_enthalpy(out_t, out_w)

        cu_fan = self._cu_fan
        cu_pumpv = self._cu_pumpv
        u_fanflow = self._u_fanflow
        u_flow = self._u_flow
        u_mass_air = self._u_mass_air
        u_alpha = self._u_alpha
        u_pumpflow = self._u_pumpflow
        u_pump_pw = self._u_pump_pw
        u_eff = self._u_eff
        u_maxwf = self._u_maxwf
        u_drop = self._u_drop
        u_appr = self._u_appr
        u_bf1 = self._u_bf1
        u_reheat_k = self._u_reheat_k
        u_reheat = self._u_reheat
        u_heat_e = self._u_heat_e
        u_fan_e = self._u_fan_e
        u_fan_pw = self._u_fan_pw
        u_fan_pd = self._u_fan_pd
        u_pump_e = self._u_pump_e
        u_pump_pd = self._u_pump_pd
        u_flap_pos = self._u_flap_pos
        u_flap_tgt = self._u_flap_tgt
        u_flap_rate = self._u_flap_rate
        u_flap_pd = self._u_flap_pd
        u_flap_e = self._u_flap_e
        u_supt = self._u_supt
        u_supw = self._u_supw
        u_eflow = self._u_eflow
        u_last_dew = self._u_last_dew
        u_last_heat = self._u_last_heat
        u_last_waterT = self._u_last_waterT
        for i, unit in enumerate(units):
            ab = unit.airbox
            fans = ab.fans
            st = fans.speed_step
            if st != cu_fan[i]:
                cu_fan[i] = st
                fan_flow = fans.flow_m3s
                u_fanflow[i] = fan_flow
                u_fan_pw[i] = fans.power_w
                # Sets the damper open/closed state for the gap, same
                # result every tick of it.
                flow = ab.damper.effective_flow(fan_flow)
                u_flow[i] = flow
                u_mass_air[i] = flow * AIR_DENSITY
                u_reheat[i] = flow > 0
            cp = ab.coil_pump
            pv = cp._voltage
            if pv != cu_pumpv[i]:
                cu_pumpv[i] = pv
                u_pumpflow[i] = cp.flow_lps
                u_pump_pw[i] = cp.electrical_power_w()
            # Replicate the (dt -> alpha) single-slot cache, including
            # its writeback, so scalar/vector interleavings agree.
            if dt != ab._alpha_dt:
                ab._alpha = 1.0 - (0.0 if dt == 0 else
                                   math.exp(-dt / ab.COIL_FLOW_TAU_S))
                ab._alpha_dt = dt
            u_alpha[i] = ab._alpha
            u_eff[i] = ab._coil_flow_effective_lps
            u_heat_e[i] = ab.coil.heat_extracted_j
            u_fan_e[i] = fans.energy_j
            u_fan_pd[i] = u_fan_pw[i] * dt
            u_pump_e[i] = cp.energy_j
            u_pump_pd[i] = u_pump_pw[i] * dt
            flap = unit.flap
            u_flap_pos[i] = flap._position
            u_flap_tgt[i] = flap._target
            u_flap_rate[i] = dt / self._u_travel[i]
            u_flap_pd[i] = self._u_motor_pw[i] * dt
            u_flap_e[i] = flap.energy_j
        fan_acc = plant.fan_energy_j

        if macro:
            heat_sum = [0.0] * n
            flow_sum = [0.0] * n
            flow_temp_sum = [0.0] * n
            flow_w_sum = [0.0] * n
            temp_sum = [0.0] * n
            w_sum = [0.0] * n

        # --- the fused tick loop ---------------------------------------
        for _ in range(ticks):
            tick_ph = [0.0] * n

            for p in range(n_panels):
                total = p_total[p]
                zone_temp = p_zt[p]
                if total > 0:
                    mix_t = ((p_fsupp[p] * r_st[0] + p_frcyc[p] * p_rt[p])
                             / total)
                    m_cp = p_mcp[p]
                    heat_w = p_emcp[p] * (zone_temp - mix_t)
                    return_t = mix_t + heat_w / m_cp
                    if heat_w > 0:
                        p_heat_abs[p] += heat_w * dt
                    p_rt[p] = return_t
                    if p_fsupp[p] > 0:
                        heat_j = p_mwc[p] * (return_t - r_st[0])
                        r_st[0] += heat_j / r_mass
                        r_st[1] += heat_j
                        if heat_j > 0:
                            r_st[2] += heat_j
                    share = heat_w / len(p_served[p])
                    for s in p_served[p]:
                        tick_ph[s] += share
                    mean_water = 0.5 * (mix_t + return_t)
                    surface = (mean_water
                               + p_film[p] * (zone_temp - mean_water))
                    margin = surface - p_dew[p]
                    g_worst = min(g_worst, margin)
                    if margin < g_margin:
                        g_viol += 1
                        cond_events += 1
                    p_last_heat[p] = heat_w
                    p_last_ret[p] = return_t
                    p_last_surf[p] = surface
                    p_last_mixt[p] = mix_t
                else:
                    mix_t = r_st[0]
                    p_rt[p] += (zone_temp - p_rt[p]) * dt / 600.0
                    p_last_heat[p] = 0.0
                    p_last_ret[p] = mix_t
                    p_last_surf[p] = zone_temp
                    p_last_mixt[p] = mix_t
                p_sup_e[p] += p_sup_pd[p]
                p_rcy_e[p] += p_rcy_pd[p]

            for i in range(n):
                waterT = v_st[0]
                eff = u_eff[i]
                eff += u_alpha[i] * (u_pumpflow[i] - eff)
                u_eff[i] = eff
                flow = u_flow[i]
                if flow == 0 or eff == 0:
                    o_temp = out_t
                    o_w = out_w
                    o_dew = in_dew_gap
                    heat_w = 0.0
                else:
                    wf = min(eff, u_maxwf[i])
                    o_dew = max(in_dew_gap - u_drop[i] * wf,
                                waterT + u_appr[i])
                    o_dew = min(o_dew, in_dew_gap)
                    o_w = humidity_ratio_from_dew_point(o_dew)
                    o_w = min(o_w, out_w)
                    wetness = wf / u_maxwf[i]
                    apparatus = waterT + u_appr[i] * (1.0 - wetness)
                    contact = u_bf1[i] * wetness
                    o_temp = out_t - contact * (out_t - apparatus)
                    o_temp = max(o_temp, o_dew)
                    heat_w = max(0.0, u_mass_air[i]
                                 * (h_in_gap - moist_air_enthalpy(o_temp,
                                                                  o_w)))
                sup_t = o_temp + u_reheat_k[i] if u_reheat[i] else o_temp
                u_heat_e[i] += heat_w * dt
                u_fan_e[i] += u_fan_pd[i]
                u_pump_e[i] += u_pump_pd[i]

                pos = u_flap_pos[i]
                tgt = u_flap_tgt[i]
                moving = abs(tgt - pos) > 1e-9
                if pos < tgt:
                    pos = min(tgt, pos + u_flap_rate[i])
                elif pos > tgt:
                    pos = max(tgt, pos - u_flap_rate[i])
                if moving:
                    u_flap_e[i] += u_flap_pd[i]
                u_flap_pos[i] = pos

                e_flow = flow * (0.25 + 0.75 * pos)
                if eff > 0 and heat_w > 0:
                    mf = mass_flow(eff)
                    m_cp = mf * WATER_CP
                    coil_return = v_st[0] + heat_w / m_cp
                    heat_j = (mf * dt) * WATER_CP * (coil_return - v_st[0])
                    v_st[0] += heat_j / v_mass
                    v_st[1] += heat_j
                    if heat_j > 0:
                        v_st[2] += heat_j
                fan_acc += u_fan_pd[i]

                u_supt[i] = sup_t
                u_supw[i] = o_w
                u_eflow[i] = e_flow
                u_last_dew[i] = o_dew
                u_last_heat[i] = heat_w
                u_last_waterT[i] = waterT
                if macro:
                    heat_sum[i] += tick_ph[i]
                    flow_sum[i] += e_flow
                    flow_temp_sum[i] += e_flow * sup_t
                    flow_w_sum[i] += e_flow * o_w
                    temp_sum[i] += sup_t
                    w_sum[i] += o_w

            if macro:
                _tank_tick(r_st, dt, ambient, r_ua, r_mass, r_hi, r_lo,
                           r_cap, r_par, r_cop)
                _tank_tick(v_st, dt, ambient, v_ua, v_mass, v_hi, v_lo,
                           v_cap, v_par, v_cop)

        # --- room advance ----------------------------------------------
        if macro:
            averaged: List[SubspaceInputs] = []
            for i in range(n):
                flow = flow_sum[i] / ticks
                if flow_sum[i] > 0:
                    supply_temp = flow_temp_sum[i] / flow_sum[i]
                    supply_w = flow_w_sum[i] / flow_sum[i]
                else:
                    supply_temp = temp_sum[i] / ticks
                    supply_w = w_sum[i] / ticks
                averaged.append(SubspaceInputs(
                    panel_heat_w=heat_sum[i] / ticks,
                    vent_flow_m3s=flow,
                    vent_supply_temp_c=supply_temp,
                    vent_supply_w=supply_w,
                    occupants=occupants[i],
                    equipment_w=equipment[i],
                    door_open_fraction=opening[i],
                ))
            # The closed-form eigensolve (and its bit-exact per-tick
            # clamp fallback) is shared with the scalar path.
            room.macro_step(ticks * dt, outdoor, averaged)
        else:
            self._fused_euler(dt, out_t, out_w, out_co2, temps, ws, co2s,
                              tick_ph, u_eflow, u_supt, u_supw,
                              occupants, equipment, opening)
            arrays.temp_c[:] = temps
            arrays.humidity_ratio[:] = ws
            arrays.co2_ppm[:] = co2s
            acc = 0
            for t in temps:
                acc = acc + t
            ambient = acc / n
            _tank_tick(r_st, dt, ambient, r_ua, r_mass, r_hi, r_lo,
                       r_cap, r_par, r_cop)
            _tank_tick(v_st, dt, ambient, v_ua, v_mass, v_hi, v_lo,
                       v_cap, v_par, v_cop)

        # --- write back ------------------------------------------------
        for p, loop in enumerate(loops):
            loop.return_temp_c = p_rt[p]
            loop.mix_temp_c = p_last_mixt[p]
            loop.mix_flow_lps = p_total[p] if p_total[p] > 0 else 0.0
            # p_eff is cached across gaps; a stopped loop reports
            # effectiveness 0.0 like RadiantPanel.exchange does.
            loop.last_result = PanelResult(
                p_last_heat[p], p_last_ret[p], p_last_surf[p],
                p_eff[p] if p_total[p] > 0 else 0.0)
            loop.panel.heat_absorbed_j = p_heat_abs[p]
            loop.supply_pump.energy_j = p_sup_e[p]
            loop.recycle_pump.energy_j = p_rcy_e[p]
        for i, unit in enumerate(units):
            ab = unit.airbox
            ab._coil_flow_effective_lps = u_eff[i]
            ab.coil.heat_extracted_j = u_heat_e[i]
            ab.coil.water_temp_c = u_last_waterT[i]
            ab.fans.energy_j = u_fan_e[i]
            ab.coil_pump.energy_j = u_pump_e[i]
            flap = unit.flap
            flap._position = u_flap_pos[i]
            flap.energy_j = u_flap_e[i]
            unit.last_output = AirboxOutput(
                flow_m3s=u_flow[i],
                supply_temp_c=u_supt[i],
                supply_humidity_ratio=u_supw[i],
                supply_dew_point_c=u_last_dew[i],
                coil_heat_w=u_last_heat[i],
                coil_water_flow_lps=u_eff[i],
                fan_power_w=u_fan_pw[i],
            )
        rtank.temp_c = r_st[0]
        rtank.energy_in_j = r_st[1]
        rtank.heat_returned_j = r_st[2]
        rtank.ambient_gain_j = r_st[3]
        rtank._chilling = r_st[4]
        rchiller.energy_j = r_st[5]
        rchiller.heat_moved_j = r_st[6]
        vtank.temp_c = v_st[0]
        vtank.energy_in_j = v_st[1]
        vtank.heat_returned_j = v_st[2]
        vtank.ambient_gain_j = v_st[3]
        vtank._chilling = v_st[4]
        vchiller.energy_j = v_st[5]
        vchiller.heat_moved_j = v_st[6]
        guard.worst_margin_k = g_worst
        guard.violations = g_viol
        room.condensation_events = cond_events
        plant.fan_energy_j = fan_acc
        plant.time_integrated_s += ticks * dt

    # ------------------------------------------------------------------
    def _fused_euler(self, dt: float, out_t: float, out_w: float,
                     out_co2: float, temps: list, ws: list, co2s: list,
                     panel_heat: list, vent_flow: list, sup_t: list,
                     sup_w: list, occupants: Sequence[float],
                     equipment: Sequence[float],
                     opening: Sequence[float]) -> None:
        """:meth:`Room.step` on unboxed zone lists (in place)."""
        room = self.plant.room
        params = room.params
        n = self._n
        adjacency = room.adjacency
        coupling_ua = params.coupling_ua_w_per_k
        mixing_flow = params.mixing_flow_m3s
        m_mix = room._m_mix
        mc_mix = room._mc_mix
        envelope_ua = params.envelope_ua_w_per_k
        capacity = params.capacity_j_per_k
        door_exchange = params.door_exchange_m3s
        buffer_factor = params.moisture_buffer_factor
        infil_flows = room._infil_flows
        water_masses = room._water_masses
        volumes = [s.volume_m3 for s in room.subspaces]
        max_euler_dt = room._max_euler_dt
        co2_floor = out_co2 * 0.5

        remaining = float(dt)
        while remaining > 1e-12:
            sub_dt = min(max_euler_dt, remaining)
            d_temp = [0.0] * n
            d_w = [0.0] * n
            d_co2 = [0.0] * n
            for i, j in adjacency:
                delta_t = temps[j] - temps[i]
                q_pair = coupling_ua * delta_t + mc_mix * delta_t
                d_temp[i] += q_pair
                d_temp[j] -= q_pair
                w_flux = m_mix * (ws[j] - ws[i])
                d_w[i] += w_flux
                d_w[j] -= w_flux
                c_flux = mixing_flow * (co2s[j] - co2s[i])
                d_co2[i] += c_flux
                d_co2[j] -= c_flux
            for i in range(n):
                temp = temps[i]
                w = ws[i]
                co2 = co2s[i]
                q = d_temp[i]
                q += envelope_ua * (out_t - temp)
                q += occupants[i] * OCCUPANT_SENSIBLE_W + equipment[i]
                q -= panel_heat[i]
                m_vent = vent_flow[i] * AIR_DENSITY
                q += m_vent * AIR_CP * (sup_t[i] - temp)
                infil_flow = infil_flows[i]
                door_flow = opening[i] * door_exchange
                m_exch = (infil_flow + door_flow) * AIR_DENSITY
                q += m_exch * AIR_CP * (out_t - temp)
                new_temp = temp + sub_dt * q / capacity

                mw = d_w[i] * buffer_factor
                mw += m_vent * (sup_w[i] - w)
                mw += m_exch * (out_w - w)
                mw += occupants[i] * OCCUPANT_LATENT_KGS
                new_w = w + sub_dt * mw / water_masses[i]
                if new_w < 1e-5:
                    new_w = 1e-5

                c = d_co2[i]
                c += vent_flow[i] * (out_co2 - co2)
                c += (infil_flow + door_flow) * (out_co2 - co2)
                c += occupants[i] * OCCUPANT_CO2_M3S * 1e6
                new_co2 = co2 + sub_dt * c / volumes[i]
                if new_co2 < co2_floor:
                    new_co2 = co2_floor

                temps[i] = new_temp
                ws[i] = new_w
                co2s[i] = new_co2
            remaining -= sub_dt

