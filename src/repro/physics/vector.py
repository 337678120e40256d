"""Structure-of-arrays vectorized physics core.

The scalar plant walks one Python object per zone through every physics
tick: each radiant loop re-reads pump curves, re-derives exchanger
effectiveness and re-boxes dataclasses, and each airbox re-resolves a
dozen attribute chains — per tick, per zone.  For the paper's 4-zone lab
that overhead is tolerable; for the many-zone buildings the related work
evaluates on (and ``grid_topology(n)`` now declares in one line) it is
the scaling wall.

This module keeps the *numbers* of the scalar path and restructures the
*loop*:

* The zone state it works on is the room's own structure of arrays
  (:class:`~repro.physics.room.ZoneStateArrays`, ``Room.arrays``): each
  subspace's ``state`` is a live view of its row, so sensors, boards
  and the recorder read exactly the values they always did, and RNG
  draw order is untouched.
* :class:`VectorPlantKernel` advances the whole plant over one
  event-free gap in a single fused call: every gap-invariant quantity
  (pump flows, exchanger effectiveness, fan power, coil constants, tank
  thermal masses, chiller COP at the frozen reject temperature) is
  hoisted once per gap, and the per-tick loop runs on plain local
  floats.  The room itself is advanced by the room's own integrators:
  a unit tick hands its unboxed per-zone inputs to the one Euler zone
  balance (:meth:`Room.advance`), and a macro gap hands its averaged
  boundary inputs, as arrays, to the closed-form eigensolve
  (:meth:`Room.macro_solve`), falling back to :meth:`Room.advance`
  when a clamp binds, exactly as the scalar plant does.

Bit-exactness contract: every floating-point expression below repeats
the grouping of the scalar component it replaces (``plant.py``,
``tank.py``, ``coil.py``, ``panel.py``, ...), accumulators keep their
per-tick add order, and hoisted subexpressions are exactly the
loop-invariant factors of the original expressions.  The scalar
hydronic/airside/tank path (``physics_vector=False``) remains the
reference oracle for the fused exchange tick;
``tests/test_vector_equivalence.py`` pins the two together bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.airside.airbox import AirboxOutput
from repro.hydronics.panel import PanelResult
from repro.hydronics.water import WATER_CP, WATER_DENSITY, mass_flow
from repro.physics.psychrometrics import (
    dew_point_from_humidity_ratio,
    humidity_ratio_from_dew_point,
    moist_air_enthalpy,
)
from repro.physics.room import AIR_DENSITY

# plant.py imports this module only lazily (inside ``Plant.__init__``),
# so pulling its constant here cannot cycle.
from repro.core.plant import CONDENSER_APPROACH_K


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

    Advances hydronics, airside, tanks and the room's SoA zone state
    over a whole event-free gap in one call.
    Constructed by ``Plant(..., vector=True)``; the plant then delegates
    :meth:`step` / :meth:`macro_step` here.
    """

    def __init__(self, plant) -> None:
        self.plant = plant
        self.arrays = plant.room.arrays
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
        reject = out_t + CONDENSER_APPROACH_K

        # Zone state, frozen for the whole gap (the scalar paths update
        # the room only once per gap too).
        temps = arrays.temp_c.tolist()
        ws = arrays.humidity_ratio.tolist()
        co2s = arrays.co2_ppm.tolist()

        if macro:
            # The room is frozen during the gap, so the tank ambient is too.
            ambient = room.mean_temp_c()

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
                    # Two-operand min/max written as comparisons that
                    # return the operand the builtin would, ties
                    # included: min(a, b) is ``b if b < a else a``,
                    # max(a, b) is ``b if b > a else a``.
                    maxwf = u_maxwf[i]
                    appr = u_appr[i]
                    wf = maxwf if maxwf < eff else eff
                    o_dew = in_dew_gap - u_drop[i] * wf
                    dew_floor = waterT + appr
                    o_dew = dew_floor if dew_floor > o_dew else o_dew
                    o_dew = in_dew_gap if in_dew_gap < o_dew else o_dew
                    o_w = humidity_ratio_from_dew_point(o_dew)
                    o_w = out_w if out_w < o_w else o_w
                    wetness = wf / maxwf
                    apparatus = waterT + appr * (1.0 - wetness)
                    contact = u_bf1[i] * wetness
                    o_temp = out_t - contact * (out_t - apparatus)
                    o_temp = o_dew if o_dew > o_temp else o_temp
                    heat_w = u_mass_air[i] * (h_in_gap
                                              - moist_air_enthalpy(o_temp,
                                                                   o_w))
                    heat_w = heat_w if heat_w > 0.0 else 0.0
                sup_t = o_temp + u_reheat_k[i] if u_reheat[i] else o_temp
                u_heat_e[i] += heat_w * dt
                u_fan_e[i] += u_fan_pd[i]
                u_pump_e[i] += u_pump_pd[i]

                pos = u_flap_pos[i]
                tgt = u_flap_tgt[i]
                if pos != tgt:
                    moving = abs(tgt - pos) > 1e-9
                    if pos < tgt:
                        step = pos + u_flap_rate[i]
                        pos = step if step < tgt else tgt
                    elif pos > tgt:
                        step = pos - u_flap_rate[i]
                        pos = step if step > tgt else tgt
                    if moving:
                        u_flap_e[i] += u_flap_pd[i]
                    u_flap_pos[i] = pos

                e_flow = flow * (0.25 + 0.75 * pos)
                if eff > 0 and heat_w > 0:
                    # water.mass_flow(eff) inline: eff blends
                    # non-negative pump flows, so its sign check
                    # cannot fire.
                    mf = eff * 1e-3 * WATER_DENSITY
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
            # Gap averages as arrays: each entry is the one division
            # the scalar plant's per-zone average performs (supply
            # conditions flow-weighted while air flows, plain means
            # otherwise).
            flows = np.array(flow_sum)
            flowing = flows > 0
            supply_temp = np.array(temp_sum) / ticks
            supply_w = np.array(w_sum) / ticks
            np.divide(flow_temp_sum, flows, out=supply_temp, where=flowing)
            np.divide(flow_w_sum, flows, out=supply_w, where=flowing)
            gap_inputs = (np.array(heat_sum) / ticks, flows / ticks,
                          supply_temp, supply_w,
                          np.array(occupants, dtype=float),
                          np.array(equipment, dtype=float),
                          np.array(opening))
            x0 = np.array((arrays.temp_c, arrays.humidity_ratio,
                           arrays.co2_ppm))
            # The closed-form eigensolve and its gap/fallback accounting
            # are the scalar path's own (Room.macro_solve).
            new_state = room.macro_solve(ticks * dt, outdoor, x0,
                                         gap_inputs)
            if new_state is None:
                # Clamp fallback: the room's per-tick Euler balance.
                room.advance(ticks * dt, outdoor, temps, ws, co2s,
                             [row.tolist() for row in gap_inputs])
                arrays.temp_c[:] = temps
                arrays.humidity_ratio[:] = ws
                arrays.co2_ppm[:] = co2s
            else:
                arrays.temp_c[:] = new_state[0]
                arrays.humidity_ratio[:] = new_state[1]
                arrays.co2_ppm[:] = new_state[2]
        else:
            room.advance(dt, outdoor, temps, ws, co2s,
                         (tick_ph, u_eflow, u_supt, u_supw, occupants,
                          equipment, opening))
            arrays.temp_c[:] = temps
            arrays.humidity_ratio[:] = ws
            arrays.co2_ppm[:] = co2s
            ambient = room.mean_temp_c()
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
                u_flow[i], u_supt[i], u_supw[i], u_last_dew[i],
                u_last_heat[i], u_eff[i], u_fan_pw[i])
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
