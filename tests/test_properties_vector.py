"""Property-based tests for the vectorized physics core.

Four families of invariants back the SoA rewrite:

* **First-law ledgers** — a tank tick may move energy between the
  ambient-gain, chiller and temperature accounts but never create it:
  ``C·ΔT == Δgain − Δmoved`` to round-off.
* **Monotone cooling** — the dehumidifier coil relation the SoA kernel
  transcribes is monotone in water flow and never humidifies.
* **Clamp fallback** — a macro gap whose trajectory touches a floor
  runs on the per-tick integrator, bit for bit.
* **Macro assembly** — the array-native ``Room._assemble_macro`` equals
  the per-zone loop it vectorises, bit for bit.

Hypothesis sweeps the operating envelope so clamp edges (chiller
capacity, coil saturation, humidity floor) get hit, not hand-picked.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402

from repro.airside.coil import DehumidifierCoil  # noqa: E402
from repro.physics.vector import _tank_tick  # noqa: E402

TANK_TEMPS = st.floats(min_value=2.0, max_value=40.0)
AMBIENTS = st.floats(min_value=15.0, max_value=40.0)


class TestTankFirstLaw:
    @given(temp=TANK_TEMPS, ambient=AMBIENTS,
           chilling=st.booleans(),
           cap=st.floats(min_value=100.0, max_value=5000.0))
    def test_energy_ledger_balances(self, temp, ambient, chilling, cap):
        mass = 150.0 * 4186.0          # J/K, the paper tanks' scale
        st_ = [temp, 0.0, 0.0, 0.0, chilling, 0.0, 0.0]
        _tank_tick(st_, 1.0, ambient, ua=8.0, mass=mass,
                   hi=19.0, lo=18.0, cap=cap, par=30.0, cop=3.0)
        # C·ΔT must equal ambient gain minus heat the chiller moved out.
        residual = mass * (st_[0] - temp) - (st_[3] - st_[6])
        assert abs(residual) <= 1e-6 * mass
        # The chiller can never move more than capacity x dt, and the
        # parasitic draw is always metered.
        assert 0.0 <= st_[6] <= cap * 1.0 + 1e-9
        assert st_[5] >= 30.0 * 1.0 - 1e-9

    @given(temp=TANK_TEMPS, ambient=AMBIENTS)
    def test_hysteresis_band(self, temp, ambient):
        st_ = [temp, 0.0, 0.0, 0.0, False, 0.0, 0.0]
        _tank_tick(st_, 1.0, ambient, ua=8.0, mass=150.0 * 4186.0,
                   hi=19.0, lo=18.0, cap=2000.0, par=30.0, cop=3.0)
        after_gain = temp + 8.0 * (ambient - temp) / (150.0 * 4186.0)
        if after_gain > 19.0:
            assert st_[4] is True or st_[4]
        elif after_gain < 18.0:
            assert not st_[4]


class TestMonotoneCooling:
    """The coil relation the SoA tick transcribes, as properties."""

    def _coil(self):
        return DehumidifierCoil("coil", water_temp_c=8.0)

    @given(in_temp=st.floats(min_value=18.0, max_value=36.0),
           in_w=st.floats(min_value=0.006, max_value=0.024),
           flow=st.floats(min_value=0.0, max_value=0.06))
    def test_never_humidifies_or_heats(self, in_temp, in_w, flow):
        from repro.physics.psychrometrics import (
            dew_point_from_humidity_ratio,
        )

        # Physically consistent inlet: air at or below saturation.
        assume(dew_point_from_humidity_ratio(in_w) <= in_temp)
        res = self._coil().process(0.02, in_temp, in_w, flow)
        assert res.out_humidity_ratio <= in_w + 1e-15
        assert res.out_temp_c <= in_temp + 1e-12
        assert res.heat_extracted_w >= 0.0
        assert res.out_temp_c >= res.out_dew_point_c - 1e-12

    @given(in_temp=st.floats(min_value=18.0, max_value=36.0),
           in_w=st.floats(min_value=0.006, max_value=0.024),
           f1=st.floats(min_value=0.001, max_value=0.06),
           f2=st.floats(min_value=0.001, max_value=0.06))
    def test_outlet_dew_monotone_in_water_flow(self, in_temp, in_w,
                                               f1, f2):
        lo_f, hi_f = sorted((f1, f2))
        coil = self._coil()
        lo = coil.process(0.02, in_temp, in_w, lo_f)
        hi = coil.process(0.02, in_temp, in_w, hi_f)
        assert hi.out_dew_point_c <= lo.out_dew_point_c + 1e-12


class TestClampFallback:
    """The macro solver must detect floor-touching trajectories and
    fall back to the per-tick integrator instead of clamping the
    closed form (which would silently break mass balance)."""

    def _room(self, w0):
        from repro.core.config import BubbleZeroConfig
        from repro.core.system import BubbleZero
        from repro.physics.room import SubspaceState

        system = BubbleZero(BubbleZeroConfig(
            seed=7, physics_vector=False))
        room = system.plant.room
        for sub in room.subspaces:
            state = sub.state
            sub.state = SubspaceState(state.temp_c, w0, state.co2_ppm)
        return room, system

    @given(w0=st.floats(min_value=1e-6, max_value=1e-5))
    def test_floor_start_falls_back_to_per_tick_path(self, w0):
        from repro.physics.room import OutdoorState, SubspaceInputs

        # Humidity at or under the 1e-5 clamp trips the start-point
        # probe, so the whole gap must run on the reference integrator
        # — macro_step and step agree bit for bit, floors included.
        room_macro, _a = self._room(w0)
        room_ticks, _b = self._room(w0)
        n = len(room_macro.subspaces)
        outdoor = OutdoorState(30.0, 0.019, 400.0)
        inputs = [SubspaceInputs(vent_flow_m3s=0.02,
                                 vent_supply_temp_c=14.0,
                                 vent_supply_w=1e-5,
                                 panel_heat_w=0.0)] * n
        room_macro.macro_step(600.0, outdoor, inputs)
        room_ticks.step(600.0, outdoor, inputs)
        for sm, st_ in zip(room_macro.subspaces, room_ticks.subspaces):
            assert sm.state.temp_c == st_.state.temp_c
            assert sm.state.humidity_ratio == st_.state.humidity_ratio
            assert sm.state.co2_ppm == st_.state.co2_ppm
            assert sm.state.humidity_ratio >= 1e-5 - 1e-18


def _assemble_per_zone(room, outdoor, inputs):
    """Per-zone loop reference for ``Room._assemble_macro``.

    Each zone's loss diagonal and forcing, written as the scalar
    balance of ``Room.advance`` splits them, on Python floats.
    """
    from repro.physics.room import (
        AIR_CP, AIR_DENSITY, OCCUPANT_CO2_M3S, OCCUPANT_LATENT_KGS,
        OCCUPANT_SENSIBLE_W,
    )

    params = room.params
    envelope_ua = params.envelope_ua_w_per_k
    diag, rhs = [[], [], []], [[], [], []]
    for i, inp in enumerate(inputs):
        m_vent = inp.vent_flow_m3s * AIR_DENSITY
        infil_flow = room._infil_flows[i]
        door_flow = inp.door_open_fraction * params.door_exchange_m3s
        m_exch = (infil_flow + door_flow) * AIR_DENSITY
        diag[0].append(envelope_ua + (m_vent + m_exch) * AIR_CP)
        rhs[0].append((envelope_ua + m_exch * AIR_CP) * outdoor.temp_c
                      + m_vent * AIR_CP * inp.vent_supply_temp_c
                      + inp.occupants * OCCUPANT_SENSIBLE_W
                      + inp.equipment_w - inp.panel_heat_w)
        diag[1].append(m_vent + m_exch)
        rhs[1].append(m_vent * inp.vent_supply_w
                      + m_exch * outdoor.humidity_ratio
                      + inp.occupants * OCCUPANT_LATENT_KGS)
        g = inp.vent_flow_m3s + infil_flow + door_flow
        diag[2].append(g)
        rhs[2].append(g * outdoor.co2_ppm
                      + inp.occupants * OCCUPANT_CO2_M3S * 1e6)
    return diag, rhs


ZONE_INPUTS = st.builds(
    lambda *fields: fields,
    st.floats(min_value=0.0, max_value=500.0),     # panel heat
    st.floats(min_value=0.0, max_value=0.1),       # vent flow
    st.floats(min_value=5.0, max_value=35.0),      # supply temp
    st.floats(min_value=1e-5, max_value=0.025),    # supply w
    st.floats(min_value=0.0, max_value=4.0),       # occupants
    st.floats(min_value=0.0, max_value=300.0),     # equipment
    st.floats(min_value=0.0, max_value=1.0),       # opening
)


class TestMacroAssembly:
    @given(rows=st.lists(ZONE_INPUTS, min_size=1, max_size=9),
           out_t=st.floats(min_value=-5.0, max_value=40.0),
           out_w=st.floats(min_value=1e-4, max_value=0.025),
           out_co2=st.floats(min_value=300.0, max_value=600.0))
    def test_rows_equal_per_zone_balance(self, rows, out_t, out_w, out_co2):
        import numpy as np

        from repro.physics.room import (
            OutdoorState, Room, RoomGeometry, SubspaceInputs,
        )

        room = Room(geometry=RoomGeometry(subspace_count=len(rows)))
        outdoor = OutdoorState(out_t, out_w, out_co2)
        inputs = [SubspaceInputs(*row) for row in rows]
        diag, rhs = room._assemble_macro(outdoor, np.array(rows).T)
        ref_diag, ref_rhs = _assemble_per_zone(room, outdoor, inputs)
        assert diag.tolist() == ref_diag
        assert rhs.tolist() == ref_rhs
