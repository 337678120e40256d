"""Multi-subspace thermal / moisture / CO2 model of the BubbleZERO lab.

The laboratory is a 60 m^3 container office (6 m x 5 m x 2 m) organised
into four equal subspaces (paper Fig. 2), each served by one airbox +
CO2flap pair and sharing two radiant ceiling panels.  We model it as a
lumped-capacitance RC network:

* one air/furnishing thermal node per subspace, coupled to (i) adjacent
  subspaces (conduction + air mixing), (ii) the outdoor environment
  through the envelope, and (iii) the radiant panels and ventilation air;
* one moisture node per subspace (humidity ratio of the air volume);
* one CO2 node per subspace (well-mixed concentration).

Door/window events add a temporary bulk air-exchange path with outdoors,
weighted per subspace by proximity to the opening (the door is in
subspace 1, nearest subspace 2 — paper SectionV-A).

The model is integrated with explicit Euler.  All time constants are
minutes, so the default 1 s step is comfortably stable; the step
subdivides automatically if a larger dt is requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.physics import spectral
from repro.physics.psychrometrics import (
    dew_point_from_humidity_ratio,
    humidity_ratio_from_dew_point,
    relative_humidity_from_ratio,
)
from repro.physics.weather import OutdoorState

AIR_DENSITY = 1.2        # kg/m^3
AIR_CP = 1006.0          # J/kg/K
LATENT_HEAT = 2.45e6     # J/kg at room temperature

# Occupant loads (seated office work, ASHRAE-typical).
OCCUPANT_SENSIBLE_W = 70.0
OCCUPANT_LATENT_KGS = 1.9e-5    # ~68 g/h of water vapour
OCCUPANT_CO2_M3S = 5.0e-6       # ~0.005 L/s of CO2 per person


@dataclass(frozen=True)
class RoomGeometry:
    """Physical dimensions of the laboratory (paper §II)."""

    length_m: float = 6.0
    width_m: float = 5.0
    height_m: float = 2.0
    subspace_count: int = 4

    @property
    def volume_m3(self) -> float:
        return self.length_m * self.width_m * self.height_m

    @property
    def subspace_volume_m3(self) -> float:
        return self.volume_m3 / self.subspace_count


@dataclass(frozen=True)
class RoomParameters:
    """Calibrated lumped parameters (see DESIGN.md §4).

    ``capacity_j_per_k`` is the *effective* per-subspace heat capacity:
    the air itself plus the thermally-fast furnishing mass that moves
    with it on the half-hour timescale of the paper's experiments.
    """

    capacity_j_per_k: float = 1.1e5       # J/K per subspace
    envelope_ua_w_per_k: float = 58.0     # W/K per subspace (insulated facade)
    coupling_ua_w_per_k: float = 55.0     # W/K between adjacent subspaces
    mixing_flow_m3s: float = 0.012        # bulk air exchange between adjacents
    infiltration_ach: float = 0.02        # the lab is a sealed container
    door_exchange_m3s: float = 0.30       # bulk flow when the door is open
    moisture_buffer_factor: float = 1.2   # hygroscopic mass slows dw/dt


# 2 x 2 arrangement: subspaces 0,1 on the door side, 2,3 at the back.
#      [0][1]
#      [2][3]
ADJACENCY: Tuple[Tuple[int, int], ...] = ((0, 1), (0, 2), (1, 3), (2, 3))

# Share of a door/window opening's air exchange seen by each subspace.
# The door sits in subspace 1 of the paper (our index 0), closest to
# subspace 2 (our index 1) — paper §V-A.  The window is on the opposite
# facade, so window events disturb the back subspaces most.
DOOR_WEIGHTS: Tuple[float, ...] = (0.55, 0.30, 0.09, 0.06)
WINDOW_WEIGHTS: Tuple[float, ...] = (0.09, 0.06, 0.55, 0.30)


@dataclass
class SubspaceInputs:
    """Per-step boundary inputs for one subspace."""

    panel_heat_w: float = 0.0           # heat *extracted* by radiant panel (>= 0)
    vent_flow_m3s: float = 0.0          # supply air flow (balanced by exhaust)
    vent_supply_temp_c: float = 25.0    # supply air dry bulb
    vent_supply_w: float = 0.010        # supply air humidity ratio
    occupants: float = 0.0
    equipment_w: float = 40.0           # standing electronics load
    door_open_fraction: float = 0.0     # 0..1 of the door-exchange path


@dataclass(slots=True)
class SubspaceState:
    """Instantaneous air state of one subspace, as a value.

    What callers write through :attr:`Subspace.state`; reads return the
    live :class:`ZoneStateView` instead.
    """

    temp_c: float
    humidity_ratio: float
    co2_ppm: float

    @property
    def dew_point_c(self) -> float:
        return dew_point_from_humidity_ratio(self.humidity_ratio)

    def relative_humidity(self) -> float:
        return relative_humidity_from_ratio(self.temp_c, self.humidity_ratio)


class ZoneStateArrays:
    """All zones' air state as three ``float64[n]`` arrays."""

    __slots__ = ("temp_c", "humidity_ratio", "co2_ppm")

    def __init__(self, temp_c: Sequence[float],
                 humidity_ratio: Sequence[float],
                 co2_ppm: Sequence[float]) -> None:
        self.temp_c = np.asarray(temp_c, dtype=np.float64)
        self.humidity_ratio = np.asarray(humidity_ratio, dtype=np.float64)
        self.co2_ppm = np.asarray(co2_ppm, dtype=np.float64)


class ZoneStateView:
    """Live scalar view of one zone's row of a :class:`ZoneStateArrays`.

    Duck-types :class:`SubspaceState`: sensors and controllers read
    ``temp_c`` / ``humidity_ratio`` / ``co2_ppm`` / ``dew_point_c`` /
    ``relative_humidity()`` and always see the current array contents.
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


class Subspace:
    """One zone of the room: its volume plus its row of the room's arrays.

    ``state`` reads return the live view; ``state`` writes
    (``s.state = SubspaceState(...)``) store the three scalars into the
    arrays.
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

    @property
    def air_mass_kg(self) -> float:
        return self.volume_m3 * AIR_DENSITY


def _input_columns(inputs: Sequence[SubspaceInputs]) -> Tuple[tuple, ...]:
    """One :class:`SubspaceInputs` per zone, transposed into seven
    per-field sequences in field order."""
    return tuple(zip(*[(inp.panel_heat_w, inp.vent_flow_m3s,
                        inp.vent_supply_temp_c, inp.vent_supply_w,
                        inp.occupants, inp.equipment_w,
                        inp.door_open_fraction) for inp in inputs]))


def zone_mean(values: Sequence[float]) -> float:
    """Mean of per-zone values, summed left to right from int 0.

    The one zone-mean definition of the plant.  ``sum()`` is not used:
    from Python 3.12 it compensates float sums, so it would round
    differently from the explicit loop on some interpreters.
    """
    acc = 0
    for v in values:
        acc = acc + v
    return acc / len(values)


class Room:
    """The four-subspace laboratory model.

    Parameters
    ----------
    geometry, params:
        physical configuration; defaults reproduce the paper's lab.
    initial_temp_c, initial_dew_c, initial_co2_ppm:
        uniform initial indoor state.  The paper's trial starts with the
        room in equilibrium with outdoors (28.9 degC / 27.4 degC dew).
    """

    def __init__(self,
                 geometry: Optional[RoomGeometry] = None,
                 params: Optional[RoomParameters] = None,
                 initial_temp_c: float = 28.9,
                 initial_dew_c: float = 27.4,
                 initial_co2_ppm: float = 450.0,
                 adjacency: Optional[Tuple[Tuple[int, int], ...]] = None,
                 solver: str = "dense") -> None:
        self.geometry = geometry or RoomGeometry()
        self.params = params or RoomParameters()
        n_sub = self.geometry.subspace_count
        # The coupling graph defaults to the paper's 2x2 arrangement,
        # trimmed to the pairs that exist for smaller subspace counts.
        self.adjacency: Tuple[Tuple[int, int], ...] = tuple(
            (i, j) for i, j in (ADJACENCY if adjacency is None else adjacency)
            if i < n_sub and j < n_sub)
        if initial_dew_c > initial_temp_c:
            raise ValueError("initial dew point cannot exceed temperature")
        w0 = humidity_ratio_from_dew_point(initial_dew_c)
        # Zone state lives in one structure of arrays; each subspace is
        # a live view of its row.
        self.arrays = ZoneStateArrays([initial_temp_c] * n_sub,
                                      [w0] * n_sub,
                                      [initial_co2_ppm] * n_sub)
        self.subspaces: List[Subspace] = [
            Subspace(i, self.geometry.subspace_volume_m3, self.arrays)
            for i in range(n_sub)
        ]
        self._max_euler_dt = 1.0
        self.condensation_events = 0
        # Macro-solver health counters (read by obs.collect's physics
        # snapshot): closed-form gaps solved vs gaps handed back to the
        # per-tick integrator by the clamp/degeneracy probes.
        self.macro_gaps = 0
        self.macro_fallbacks = 0
        # Step-invariant factors of the Euler update, hoisted out of the
        # per-tick loop.  ``params`` is a frozen dataclass, so these stay
        # valid for the life of the Room.  Each expression repeats the
        # in-loop grouping exactly, keeping the update bit-identical.
        params = self.params
        self._m_mix = params.mixing_flow_m3s * AIR_DENSITY
        self._mc_mix = self._m_mix * AIR_CP
        self._infil_flows = [
            (params.infiltration_ach / 3600.0) * s.volume_m3
            for s in self.subspaces
        ]
        self._infil_array = np.array(self._infil_flows)
        self._water_masses = [
            s.air_mass_kg * params.moisture_buffer_factor
            for s in self.subspaces
        ]
        self._volumes = [s.volume_m3 for s in self.subspaces]
        # Macro-step machinery (see ``macro_step``): the symmetric
        # coupling part of each quantity's system matrix and the row
        # scaling (thermal capacity, buffered water mass, air volume)
        # are state-independent, so both are assembled once.  Layout:
        # index 0 = temperature, 1 = humidity ratio, 2 = CO2.
        n = len(self.subspaces)
        base = np.zeros((3, n, n))
        k_q = (params.coupling_ua_w_per_k + self._mc_mix,
               self._m_mix * params.moisture_buffer_factor,
               params.mixing_flow_m3s)
        for i, j in self.adjacency:
            for q in range(3):
                base[q, i, i] -= k_q[q]
                base[q, i, j] += k_q[q]
                base[q, j, j] -= k_q[q]
                base[q, j, i] += k_q[q]
        self._macro_base = base
        self._macro_scale = np.array([
            [params.capacity_j_per_k] * n,
            self._water_masses,
            self._volumes,
        ])
        # Decompositions live in the process-wide spectral cache
        # (repro.physics.spectral), keyed by this room's structure hash
        # plus the exact diagonal-loss vector: the forcing varies every
        # gap (panel heat tracks the room) but the loss terms only
        # change when an actuator command does, so steady operation
        # reuses one eigendecomposition across many gaps — and across
        # every room and physics path with the same structure.
        self._solver = solver
        self._macro_key = spectral.system_key(self._macro_base,
                                              self._macro_scale, solver)

    # ------------------------------------------------------------------
    # Observation helpers
    # ------------------------------------------------------------------
    def state_of(self, index: int) -> ZoneStateView:
        return self.subspaces[index].state

    def mean_temp_c(self) -> float:
        return zone_mean(self.arrays.temp_c.tolist())

    def mean_humidity_ratio(self) -> float:
        return zone_mean(self.arrays.humidity_ratio.tolist())

    def mean_dew_point_c(self) -> float:
        return dew_point_from_humidity_ratio(self.mean_humidity_ratio())

    def mean_co2_ppm(self) -> float:
        return zone_mean(self.arrays.co2_ppm.tolist())

    # ------------------------------------------------------------------
    # Integration
    # ------------------------------------------------------------------
    def step(self, dt: float, outdoor: OutdoorState,
             inputs: Sequence[SubspaceInputs]) -> None:
        """Advance the room state by ``dt`` seconds.

        ``inputs`` must provide one :class:`SubspaceInputs` per subspace.
        Larger ``dt`` values are internally subdivided to the stable
        Euler step.
        """
        self._check_inputs(inputs)
        arrays = self.arrays
        temps = arrays.temp_c.tolist()
        ws = arrays.humidity_ratio.tolist()
        co2s = arrays.co2_ppm.tolist()
        self.advance(dt, outdoor, temps, ws, co2s, _input_columns(inputs))
        arrays.temp_c[:] = temps
        arrays.humidity_ratio[:] = ws
        arrays.co2_ppm[:] = co2s

    def advance(self, dt: float, outdoor: OutdoorState, temps: list,
                ws: list, co2s: list, inputs: Sequence[Sequence[float]]
                ) -> None:
        """Euler-integrate unboxed zone lists in place over ``dt``.

        The room's one Euler zone balance, shared by :meth:`step` and
        the vector kernel.  ``temps``, ``ws`` and ``co2s`` hold every
        zone's temperature, humidity ratio and CO2 concentration and
        are overwritten with the end state; ``inputs`` are the seven
        per-zone sequences in the field order of :class:`SubspaceInputs`.
        ``dt`` is subdivided into steps of at most ``_max_euler_dt``.
        """
        # The hottest pure-Python loop of a quiet run: parameter products
        # are precomputed in ``__init__`` and attribute reads hoisted to
        # locals, with every floating-point grouping kept identical to
        # the original expression so trajectories match bit for bit.
        (panel_heat, vent_flow, sup_t, sup_w, occupants, equipment,
         opening) = inputs
        params = self.params
        out_t = outdoor.temp_c
        out_w = outdoor.humidity_ratio
        out_co2 = outdoor.co2_ppm
        n = len(temps)
        adjacency = self.adjacency
        coupling_ua = params.coupling_ua_w_per_k
        mixing_flow = params.mixing_flow_m3s
        m_mix = self._m_mix        # mixing_flow * AIR_DENSITY
        mc_mix = self._mc_mix      # (mixing_flow * AIR_DENSITY) * AIR_CP
        envelope_ua = params.envelope_ua_w_per_k
        capacity = params.capacity_j_per_k
        door_exchange = params.door_exchange_m3s
        buffer_factor = params.moisture_buffer_factor
        infil_flows = self._infil_flows
        water_masses = self._water_masses
        volumes = self._volumes
        max_euler_dt = self._max_euler_dt
        co2_floor = out_co2 * 0.5

        remaining = float(dt)
        while remaining > 1e-12:
            sub_dt = min(max_euler_dt, remaining)
            # Inter-subspace coupling (conduction + bulk mixing),
            # symmetric.
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

                # --- sensible heat balance (W) ---
                q = d_temp[i]
                q += envelope_ua * (out_t - temp)
                q += occupants[i] * OCCUPANT_SENSIBLE_W + equipment[i]
                q -= panel_heat[i]
                m_vent = vent_flow[i] * AIR_DENSITY
                q += m_vent * AIR_CP * (sup_t[i] - temp)
                # Supply air displaces room air out through the CO2flap,
                # so the ventilation term above already closes its own
                # mass balance; only infiltration and door openings
                # exchange raw outdoor air.
                infil_flow = infil_flows[i]
                door_flow = opening[i] * door_exchange
                m_exch = (infil_flow + door_flow) * AIR_DENSITY
                q += m_exch * AIR_CP * (out_t - temp)
                new_temp = temp + sub_dt * q / capacity

                # --- moisture balance (kg water / s) ---
                mw = d_w[i] * buffer_factor  # mixing acts on buffer too
                mw += m_vent * (sup_w[i] - w)
                mw += m_exch * (out_w - w)
                mw += occupants[i] * OCCUPANT_LATENT_KGS
                new_w = w + sub_dt * mw / water_masses[i]
                if new_w < 1e-5:
                    new_w = 1e-5

                # --- CO2 balance (ppm * m^3 / s) ---
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

    def macro_step(self, dt: float, outdoor: OutdoorState,
                   inputs: Sequence[SubspaceInputs]) -> None:
        """Advance the room ``dt`` seconds in one closed-form step.

        With the boundary ``inputs`` frozen, every balance integrated by
        :meth:`advance` is linear in its own state vector — the
        subspace temperatures, humidity ratios and CO2 concentrations
        each satisfy ``x' = A x + r`` with a constant 4x4 coupling
        matrix ``A`` and forcing ``r``.  The exact solution over the
        whole gap is

            x(dt) = x_eq + exp(A dt) (x(0) - x_eq),   x_eq = -A^-1 r,

        evaluated here through an eigendecomposition of ``A`` (the
        matrix is strictly diagonally dominant with negative diagonal —
        envelope and infiltration losses guarantee decay — so the
        solve is well posed for the supported geometry).  This is the
        macro-stepping fast path: one call replaces ``dt`` unit Euler
        ticks when the scheduler finds an event-free gap.  It differs
        from unit stepping only by the Euler truncation error of the
        reference path itself.  The reference path clamps humidity
        (>= 1e-5) and CO2 (>= half outdoor) once per tick; whenever the
        closed-form trajectory touches either floor — probed at the
        gap's start, midpoint and endpoint — the gap is handed back to
        :meth:`step` so the clamp binds at the same tick it would on
        the reference path.  Also falls back to :meth:`step` if the
        linear algebra degenerates.
        """
        self._check_inputs(inputs)
        arrays = self.arrays
        x0 = np.array((arrays.temp_c, arrays.humidity_ratio,
                       arrays.co2_ppm))
        rows = np.array(_input_columns(inputs), dtype=float)
        new_state = self.macro_solve(dt, outdoor, x0, rows)
        if new_state is None:
            self.step(dt, outdoor, inputs)
            return
        arrays.temp_c[:] = new_state[0]
        arrays.humidity_ratio[:] = new_state[1]
        arrays.co2_ppm[:] = new_state[2]

    def _check_inputs(self, inputs: Sequence[SubspaceInputs]) -> None:
        if len(inputs) != len(self.subspaces):
            raise ValueError(
                f"expected {len(self.subspaces)} subspace inputs, "
                f"got {len(inputs)}")

    def macro_solve(self, dt: float, outdoor: OutdoorState, x0: np.ndarray,
                    inputs: Sequence[np.ndarray]) -> Optional[np.ndarray]:
        """Closed-form end state of one gap from per-zone input arrays.

        The array-native core of :meth:`macro_step`, shared with the
        vector kernel: ``x0`` is the (3, n) start state (temperature,
        humidity ratio, CO2 rows) and ``inputs`` the gap's boundary
        inputs as seven ``float64[n]`` rows, in the field order of
        :class:`SubspaceInputs`.  Counts the gap, and returns the (3, n)
        end state, or ``None`` after counting a fallback — the caller
        must then integrate the gap per tick (:meth:`step`).
        """
        diag, rhs = self._assemble_macro(outdoor, inputs)
        new_state = self._solve_macro_gap(dt, x0, diag, rhs,
                                          outdoor.co2_ppm * 0.5)
        self.macro_gaps += 1
        if new_state is None:
            self.macro_fallbacks += 1
        return new_state

    def _assemble_macro(self, outdoor: OutdoorState,
                        inputs: Sequence[np.ndarray]
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble the stacked linear systems for one macro gap.

        Returns ``(diag, rhs)`` as (3, n) arrays: the input-dependent
        diagonal losses and the (unscaled) forcing of the three
        quantities.  The state-independent coupling pattern lives in
        ``self._macro_base``.  Every row is one elementwise numpy
        expression with the left-to-right grouping of the per-zone
        balance in :meth:`advance`, so each entry is bit-identical
        to the scalar expression it vectorises.
        """
        (panel_heat, vent_flow, supply_temp, supply_w, occupants, equipment,
         opening) = inputs
        params = self.params
        outdoor_temp = outdoor.temp_c
        envelope_ua = params.envelope_ua_w_per_k
        infil_flow = self._infil_array
        m_vent = vent_flow * AIR_DENSITY
        door_flow = opening * params.door_exchange_m3s
        m_exch = (infil_flow + door_flow) * AIR_DENSITY
        diag = np.empty((3, len(vent_flow)))
        rhs = np.empty_like(diag)
        # Sensible heat: the advance() balance split into the part
        # proportional to the local state (diagonal loss) and the
        # constant forcing.
        diag[0] = envelope_ua + (m_vent + m_exch) * AIR_CP
        rhs[0] = ((envelope_ua + m_exch * AIR_CP) * outdoor_temp
                  + m_vent * AIR_CP * supply_temp
                  + occupants * OCCUPANT_SENSIBLE_W
                  + equipment - panel_heat)
        # Moisture.
        diag[1] = m_vent + m_exch
        rhs[1] = (m_vent * supply_w + m_exch * outdoor.humidity_ratio
                  + occupants * OCCUPANT_LATENT_KGS)
        # CO2 (volumetric flows act on concentration directly).
        g = vent_flow + infil_flow + door_flow
        diag[2] = g
        rhs[2] = g * outdoor.co2_ppm + occupants * OCCUPANT_CO2_M3S * 1e6
        return diag, rhs

    def _macro_decomposition(self, diag: np.ndarray) -> Optional[tuple]:
        """Eigendecomposition for a diagonal-loss vector, memoised.

        Returns ``(a_inv, vals, vecs, vecs_inv)`` or ``None`` when the
        linear algebra degenerates (caller falls back to per-tick
        integration).  Memoisation lives in the shared spectral cache,
        keyed on the exact diag bytes so a hit is bit-identical to a
        fresh decomposition.
        """
        return spectral.decomposition(self._macro_key, diag,
                                      self._macro_base,
                                      self._macro_scale, self._solver)

    def _solve_macro_gap(self, dt: float, x0: np.ndarray, diag: np.ndarray,
                         rhs: np.ndarray, co2_floor: float
                         ) -> Optional[np.ndarray]:
        """Closed-form advance of one assembled gap; ``None`` = fall back.

        ``rhs`` is the unscaled forcing from :meth:`_assemble_macro`;
        the row scaling is applied here.  Returns the (3, n) end state,
        or ``None`` when the decomposition degenerates or the trajectory
        touches a clamp floor — in either case the caller must integrate
        the gap through :meth:`step` so it stays bit-identical to the
        per-tick reference.
        """
        rhs = rhs / self._macro_scale

        decomp = self._macro_decomposition(diag)
        if decomp is None:
            return None
        a_inv, vals, vecs, vecs_inv = decomp

        # Exact solution of x' = A x + r over the gap:
        #   x(dt) = x_eq + exp(A dt) (x0 - x_eq),   x_eq = -A^-1 r.
        # Eigenvalues may come in complex-conjugate pairs for a general
        # (non-symmetric) coupling matrix; the imaginary parts of the
        # reconstructed state cancel and the real part is the answer.
        x_eq = -(a_inv @ rhs[..., None])[..., 0]
        y0 = vecs_inv @ (x0 - x_eq)[..., None].astype(vecs.dtype)
        exp_vals = np.exp(vals * dt)
        new_state = ((vecs @ (exp_vals[..., None] * y0))[..., 0] + x_eq).real

        # The reference path applies the floor clamps once per tick, so
        # a floor that binds anywhere inside the gap makes the unclamped
        # closed form diverge from it.  Probe the trajectory at the
        # gap's start (a state already pinned at a floor means the clamp
        # is actively binding), midpoint and endpoint; on any touch,
        # integrate this gap per tick instead.  The eigenvalues are real
        # (the coupling matrix is similar to a symmetric one via the
        # capacity scaling), so trajectories are sums of real
        # exponentials and the three probes bracket any excursion the
        # scheduler's gap lengths can produce.
        mid_state = ((vecs @ (np.exp(vals * (0.5 * dt))[..., None] * y0))
                     [..., 0] + x_eq).real
        if (new_state[1].min() < 1e-5 or mid_state[1].min() < 1e-5
                or x0[1].min() <= 1e-5
                or new_state[2].min() < co2_floor
                or mid_state[2].min() < co2_floor
                or x0[2].min() <= co2_floor):
            return None
        return new_state

    # ------------------------------------------------------------------
    def record_condensation(self) -> None:
        """Count a condensation incident (panel surface below dew point).

        The hydronics layer calls this when the mixed-water control ever
        lets the panel surface cross the local dew point; integration
        tests assert it stays at zero.
        """
        self.condensation_events += 1
