"""Tests for the pluggable control-policy layer.

Covers the registry mechanics of :mod:`repro.control.policy`, the
behaviour of the two alternate stacks (deadband hysteresis, consensus
convergence), and — the part that must hold for *every* stack — that
the board-owned machinery around the injected law (the supervisor's
conservative latch, the three-tier estimate fallback ladder) still
engages under non-PID policies.
"""

import pytest

from repro.control.policy import (
    ControllerSpec,
    ControlPolicy,
    PidPolicy,
    build_policy,
    controller_names,
    describe_controller,
    get_controller,
    register_controller,
)
from repro.control.policy_consensus import (
    ConsensusRadiantLaw,
    ConsensusVentilationLaw,
)
from repro.control.policy_deadband import (
    DeadbandRadiantLaw,
    DeadbandVentilationLaw,
)
from repro.control.radiant import RadiantCoolingController, RadiantInputs
from repro.control.ventilation import (
    VentilationController,
    VentilationInputs,
)
from repro.core.config import BubbleZeroConfig
from repro.core.system import BubbleZero
from repro.hydronics.pump import PumpCurve
from repro.workloads.faults import FaultScript, NodeCrash


class TestRegistry:
    def test_builtin_stacks_in_registration_order(self):
        names = controller_names()
        assert names[:3] == ["pid", "consensus", "deadband"]

    def test_unknown_controller_raises_with_roster(self):
        with pytest.raises(KeyError, match="no-such-stack"):
            get_controller("no-such-stack")
        with pytest.raises(KeyError, match="pid"):
            build_policy("no-such-stack")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_controller(
                ControllerSpec(name="pid", description="dup"), PidPolicy)

    def test_build_policy_returns_fresh_instances(self):
        first, second = build_policy("pid"), build_policy("pid")
        assert first is not second
        assert first.name == "pid"
        assert first.exchanges_state is False
        assert build_policy("consensus").exchanges_state is True

    def test_spec_build_round_trips_through_registry(self):
        spec = get_controller("deadband")
        policy = spec.build()
        assert policy.spec is spec
        assert policy.param("band_k") == 1.0
        assert policy.param("missing", 42) == 42

    def test_describe_mentions_state_exchange(self):
        assert "exchanges state over WSN: yes" in (
            describe_controller("consensus"))
        assert "exchanges state over WSN: no" in (
            describe_controller("pid"))

    def test_scenario_spec_validates_controller(self):
        from repro.scenarios.spec import ScenarioSpec
        spec = ScenarioSpec(name="x", controller="deadband")
        assert spec.controller == "deadband"
        with pytest.raises(ValueError, match="unknown controller"):
            ScenarioSpec(name="x", controller="bogus")

    def test_base_policy_builders_are_abstract(self):
        policy = ControlPolicy(get_controller("pid"))
        with pytest.raises(NotImplementedError):
            policy.radiant_law("r", preferred_temp_c=25.0,
                               pump_curve=PumpCurve())
        with pytest.raises(NotImplementedError):
            policy.ventilation_law("v", subspace_volume_m3=15.0,
                                   preferred_temp_c=25.0,
                                   preferred_rh_percent=65.0)


class TestPidPolicy:
    def test_radiant_law_is_the_reference_controller(self):
        law = build_policy("pid").radiant_law(
            "r", preferred_temp_c=25.0, pump_curve=PumpCurve())
        assert type(law) is RadiantCoolingController
        assert law.preferred_temp_c == 25.0

    def test_omitted_coil_curve_reuses_class_default(self):
        # The pre-seam boards never passed coil_pump_curve for the V-2
        # fan law, so the class-level default instance must be reused —
        # any new PumpCurve() here would still be value-equal but would
        # betray a changed construction path.
        law = build_policy("pid").ventilation_law(
            "v", subspace_volume_m3=15.0, preferred_temp_c=25.0,
            preferred_rh_percent=65.0)
        reference = VentilationController("v", subspace_volume_m3=15.0)
        assert type(law) is VentilationController
        assert law.coil_pump_curve is reference.coil_pump_curve

    def test_explicit_coil_curve_is_forwarded(self):
        curve = PumpCurve(max_flow_lps=0.07)
        law = build_policy("pid").ventilation_law(
            "v", subspace_volume_m3=15.0, preferred_temp_c=25.0,
            preferred_rh_percent=65.0, coil_pump_curve=curve)
        assert law.coil_pump_curve is curve


def _radiant_inputs(room_temp_c, **overrides):
    base = dict(room_temp_c=room_temp_c, ceiling_dew_point_c=14.0,
                supply_temp_c=18.0, return_temp_c=24.0)
    base.update(overrides)
    return RadiantInputs(**base)


def _vent_inputs(**overrides):
    base = dict(room_temp_c=26.0, room_dew_point_c=17.0,
                room_co2_ppm=600.0, supply_water_temp_c=18.0,
                airbox_out_dew_point_c=15.0)
    base.update(overrides)
    return VentilationInputs(**base)


class TestDeadbandHysteresis:
    def make(self):
        return DeadbandRadiantLaw("r", preferred_temp_c=25.0,
                                  pump_curve=PumpCurve())

    def test_relay_engages_above_band_and_holds_inside(self):
        law = self.make()
        # Inside the band from cold start: stays off.
        cmd = law.step(_radiant_inputs(25.2), 5.0)
        assert cmd.mix_flow_target_lps == 0.0
        # Above the half-band: full flow.
        cmd = law.step(_radiant_inputs(25.8), 5.0)
        assert cmd.mix_flow_target_lps == pytest.approx(law.max_flow_lps)
        # Back inside the band: hysteresis keeps the relay on.
        cmd = law.step(_radiant_inputs(25.2), 5.0)
        assert cmd.mix_flow_target_lps == pytest.approx(law.max_flow_lps)
        # Below the band: off again.
        cmd = law.step(_radiant_inputs(24.2), 5.0)
        assert cmd.mix_flow_target_lps == 0.0

    def test_condensation_interlock_overrides_relay(self):
        law = self.make()
        law.step(_radiant_inputs(27.0), 5.0)
        assert law._on
        # A ceiling dew point above any achievable mixed temperature
        # must hold the loop off regardless of the thermal error.
        cmd = law.step(_radiant_inputs(27.0, ceiling_dew_point_c=25.0),
                       5.0)
        assert cmd.mix_flow_target_lps == 0.0
        assert cmd.supply_voltage == 0.0
        assert not law._on

    def test_conservative_margin_raises_mix_target(self):
        relaxed = self.make()
        latched = self.make()
        latched.conservative_extra_margin_k = 1.2
        # A ceiling dew point high enough that the margin binds (the
        # mix target is dew-limited, not supply-limited).
        inputs = _radiant_inputs(26.0, ceiling_dew_point_c=18.0)
        assert (latched.step(inputs, 5.0).mix_temp_target_c
                > relaxed.step(inputs, 5.0).mix_temp_target_c)


class TestDeadbandVentilation:
    def make(self):
        return DeadbandVentilationLaw("v", subspace_volume_m3=15.0)

    def test_coil_relay_follows_airbox_dew(self):
        law = self.make()
        wet = law.step(_vent_inputs(airbox_out_dew_point_c=22.0), 5.0)
        assert wet.coil_pump_voltage > 0.0
        dry = law.step(_vent_inputs(airbox_out_dew_point_c=5.0), 5.0)
        assert dry.coil_pump_voltage == 0.0

    def test_fan_relay_reacts_to_co2(self):
        law = self.make()
        stale = law.step(_vent_inputs(room_co2_ppm=1200.0), 5.0)
        assert stale.fan_speed_step > 0
        fresh = law.step(_vent_inputs(room_co2_ppm=450.0,
                                      room_dew_point_c=10.0), 5.0)
        assert fresh.fan_flow_demand_m3s == pytest.approx(
            law.min_fresh_air_m3s)


class TestConsensusAgents:
    def _agents(self, temps, **law_kwargs):
        n = len(temps)
        return [
            ConsensusVentilationLaw(
                f"v{i}", subspace_volume_m3=15.0, zone=i,
                neighbors=((i - 1) % n, (i + 1) % n), **law_kwargs)
            for i in range(n)
        ]

    def _exchange(self, agents, temps, rounds):
        for _ in range(rounds):
            states = {a.zone: a.shared_state() for a in agents
                      if a.shared_state() is not None}
            for agent, temp in zip(agents, temps):
                agent.set_neighbor_states(states)
                agent.step(_vent_inputs(room_temp_c=temp), 5.0)
        return [a.shared_state() for a in agents]

    def test_pure_consensus_converges_to_the_mean(self):
        # With the local re-anchoring disabled the ring is plain
        # neighbor averaging and must agree tightly on the mean of the
        # initial measurements.
        temps = [24.0, 26.0, 28.0, 30.0]
        agents = self._agents(temps, local_blend=0.0)
        estimates = self._exchange(agents, temps, rounds=40)
        assert max(estimates) - min(estimates) < 1e-6
        assert estimates[0] == pytest.approx(sum(temps) / len(temps),
                                             abs=1e-6)

    def test_ring_converges_toward_agreement(self):
        temps = [24.0, 26.0, 28.0, 30.0]
        agents = self._agents(temps)
        estimates = self._exchange(agents, temps, rounds=40)
        spread = max(estimates) - min(estimates)
        input_spread = max(temps) - min(temps)
        # The default blend keeps each agent partially anchored on its
        # own zone, so a residual spread remains — but agreement must
        # still cut the raw disagreement at least in half, and the
        # ensemble must center on the building mean.
        assert spread < input_spread / 2
        mean = sum(temps) / len(temps)
        assert sum(estimates) / len(estimates) == pytest.approx(
            mean, abs=0.5)

    def test_isolated_agent_tracks_local_temperature(self):
        (agent,) = self._agents([27.0])[:1]
        agent.neighbors = ()
        for _ in range(30):
            agent.step(_vent_inputs(room_temp_c=27.0), 5.0)
        assert agent.shared_state() == pytest.approx(27.0, abs=0.01)

    def test_ventilation_actuation_is_reference_identical(self):
        agent = ConsensusVentilationLaw("v", subspace_volume_m3=15.0)
        reference = VentilationController("v", subspace_volume_m3=15.0)
        inputs = _vent_inputs(room_co2_ppm=1100.0)
        assert agent.step(inputs, 5.0) == reference.step(inputs, 5.0)

    def test_radiant_law_regulates_on_zone_estimate_mean(self):
        law = ConsensusRadiantLaw("r", zones=(0, 1))
        reference = RadiantCoolingController("r")
        law.set_zone_estimates({0: 27.0, 1: 29.0})
        inputs = _radiant_inputs(23.0)
        # The consensus law must behave exactly like the reference PID
        # fed the estimate mean (28.0) instead of the raw reading.
        expected = reference.step(inputs._replace(room_temp_c=28.0), 5.0)
        assert law.step(inputs, 5.0) == expected

    def test_radiant_law_without_estimates_matches_reference(self):
        law = ConsensusRadiantLaw("r", zones=(0, 1))
        reference = RadiantCoolingController("r")
        inputs = _radiant_inputs(27.5)
        assert law.step(inputs, 5.0) == reference.step(inputs, 5.0)


HUMIDITY_NODES = [f"bt-{place}-hum-{zone}"
                  for zone in range(4) for place in ("ceil", "room")]


class TestSupervisionUnderNonPidPolicies:
    """The board-owned tiers are policy-independent: the conservative
    latch and the estimate fallback ladder must engage for the
    alternate stacks exactly as they do for the reference PID."""

    @pytest.mark.parametrize("controller", ["deadband", "consensus"])
    def test_humidity_blackout_latches_conservative_mode(self, controller):
        system = BubbleZero(BubbleZeroConfig(seed=9),
                            controller=controller)
        start = system.sim.now
        FaultScript([NodeCrash(start + 300.0, node)
                     for node in HUMIDITY_NODES]).apply_to(system)
        system.run(minutes=20)
        status = system.degradation_status()
        assert status["conservative_entries"] >= 1
        assert status["conservative_mode"] is True
        from repro.control.supervisor import CONSERVATIVE_EXTRA_MARGIN_K
        assert all(law.conservative_extra_margin_k
                   == CONSERVATIVE_EXTRA_MARGIN_K
                   for law in system.supervisor.radiant_controllers)

    @pytest.mark.parametrize("controller", ["deadband", "consensus"])
    def test_estimate_ladder_falls_back_when_starved(self, controller):
        import types

        from repro.devices.boards import ControlC2
        from repro.net.packet import DataType

        system = BubbleZero(BubbleZeroConfig(seed=9),
                            controller=controller)
        system.run(minutes=10)
        board = next(b for b in system.boards
                     if isinstance(b, ControlC2))
        assert board.fallback_estimates == 0
        keys = [("room", s) for s in range(4)]
        live = board.estimate_mean(DataType.TEMPERATURE, keys, 28.9)
        board.mote.bus.fresh_values = types.MethodType(
            lambda self, *a, **k: [], board.mote.bus)
        starved = board.estimate_mean(DataType.TEMPERATURE, keys, 28.9)
        assert board.fallback_estimates == 1
        assert starved == pytest.approx(live, abs=1e-6)

    @pytest.mark.parametrize("controller", ["deadband", "consensus"])
    def test_crashed_supplier_ages_in_status(self, controller):
        system = BubbleZero(BubbleZeroConfig(seed=9),
                            controller=controller)
        start = system.sim.now
        FaultScript([NodeCrash(start + 120.0, "bt-room-temp-0")
                     ]).apply_to(system)
        system.run(minutes=15)
        status = system.degradation_status()
        assert status["crashed_nodes"] == ["bt-room-temp-0"]
        assert status["max_staleness_s"] > 300.0
