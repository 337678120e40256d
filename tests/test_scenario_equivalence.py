"""Registry scenarios are byte-identical to the hand-wired assemblies.

The refactor's safety net: building an experiment through
:mod:`repro.scenarios` must reproduce the pre-registry hand-wired
construction *bit for bit* — same RNG draws, same node order, same
discrete event log — on both physics paths and with observability on
or off.  The committed golden NPZ fingerprints (generated before the
scenario layer existed, checked by tests/test_golden_trajectories.py,
which now runs through the registry) pin the long-horizon trajectories;
these tests pin the assembly itself at short horizons where any drift
in construction order shows up immediately.
"""

import dataclasses

import pytest

from repro.analysis.fingerprint import discrete_log_hash
from repro.core.config import BubbleZeroConfig, NetworkConfig
from repro.core.system import BubbleZero
from repro.runtime.spec import RunSpec, execute_spec
from repro.scenarios.registry import get_fault_script, get_scenario
from repro.scenarios.spec import ScenarioSpec, prepare_run
from repro.workloads.events import (
    paper_phase_two_events,
    periodic_disturbance_events,
)

MINUTES = 15.0


def _registry_hash(name, macro, minutes=MINUTES, obs=None):
    spec = get_scenario(name)
    spec = dataclasses.replace(
        spec, run_minutes=minutes,
        config=dataclasses.replace(spec.config,
                                   physics_macro_step=macro))
    system, _ = prepare_run(spec, obs=obs)
    system.start()
    system.run(minutes=minutes)
    system.finalize()
    return discrete_log_hash(system)


def _handwired_hash(config, script, minutes=MINUTES):
    system = BubbleZero(config)
    if script is not None:
        system.schedule_script(script(system))
    system.start()
    system.run(minutes=minutes)
    system.finalize()
    return discrete_log_hash(system)


@pytest.mark.parametrize("macro", [True, False])
def test_va_trial_matches_handwired(macro):
    hand = _handwired_hash(
        BubbleZeroConfig(seed=7, physics_macro_step=macro),
        lambda system: paper_phase_two_events())
    assert _registry_hash("golden-hvac-va", macro) == hand


@pytest.mark.parametrize("macro", [True, False])
def test_vc_trial_matches_handwired(macro):
    hand = _handwired_hash(
        BubbleZeroConfig(seed=7, physics_macro_step=macro,
                         network=NetworkConfig(bt_mode="adaptive")),
        lambda system: periodic_disturbance_events(
            system.sim.now, MINUTES * 60.0,
            every_s=1800.0, duration_s=30.0))
    assert _registry_hash("golden-network-vc", macro) == hand


def test_obs_does_not_perturb_registry_run():
    from repro.obs import create_observability

    blind = _registry_hash("golden-hvac-va", True, minutes=10.0)
    seen = _registry_hash("golden-hvac-va", True, minutes=10.0,
                          obs=create_observability())
    assert seen == blind


def test_campaign_cell_named_script_matches_inline():
    """A registry fault-script reference resolves to exactly the
    inline faults and executes to the same discrete hash."""
    config = BubbleZeroConfig(seed=7)
    faults = tuple(get_fault_script("quick/crash-room-temp").faults)
    inline = RunSpec(label="cell", scenario=ScenarioSpec(
        name="cell", config=config, faults=faults, run_minutes=5.0))
    named = RunSpec(label="cell", scenario=ScenarioSpec(
        name="cell", config=config,
        fault_script="quick/crash-room-temp", run_minutes=5.0))
    assert inline.scenario.resolve_faults() == \
        named.scenario.resolve_faults()
    assert (execute_spec(inline).discrete_hash
            == execute_spec(named).discrete_hash)
