"""The policy seam moves zero bits for the reference ``pid`` stack.

These hashes were captured on the pre-refactor code path (boards
constructing their PID controllers inline, no ``ControlPolicy``
anywhere) and are pinned here as literals: any change to the policy
layer, the boards, or the scenario plumbing that shifts a single
discrete event for the default stack fails loudly.  The long-horizon
trajectories are pinned separately by the committed golden NPZ
fingerprints (tests/test_golden_trajectories.py), which now also run
through the policy seam.

The §V-A and §V-C scenarios share seed, config and topology and differ
only in their workload scripts, neither of which fires inside the
first 15 minutes — so their 15-minute prefixes are legitimately
bit-identical and pin to the same constant.
"""

import dataclasses

import pytest

from repro.analysis.fingerprint import discrete_log_hash
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import prepare_run

# Discrete-log hash of the first 15 minutes of the paper-lab golden
# scenarios (network mode, seed 7), captured pre-refactor.
PAPER_LAB_15MIN = (
    "375bba20826e360ea679cb78c0e263acf15fcfa00bc14b306804d57ec33e0af8")
# Discrete-log hash of 5 minutes of the direct-mode 4-zone grid
# (grid-4, seed 7), captured pre-refactor.
GRID4_5MIN = (
    "6c1a156e1f9d7bed7da0b2e413b306f897b1d8d7267fce1d859c1b37a76caebe")


def _run_hash(name, minutes, obs=None, controller=None, **cfg):
    spec = get_scenario(name)
    if cfg:
        spec = dataclasses.replace(
            spec, config=dataclasses.replace(spec.config, **cfg))
    overrides = {"run_minutes": minutes}
    if controller is not None:
        overrides["controller"] = controller
    spec = dataclasses.replace(spec, **overrides)
    system, _ = prepare_run(spec, obs=obs)
    system.start()
    system.run(minutes=minutes)
    system.finalize()
    return discrete_log_hash(system)


class TestPidPinnedHashes:
    @pytest.mark.parametrize("vector", [True, False])
    def test_hvac_va_prefix(self, vector):
        assert _run_hash("golden-hvac-va", 15.0,
                         physics_vector=vector) == PAPER_LAB_15MIN

    def test_network_vc_prefix(self):
        assert _run_hash("golden-network-vc", 15.0) == PAPER_LAB_15MIN

    @pytest.mark.parametrize("vector", [True, False])
    def test_grid4_direct(self, vector):
        assert _run_hash("grid-4", 5.0,
                         physics_vector=vector) == GRID4_5MIN

    def test_observability_does_not_perturb(self):
        from repro.obs import create_observability
        assert _run_hash("golden-network-vc", 15.0,
                         obs=create_observability()) == PAPER_LAB_15MIN

    def test_explicit_pid_matches_default(self):
        # controller="pid" spelled out is the same code path as the
        # default — the axis itself must move nothing.
        assert _run_hash("grid-4", 5.0, controller="pid") == GRID4_5MIN


class TestAlternateStacksActuallyDiffer:
    """Guard against the axis silently not being wired: the alternate
    decision laws must change the discrete event log."""

    def test_consensus_moves_bits_immediately(self):
        # The CONSENSUS broadcasts land on the channel from the first
        # control step, so even the 15-minute prefix differs.
        assert _run_hash("golden-network-vc", 15.0,
                         controller="consensus") != PAPER_LAB_15MIN

    def test_deadband_moves_bits_once_the_relay_cycles(self):
        # During the initial pulldown the relay and the PID are both
        # flat-out, so the discrete prefix only diverges once the room
        # reaches the band and the relay starts cycling (~20 min in).
        assert (_run_hash("golden-network-vc", 25.0,
                          controller="deadband")
                != _run_hash("golden-network-vc", 25.0))

