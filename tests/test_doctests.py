"""Run the doctest examples embedded in module docstrings."""

import doctest

import pytest

import repro.airside.fan
import repro.hydronics.heatpump
import repro.hydronics.water
import repro.net.energy
import repro.net.packet
import repro.physics.psychrometrics
import repro.sim.clock

MODULES = [
    repro.airside.fan,
    repro.hydronics.heatpump,
    repro.hydronics.water,
    repro.net.energy,
    repro.net.packet,
    repro.physics.psychrometrics,
    repro.sim.clock,
]


@pytest.mark.parametrize("module", MODULES,
                         ids=[m.__name__ for m in MODULES])
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, (
        f"{results.failed} doctest failures in {module.__name__}")
    assert results.attempted > 0, (
        f"{module.__name__} advertises examples but none were found")
