"""The per-step value records are immutable named tuples.

Controllers, the plant and the vector kernel hand these records around
once per tick or control step, so they are ``typing.NamedTuple``s:
cheap to build, still immutable, with the field names and defaults the
rest of the code reads.  A changed copy is made with ``_replace``.
"""

import pytest

from repro.airside.airbox import AirboxOutput
from repro.control.radiant import RadiantCommand, RadiantInputs
from repro.control.ventilation import VentilationCommand, VentilationInputs
from repro.hydronics.panel import PanelResult

RECORDS = [
    AirboxOutput(0.02, 14.0, 0.009, 12.5, 150.0, 0.03, 4.0),
    PanelResult(120.0, 19.5, 21.0, 0.6),
    RadiantInputs(27.0, 18.0, 18.2, 21.5),
    RadiantCommand(2.5, 1.0, 19.0, 0.12),
    VentilationInputs(27.0, 20.0, 650.0, 18.0, 12.0),
    VentilationCommand(1.5, 2, 0.03, True, 12.0, 16.0),
]


@pytest.mark.parametrize("record", RECORDS,
                         ids=[type(r).__name__ for r in RECORDS])
def test_record_is_immutable_and_replaceable(record):
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, 0.0)
    changed = record._replace(**{first: 99.0})
    assert type(changed) is type(record)
    assert getattr(changed, first) == 99.0
    assert changed._replace(**{first: getattr(record, first)}) == record
    for name in record._fields[1:]:
        assert getattr(changed, name) == getattr(record, name)


def test_ventilation_inputs_keep_outdoor_co2_default():
    inputs = VentilationInputs(27.0, 20.0, 650.0, 18.0, 12.0)
    assert inputs.outdoor_co2_ppm == 400.0
