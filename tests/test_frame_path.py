"""Radio frame path pinned to recorded counts and sniffer records.

The MAC keeps its in-contention frame in attributes instead of binding
it into every event, and the sniffer logs the ``Transmission`` itself
instead of a copy.  Neither may move a counter, a frame or an event:
the literals below were recorded from the per-event, copy-per-record
frame path on the same ``paper-vc`` slice.

The slice subscribes one board to a new data type half-way through,
so the medium's cached delivery plans are dropped and rebuilt mid-run.
"""

import dataclasses
import hashlib

import pytest

from repro.net.medium import (
    BroadcastMedium,
    Sniffer,
    SnifferRecord,
    Transmission,
)
from repro.net.packet import DataType, Packet
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import prepare_run

# device id -> (packets_received, packets_filtered) after 10 minutes.
PINNED_BUS_COUNTS = {
    "bt-ceil-hum-0": (0, 6740), "bt-ceil-hum-1": (0, 6721),
    "bt-ceil-hum-2": (0, 6733), "bt-ceil-hum-3": (0, 6717),
    "bt-ceil-temp-0": (0, 6722), "bt-ceil-temp-1": (0, 6754),
    "bt-ceil-temp-2": (0, 6746), "bt-ceil-temp-3": (0, 6732),
    "bt-room-hum-0": (0, 6733), "bt-room-hum-1": (0, 6717),
    "bt-room-hum-2": (0, 6722), "bt-room-hum-3": (0, 6719),
    "bt-room-temp-0": (0, 6742), "bt-room-temp-1": (0, 6732),
    "bt-room-temp-2": (0, 6732), "bt-room-temp-3": (0, 6727),
    "control-c1": (635, 4638), "control-c2": (2069, 4072),
    "control-v1": (4483, 1074),
    "control-v2-0": (3311, 3070), "control-v2-1": (3317, 3034),
    "control-v2-2": (3310, 3042), "control-v2-3": (3302, 3069),
    "control-v3-0": (439, 6012), "control-v3-1": (446, 6018),
    "control-v3-2": (440, 6009), "control-v3-3": (446, 6033),
}
# Bus totals (received, filtered) just after the mid-run subscription.
PINNED_MIDRUN_TOTALS = (11792, 79624)
# CO2 frames the late subscriber's handler saw.
PINNED_LATE_DELIVERIES = 635
# Sniffer: frames, collisions, sha256 over every record's fields.
PINNED_SNIFFER = (7223, 315, "0673d7875c511ecdab411910f5534387"
                             "c4567e27047855ca854750f161e483ee")
PINNED_EVENTS = 38326


def _motes(system):
    return ([node.mote for node in system.bt_nodes]
            + [board.mote for board in system.boards])


@pytest.fixture(scope="module")
def slice_run():
    spec = dataclasses.replace(get_scenario("paper-vc"), run_minutes=10.0,
                               warmup_minutes=0.0)
    system, _ = prepare_run(spec)
    system.start()
    system.run(minutes=5.0)
    late = []
    system.boards[0].mote.subscribe(DataType.CO2,
                                    lambda packet, sender: late.append(1))
    # Read just after the subscription dropped the delivery plans.
    midrun = (sum(m.bus.packets_received for m in _motes(system)),
              sum(m.bus.packets_filtered for m in _motes(system)))
    system.run(minutes=5.0)
    return system, midrun, late


class TestPinnedSlice:
    def test_bus_counters(self, slice_run):
        system, _, _ = slice_run
        counts = {m.device_id: (m.bus.packets_received,
                                m.bus.packets_filtered)
                  for m in _motes(system)}
        assert counts == PINNED_BUS_COUNTS

    def test_midrun_totals_and_late_subscriber(self, slice_run):
        system, midrun, late = slice_run
        assert system.boards[0].device_id == "control-c1"
        assert midrun == PINNED_MIDRUN_TOTALS
        assert len(late) == PINNED_LATE_DELIVERIES

    def test_sniffer_records(self, slice_run):
        system, _, _ = slice_run
        sniffer = system.sniffer
        digest = hashlib.sha256()
        for r in sniffer.records:
            digest.update(repr((r.sender, r.packet.source,
                                r.packet.data_type.value, r.start, r.end,
                                r.collided,
                                r.receivers_reached)).encode())
        assert (sniffer.frame_count, sniffer.collision_count,
                digest.hexdigest()) == PINNED_SNIFFER

    def test_events(self, slice_run):
        system, _, _ = slice_run
        assert system.sim.events_dispatched == PINNED_EVENTS


class TestSnifferRecord:
    def test_record_is_the_transmission(self, sim):
        medium = BroadcastMedium(sim, loss_probability=0.0)
        sniffer = Sniffer()
        medium.attach_sniffer(sniffer)
        medium.attach_receiver("b", lambda packet, sender: None)
        tx = medium.transmit(
            Packet(data_type=DataType.CO2, source="a", created_at=0.0), "a")
        sim.run(1.0)
        assert SnifferRecord is Transmission
        assert sniffer.records == [tx]
        assert tx.receivers_reached == 1
        assert sniffer.frames_of(DataType.CO2) == [tx]
