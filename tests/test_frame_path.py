"""Radio frame path pinned to recorded counts and sniffer records.

The MAC keeps its in-contention frame in attributes instead of binding
it into every event, and the sniffer keeps a columnar log of each
frame's fields instead of the frame.  Neither may move a counter, a
frame or an event: the literals below were recorded from the
per-event, copy-per-record frame path on the same ``paper-vc`` slice.

The slice subscribes one board to a new data type half-way through,
so the medium's cached delivery plans are dropped and rebuilt mid-run.
It runs under ``tracemalloc``, so the memory a sniffed frame leaves
behind is measured on the same slice.
"""

import dataclasses
import gc
import hashlib
import tracemalloc

import pytest

from repro.net.medium import BroadcastMedium, Sniffer
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
# Fig. 8 dataflow graph: nodes, edges, frames summed over edges, and
# sha256 over the sorted (supplier, consumer, types, frames) edges.
PINNED_DATAFLOW = (27, 146, 24184, "cf7c7263e0c426cc706e36c13b86a6ad"
                                   "0dd91da26bd63e5e1e7fb95db61d6212")
# Frame-path modules whose live allocations may grow with the number
# of sniffed frames only by the sniffer log's own columns (~33 B per
# frame); keeping each frame's Transmission, Packet and payload dict
# alive instead costs ~430 B per frame on this slice.
FRAME_PATH_FILES = ("repro/net/medium.py", "repro/net/packet.py",
                    "repro/devices/mote.py")
MAX_RETAINED_BYTES_PER_FRAME = 64


def _motes(system):
    return ([node.mote for node in system.bt_nodes]
            + [board.mote for board in system.boards])


def _frame_path_state(system):
    """(frames sniffed, live bytes allocated from the frame path)."""
    gc.collect()
    stats = tracemalloc.take_snapshot().statistics("filename")
    return system.sniffer.frame_count, sum(
        stat.size for stat in stats
        if stat.traceback[0].filename.replace("\\", "/").endswith(
            FRAME_PATH_FILES))


@pytest.fixture(scope="module")
def slice_run():
    spec = dataclasses.replace(get_scenario("paper-vc"), run_minutes=10.0,
                               warmup_minutes=0.0)
    system, _ = prepare_run(spec)
    system.start()
    tracemalloc.start()
    try:
        system.run(minutes=5.0)
        frames_5, bytes_5 = _frame_path_state(system)
        late = []
        system.boards[0].mote.subscribe(
            DataType.CO2, lambda packet, sender: late.append(1))
        # Read just after the subscription dropped the delivery plans.
        midrun = (sum(m.bus.packets_received for m in _motes(system)),
                  sum(m.bus.packets_filtered for m in _motes(system)))
        system.run(minutes=5.0)
        frames_10, bytes_10 = _frame_path_state(system)
    finally:
        tracemalloc.stop()
    # Live frame-path memory gained per frame sniffed between minute 5
    # and minute 10.
    retained = (bytes_10 - bytes_5) / (frames_10 - frames_5)
    return system, midrun, late, retained


class TestPinnedSlice:
    def test_bus_counters(self, slice_run):
        system, _, _, _ = slice_run
        counts = {m.device_id: (m.bus.packets_received,
                                m.bus.packets_filtered)
                  for m in _motes(system)}
        assert counts == PINNED_BUS_COUNTS

    def test_midrun_totals_and_late_subscriber(self, slice_run):
        system, midrun, late, _ = slice_run
        assert system.boards[0].device_id == "control-c1"
        assert midrun == PINNED_MIDRUN_TOTALS
        assert len(late) == PINNED_LATE_DELIVERIES

    def test_sniffer_records(self, slice_run):
        system, _, _, _ = slice_run
        sniffer = system.sniffer
        digest = hashlib.sha256()
        for r in sniffer.records:
            digest.update(repr((r.sender, r.source,
                                r.data_type.value, r.start, r.end,
                                r.collided,
                                r.receivers_reached)).encode())
        assert (sniffer.frame_count, sniffer.collision_count,
                digest.hexdigest()) == PINNED_SNIFFER

    def test_events(self, slice_run):
        system, _, _, _ = slice_run
        assert system.sim.events_dispatched == PINNED_EVENTS

    def test_dataflow_graph(self, slice_run):
        pytest.importorskip("networkx")
        from repro.analysis.dataflow import extract_dataflow

        system, _, _, _ = slice_run
        graph = extract_dataflow(system)
        edges = sorted(
            (supplier, consumer, tuple(sorted(attrs["data_types"])),
             attrs["frames"])
            for supplier, consumer, attrs in graph.edges(data=True))
        assert (graph.number_of_nodes(), graph.number_of_edges(),
                sum(edge[3] for edge in edges),
                hashlib.sha256(repr(edges).encode()).hexdigest()
                ) == PINNED_DATAFLOW

    def test_sniffed_frames_retain_no_packets(self, slice_run):
        _, _, _, retained = slice_run
        assert retained <= MAX_RETAINED_BYTES_PER_FRAME, (
            f"{retained:.0f} B retained per sniffed frame")


class TestSnifferRecord:
    def test_record_fields_are_the_frames(self, sim):
        medium = BroadcastMedium(sim, loss_probability=0.0)
        sniffer = Sniffer()
        medium.attach_sniffer(sniffer)
        medium.attach_receiver("b", lambda packet, sender: None)
        medium.attach_receiver("c", lambda packet, sender: None)
        tx = medium.transmit(
            Packet(data_type=DataType.CO2, source="a", created_at=0.0), "a")
        relayed = medium.transmit(
            Packet(data_type=DataType.FAN_CMD, source="a", created_at=0.0),
            "b")
        sim.run(1.0)
        clean = medium.transmit(
            Packet(data_type=DataType.CO2, source="c", created_at=1.0), "c")
        sim.run(2.0)
        assert sniffer.records == [
            (tx.sender, tx.packet.source, tx.packet.data_type, tx.start,
             tx.end, True, 0),
            (relayed.sender, relayed.packet.source,
             relayed.packet.data_type, relayed.start, relayed.end, True, 0),
            (clean.sender, clean.packet.source, clean.packet.data_type,
             clean.start, clean.end, False, 1),
        ]
        records = sniffer.records
        assert all(type(r.collided) is bool for r in records)
        assert sniffer.frames_of(DataType.CO2) == [records[0], records[2]]
        assert sniffer.frames_of("a") == []
        assert (sniffer.frame_count, sniffer.collision_count) == (3, 2)
