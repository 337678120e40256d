"""Tests for the broadcast medium: delivery, collision, sniffing."""

import pytest

from repro.net.medium import BroadcastMedium, Sniffer
from repro.net.packet import DataType, Packet


def make_packet(source="a", data_type=DataType.TEMPERATURE):
    return Packet(data_type=data_type, source=source, created_at=0.0,
                  payload={"value": 1.0})


class TestDelivery:
    def test_broadcast_reaches_all_but_sender(self, sim):
        medium = BroadcastMedium(sim, loss_probability=0.0)
        received = {"b": [], "c": [], "a": []}
        for dev in received:
            medium.attach_receiver(
                dev, lambda p, s, dev=dev: received[dev].append(p))
        medium.transmit(make_packet(source="a"), "a")
        sim.run(1.0)
        assert len(received["b"]) == 1
        assert len(received["c"]) == 1
        assert received["a"] == []  # no self-delivery

    def test_delivery_happens_after_airtime(self, sim):
        medium = BroadcastMedium(sim, loss_probability=0.0)
        times = []
        medium.attach_receiver("b", lambda p, s: times.append(sim.now))
        packet = make_packet()
        medium.transmit(packet, "a")
        sim.run(1.0)
        assert times == [pytest.approx(packet.airtime_s())]

    def test_loss_probability_drops_some(self, sim):
        medium = BroadcastMedium(sim, loss_probability=0.5)
        count = [0]
        medium.attach_receiver("b", lambda p, s: count.__setitem__(
            0, count[0] + 1))

        def send(i=0):
            medium.transmit(make_packet(), "a")
            if i < 199:
                sim.schedule_in(0.01, lambda: send(i + 1))

        send()
        sim.run(10.0)
        assert 50 < count[0] < 150  # ~100 of 200 expected

    def test_duplicate_receiver_rejected(self, sim):
        medium = BroadcastMedium(sim)
        medium.attach_receiver("b", lambda p, s: None)
        with pytest.raises(ValueError):
            medium.attach_receiver("b", lambda p, s: None)

    def test_detach(self, sim):
        medium = BroadcastMedium(sim, loss_probability=0.0)
        hits = []
        medium.attach_receiver("b", lambda p, s: hits.append(1))
        medium.detach_receiver("b")
        medium.transmit(make_packet(), "a")
        sim.run(1.0)
        assert hits == []


class TestCollision:
    def test_overlapping_transmissions_collide(self, sim):
        medium = BroadcastMedium(sim, loss_probability=0.0)
        received = []
        medium.attach_receiver("c", lambda p, s: received.append(p))
        medium.transmit(make_packet(source="a"), "a")
        medium.transmit(make_packet(source="b"), "b")  # same instant
        sim.run(1.0)
        assert received == []
        assert medium.total_collisions == 2

    def test_sequential_transmissions_do_not_collide(self, sim):
        medium = BroadcastMedium(sim, loss_probability=0.0)
        received = []
        medium.attach_receiver("c", lambda p, s: received.append(p))
        packet = make_packet(source="a")
        medium.transmit(packet, "a")
        sim.schedule_in(packet.airtime_s() + 1e-6,
                        lambda: medium.transmit(make_packet(source="b"), "b"))
        sim.run(1.0)
        assert len(received) == 2
        assert medium.total_collisions == 0

    def test_is_busy_during_airtime(self, sim):
        medium = BroadcastMedium(sim)
        packet = make_packet()
        medium.transmit(packet, "a")
        assert medium.is_busy()
        sim.run(packet.airtime_s() * 2)
        assert not medium.is_busy()

    def test_stats(self, sim):
        medium = BroadcastMedium(sim, loss_probability=0.0)
        medium.transmit(make_packet(), "a")
        sim.run(1.0)
        stats = medium.stats()
        assert stats["transmissions"] == 1
        assert stats["collision_rate"] == 0.0


class TestSniffer:
    def test_sniffer_sees_everything(self, sim):
        medium = BroadcastMedium(sim, loss_probability=0.0)
        sniffer = Sniffer()
        medium.attach_sniffer(sniffer)
        medium.attach_receiver("b", lambda p, s: None)
        medium.transmit(make_packet(data_type=DataType.HUMIDITY), "a")
        sim.run(1.0)
        assert sniffer.frame_count == 1
        record = sniffer.records[0]
        assert record.sender == "a"
        assert record.receivers_reached == 1
        assert not record.collided
        assert len(sniffer.frames_of(DataType.HUMIDITY)) == 1
        assert sniffer.frames_of(DataType.CO2) == []

    def test_sniffer_marks_collisions(self, sim):
        medium = BroadcastMedium(sim, loss_probability=0.0)
        sniffer = Sniffer()
        medium.attach_sniffer(sniffer)
        medium.transmit(make_packet(source="a"), "a")
        medium.transmit(make_packet(source="b"), "b")
        sim.run(1.0)
        assert sniffer.collision_count == 2

    def test_running_counters_match_brute_force_scan(self, sim):
        # collision_count and frames_of read the sniffer's columns;
        # they must agree with a full scan over the record list.
        medium = BroadcastMedium(sim, loss_probability=0.0)
        sniffer = Sniffer()
        medium.attach_sniffer(sniffer)
        medium.attach_receiver("rx", lambda p, s: None)
        types = (DataType.TEMPERATURE, DataType.HUMIDITY, DataType.CO2)
        for round_no in range(20):
            data_type = types[round_no % len(types)]
            medium.transmit(make_packet(source="a", data_type=data_type),
                            "a")
            if round_no % 4 == 0:  # force a collision on some rounds
                medium.transmit(
                    make_packet(source="b", data_type=data_type), "b")
            sim.run(1.0)
        assert sniffer.collision_count == sum(
            1 for r in sniffer.records if r.collided)
        assert sniffer.collision_count > 0
        for data_type in types:
            assert sniffer.frames_of(data_type) == [
                r for r in sniffer.records
                if r.data_type == data_type]
        assert sniffer.frames_of("no-such-type") == []

    def test_activity_listener_invoked(self, sim):
        medium = BroadcastMedium(sim)
        seen = []
        medium.add_activity_listener(lambda start, dur: seen.append(
            (start, dur)))
        packet = make_packet()
        medium.transmit(packet, "a")
        assert seen == [(0.0, pytest.approx(packet.airtime_s()))]
