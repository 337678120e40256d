"""Ablation — type-addressed broadcast vs unicast delivery.

Paper §IV-A: "One data packet is usually needed by multiple
destinations … which makes the best use of the wireless broadcast effect
and thus saves unnecessary transmissions."  This bench counts, from the
sniffer log of the HVAC trial, how many frames a unicast design would
have needed (one per interested consumer) against what the broadcast
design actually transmitted.
"""

from collections import Counter

from repro.analysis.reporting import render_table
from repro.net.packet import DataType


def consumer_counts(system):
    """How many boards subscribe to each data type."""
    counts = Counter()
    for board in system.boards:
        for data_type in board.mote.bus._subscribers:
            counts[data_type] += 1
    return counts


class TestBroadcastAblation:
    def test_broadcast_saves_transmissions(self, hvac_trial, benchmark):
        system, _meters = hvac_trial
        consumers = consumer_counts(system)

        def tally():
            broadcast_frames = 0
            unicast_frames = 0
            per_type = Counter()
            for record in system.sniffer.records:
                data_type = record.data_type
                interested = consumers.get(data_type, 0)
                if record.sender.startswith("control-"):
                    interested = max(0, interested - 1)  # not itself
                broadcast_frames += 1
                unicast_frames += max(1, interested)
                per_type[data_type] += 1
            return broadcast_frames, unicast_frames, per_type

        broadcast_frames, unicast_frames, per_type = benchmark(tally)

        rows = [[dt.value, per_type.get(dt, 0), consumers.get(dt, 0)]
                for dt in DataType if per_type.get(dt, 0)]
        print()
        print(render_table(
            "Ablation — frames by type (broadcast design)",
            ["type", "frames", "interested boards"], rows))
        saving = 1.0 - broadcast_frames / unicast_frames
        print(f"  broadcast sent {broadcast_frames} frames; unicast would "
              f"need {unicast_frames} ({saving * 100:.0f}% saved)")

        assert broadcast_frames < unicast_frames
        assert saving > 0.3  # multiple consumers per supplied datum

    def test_channel_far_from_saturation(self, hvac_trial, benchmark):
        """The broadcast design leaves the 250 kbps channel mostly idle,
        which is what keeps collision rates negligible."""
        system, _meters = hvac_trial

        def airtime_fraction():
            total_air = sum(r.end - r.start
                            for r in system.sniffer.records)
            return total_air / (105 * 60.0)

        fraction = benchmark(airtime_fraction)
        print(f"\n  channel airtime utilisation: {fraction * 100:.2f}%")
        assert fraction < 0.10
        stats = system.network_stats()
        assert stats["collision_rate"] < 0.05
