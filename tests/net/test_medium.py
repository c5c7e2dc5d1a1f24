"""Unit tests for the broadcast medium: airtime, carrier sense,
collisions, half-duplex, overhearing."""

import random

import pytest

from repro.net.medium import BroadcastMedium
from repro.net.message import Frame
from repro.net.topology import Topology
from repro.sim.simulator import Simulator


def make_medium(positions, radio_range=40.0, base_loss=0.0, cs_factor=2.0):
    sim = Simulator()
    topo = Topology(radio_range)
    for node, pos in positions.items():
        topo.add_node(node, pos)
    medium = BroadcastMedium(
        sim,
        topo,
        random.Random(1),
        base_loss=base_loss,
        carrier_sense_factor=cs_factor,
    )
    return sim, topo, medium


def frame(sender, size=1000, kind="data"):
    return Frame(sender=sender, payload="p", payload_size=size, kind=kind)


def attach_sink(medium, node):
    received = []
    medium.attach(node, received.append)
    return received


def test_airtime_scales_with_size():
    _, _, medium = make_medium({1: (0, 0)})
    assert medium.airtime(2000) > medium.airtime(1000) > 0


def test_airtime_includes_preamble():
    _, _, medium = make_medium({1: (0, 0)})
    assert medium.airtime(0) == pytest.approx(medium.preamble_s)


def test_delivery_to_all_in_range_nodes():
    """Overhearing: every in-range node hears the frame, addressed or not."""
    sim, _, medium = make_medium({1: (0, 0), 2: (10, 0), 3: (20, 0), 4: (200, 0)})
    r2 = attach_sink(medium, 2)
    r3 = attach_sink(medium, 3)
    r4 = attach_sink(medium, 4)
    medium.transmit(frame(1))
    sim.run()
    assert len(r2) == 1 and len(r3) == 1
    assert r4 == []  # out of range


def test_sender_does_not_receive_own_frame():
    sim, _, medium = make_medium({1: (0, 0), 2: (10, 0)})
    r1 = attach_sink(medium, 1)
    attach_sink(medium, 2)
    medium.transmit(frame(1))
    sim.run()
    assert r1 == []


def test_delivery_delayed_by_airtime():
    sim, _, medium = make_medium({1: (0, 0), 2: (10, 0)})
    times = []
    medium.attach(2, lambda f: times.append(sim.now))
    f = frame(1, size=7200)  # 7200B * 8 / 7.2Mbps = 8 ms + preamble
    expected = medium.airtime(f.size)
    medium.transmit(f)
    sim.run()
    assert times[0] == pytest.approx(expected)


def test_channel_busy_during_transmission():
    sim, _, medium = make_medium({1: (0, 0), 2: (10, 0)})
    assert not medium.channel_busy(2)
    medium.transmit(frame(1, size=100_000))
    assert medium.channel_busy(2)
    assert medium.node_transmitting(1)
    sim.run()
    assert not medium.channel_busy(2)


def test_carrier_sense_extends_beyond_radio_range():
    """Physical carrier sense reaches carrier_sense_factor × range."""
    sim, _, medium = make_medium({1: (0, 0), 2: (60, 0)}, radio_range=40.0)
    medium.transmit(frame(1, size=100_000))
    assert medium.channel_busy(2)  # 60 m > range but < 2x range
    sim.run()


def test_busy_until_reports_end_time():
    sim, _, medium = make_medium({1: (0, 0), 2: (10, 0)})
    duration = medium.transmit(frame(1, size=50_000))
    assert medium.busy_until(2) == pytest.approx(duration)


def test_hidden_terminal_collision():
    """Two senders out of mutual range collide at a middle receiver."""
    sim, _, medium = make_medium(
        {1: (0, 0), 2: (35, 0), 3: (70, 0)}, radio_range=40.0, cs_factor=1.0
    )
    received = attach_sink(medium, 2)
    medium.transmit(frame(1, size=10_000))
    medium.transmit(frame(3, size=10_000))
    sim.run()
    assert received == []
    assert medium.stats.frames_lost_collision == 2


def test_no_collision_when_transmissions_disjoint_in_time():
    sim, _, medium = make_medium(
        {1: (0, 0), 2: (35, 0), 3: (70, 0)}, radio_range=40.0, cs_factor=1.0
    )
    received = attach_sink(medium, 2)
    medium.transmit(frame(1, size=1000))
    gap = medium.airtime(1036) + 0.001
    sim.schedule(gap, lambda: medium.transmit(frame(3, size=1000)))
    sim.run()
    assert len(received) == 2


def test_half_duplex_receiver_misses_frame_while_transmitting():
    sim, _, medium = make_medium({1: (0, 0), 2: (10, 0)}, cs_factor=1.0)
    received = attach_sink(medium, 2)
    medium.transmit(frame(1, size=50_000))
    # Node 2 starts transmitting while 1's frame is in the air.
    sim.schedule(0.001, lambda: medium.transmit(frame(2, size=1000)))
    sim.run()
    assert received == []
    assert medium.stats.frames_lost_busy_receiver == 1


def test_base_loss_drops_frames():
    sim, _, medium = make_medium({1: (0, 0), 2: (10, 0)}, base_loss=1.0)
    received = attach_sink(medium, 2)
    medium.transmit(frame(1))
    sim.run()
    assert received == []
    assert medium.stats.frames_lost_random == 1


def test_receiver_moving_out_of_range_misses_delivery():
    sim, topo, medium = make_medium({1: (0, 0), 2: (10, 0)})
    received = attach_sink(medium, 2)
    medium.transmit(frame(1, size=100_000))
    topo.move(2, (500, 0))
    sim.run()
    assert received == []


def test_detached_receiver_not_delivered():
    sim, _, medium = make_medium({1: (0, 0), 2: (10, 0)})
    received = attach_sink(medium, 2)
    medium.detach(2)
    medium.transmit(frame(1))
    sim.run()
    assert received == []


def test_stats_record_transmissions():
    sim, _, medium = make_medium({1: (0, 0), 2: (10, 0)})
    attach_sink(medium, 2)
    f = frame(1, size=500, kind="query")
    medium.transmit(f)
    sim.run()
    assert medium.stats.frames_sent == 1
    assert medium.stats.bytes_sent == f.size
    assert medium.stats.frames_by_kind["query"] == 1
    assert medium.stats.frames_delivered == 1


def test_receiver_moving_within_range_still_delivered():
    sim, topo, medium = make_medium({1: (0, 0), 2: (10, 0)})
    received = attach_sink(medium, 2)
    medium.transmit(frame(1, size=100_000))
    topo.move(2, (35, 0))
    sim.run()
    assert len(received) == 1


def test_unrelated_move_during_airtime_leaves_delivery_unchanged():
    sim, topo, medium = make_medium({1: (0, 0), 2: (10, 0), 3: (500, 0)})
    r2 = attach_sink(medium, 2)
    r3 = attach_sink(medium, 3)
    medium.transmit(frame(1, size=100_000))
    version = topo.version
    topo.move(3, (20, 0))  # into range, but after the receivers were picked
    assert topo.version != version
    sim.run()
    assert len(r2) == 1
    assert r3 == []


@pytest.mark.parametrize("position, delivered", [((20, 0), 1), ((500, 0), 0)])
def test_receiver_removed_and_readded_during_airtime(position, delivered):
    """Re-added in range, the pending reception still lands; out of range not."""
    sim, topo, medium = make_medium({1: (0, 0), 2: (10, 0)})
    received = attach_sink(medium, 2)
    medium.transmit(frame(1, size=100_000))
    topo.remove_node(2)
    topo.add_node(2, position)
    sim.run()
    assert len(received) == delivered
