"""Unit tests for per-hop ack/retransmission (§V-1)."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.experiments.figures.common import (
    experiment_device_config,
    pdd_experiment,
)
from repro.experiments.scenario import build_grid_scenario
from repro.net.faces import BroadcastFace
from repro.net.medium import BroadcastMedium
from repro.net.message import AckMessage, Frame, make_ack_frame
from repro.net.reliability import (
    ReliabilityConfig,
    ReliabilityReceiver,
    ReliabilitySender,
)
from repro.net.topology import Topology
from repro.obs.trace import ListSink
from repro.sim.simulator import Simulator


def frame(receivers=frozenset({2}), size=500):
    return Frame(
        sender=1, payload="p", payload_size=size, receivers=receivers
    )


def make_sender(sim, config=None, submit_log=None):
    log = submit_log if submit_log is not None else []
    sender = ReliabilitySender(sim, lambda f: log.append(f) or True, config)
    return sender, log


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ReliabilityConfig(retr_timeout_s=0)
    with pytest.raises(ConfigurationError):
        ReliabilityConfig(max_retransmissions=-1)
    with pytest.raises(ConfigurationError):
        ReliabilityConfig(backoff_factor=0.5)


def test_send_submits_frame(sim):
    sender, log = make_sender(sim)
    f = frame()
    sender.send(f, frozenset({2}))
    assert log == [f]
    assert f.needs_ack


def test_no_ack_expected_when_disabled(sim):
    sender, log = make_sender(sim, ReliabilityConfig(enabled=False))
    f = frame()
    sender.send(f, frozenset({2}))
    assert not f.needs_ack
    assert sender.outstanding == 0


def test_no_ack_for_empty_receiver_set(sim):
    sender, _ = make_sender(sim)
    f = frame()
    sender.send(f, frozenset())
    assert not f.needs_ack


def test_retransmits_until_acked(sim):
    sender, log = make_sender(sim)
    f = frame()
    sender.send(f, frozenset({2}))
    sender.frame_transmitted(f)
    # Without radio confirmations, retries pace at the 5x fallback
    # deadline: 0.2, then 5*0.4, 5*0.8, 5*1.6, abandoned at +5*3.2.
    sim.run(until=60.0)
    # 1 original + 4 retries (MaxRetrTime default).
    assert len(log) == 5
    assert sender.abandoned_frames == 1
    assert sender.outstanding == 0


def test_retransmission_targets_unacked_subset(sim):
    sender, log = make_sender(sim)
    f = frame(receivers=frozenset({2, 3}))
    sender.send(f, frozenset({2, 3}))
    sender.frame_transmitted(f)
    sender.ack_received(AckMessage(frame_id=f.frame_id, acker=2))
    sim.run(until=1.0)
    retry = log[1]
    assert retry.receivers == frozenset({3})
    assert retry.retransmission == 1
    assert retry.frame_id == f.frame_id


def test_all_acks_stop_retransmission(sim):
    sender, log = make_sender(sim)
    f = frame(receivers=frozenset({2, 3}))
    sender.send(f, frozenset({2, 3}))
    sender.frame_transmitted(f)
    sender.ack_received(AckMessage(frame_id=f.frame_id, acker=2))
    sender.ack_received(AckMessage(frame_id=f.frame_id, acker=3))
    sim.run(until=10.0)
    assert len(log) == 1
    assert sender.outstanding == 0


def test_ack_for_unknown_frame_ignored(sim):
    sender, _ = make_sender(sim)
    sender.ack_received(AckMessage(frame_id=999, acker=2))  # no crash


def test_timeout_scales_with_airtime(sim):
    """Large frames get a larger ack allowance (timeout = base + 8×airtime)."""
    log = []
    sender = ReliabilitySender(
        sim,
        lambda f: log.append((sim.now, f)) or True,
        ReliabilityConfig(retr_timeout_s=0.2),
        airtime=lambda size: 0.5,
    )
    f = frame()
    sender.send(f, frozenset({2}))
    sender.frame_transmitted(f)
    sim.run(until=4.0)
    assert len(log) == 1  # timeout is 0.2 + 8*0.5 = 4.2s; no retry yet
    sim.run(until=4.5)
    assert len(log) == 2  # first retry fired after 4.2s


def test_exponential_backoff_spacing(sim):
    """When each retry is confirmed on the air, deadlines follow the
    exponential backoff of the config exactly."""
    times = []

    def submit(f):
        times.append(sim.now)
        # The radio reports the (re)transmission immediately, re-arming
        # the accurate (non-fallback) deadline.
        sim.schedule(0.0, sender.frame_transmitted, f)
        return True

    sender = ReliabilitySender(
        sim,
        submit,
        ReliabilityConfig(retr_timeout_s=1.0, backoff_factor=2.0),
    )
    f = frame()
    sender.send(f, frozenset({2}))
    sim.run(until=40.0)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert gaps == pytest.approx([1.0, 2.0, 4.0, 8.0])


def test_unconfirmed_retry_uses_generous_fallback(sim):
    """A retry stuck in queues (never confirmed) retries at 5x spacing —
    late enough not to snowball, but the chain never stalls."""
    times = []
    sender = ReliabilitySender(
        sim,
        lambda f: times.append(sim.now) or True,
        ReliabilityConfig(retr_timeout_s=1.0, backoff_factor=2.0),
    )
    f = frame()
    sender.send(f, frozenset({2}))
    sender.frame_transmitted(f)
    sim.run(until=200.0)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert gaps == pytest.approx([1.0, 10.0, 20.0, 40.0])


def test_frame_dropped_arms_timer(sim):
    """An OS-dropped frame must still be retransmitted."""
    sender, log = make_sender(sim)
    f = frame()
    sender.send(f, frozenset({2}))
    # No frame_transmitted upcall: the OS silently dropped it.
    sender.frame_dropped(f)
    sim.run(until=1.0)
    assert len(log) >= 2


def test_cancel_queued_hook_on_late_ack(sim):
    cancelled = []
    sender = ReliabilitySender(
        sim,
        lambda f: True,
        ReliabilityConfig(retr_timeout_s=0.1),
        cancel_queued=cancelled.append,
    )
    f = frame()
    sender.send(f, frozenset({2}))
    sender.frame_transmitted(f)
    sim.run(until=0.15)  # one retry submitted
    sender.ack_received(AckMessage(frame_id=f.frame_id, acker=2))
    assert len(cancelled) == 1
    assert cancelled[0].retransmission == 1


def test_cancel_all(sim):
    sender, log = make_sender(sim)
    f = frame()
    sender.send(f, frozenset({2}))
    sender.frame_transmitted(f)
    sender.cancel_all()
    sim.run(until=10.0)
    assert len(log) == 1
    assert sender.outstanding == 0


def test_retransmitted_counter(sim):
    sender, _ = make_sender(sim)
    f = frame()
    sender.send(f, frozenset({2}))
    sender.frame_transmitted(f)
    sim.run(until=60.0)
    assert sender.retransmitted_frames == 4


def test_cancel_frame_clears_pending(sim):
    sender, log = make_sender(sim)
    f = frame()
    sender.send(f, frozenset({2}))
    sender.frame_transmitted(f)
    sender.cancel_frame(f.frame_id)
    sim.run(until=60.0)
    assert len(log) == 1  # no retries after cancellation
    assert sender.outstanding == 0


# ----------------------------------------------------------------------
# Receiver side
# ----------------------------------------------------------------------
def test_receiver_acks_addressed_frames():
    acks = []
    receiver = ReliabilityReceiver(2, acks.append)
    f = frame(receivers=frozenset({2}))
    f.needs_ack = True
    assert receiver.accept(f) is True
    assert len(acks) == 1
    ack = acks[0].payload
    assert isinstance(ack, AckMessage)
    assert ack.frame_id == f.frame_id
    assert ack.acker == 2


def test_receiver_does_not_ack_overheard_frames():
    acks = []
    receiver = ReliabilityReceiver(9, acks.append)
    f = frame(receivers=frozenset({2}))
    f.needs_ack = True
    assert receiver.accept(f) is True  # still delivered (overhearing)
    assert acks == []


def test_receiver_does_not_ack_unack_frames():
    acks = []
    receiver = ReliabilityReceiver(2, acks.append)
    f = frame(receivers=frozenset({2}))
    f.needs_ack = False
    receiver.accept(f)
    assert acks == []


def test_duplicate_frames_suppressed_but_reacked():
    acks = []
    receiver = ReliabilityReceiver(2, acks.append)
    f = frame(receivers=frozenset({2}))
    f.needs_ack = True
    assert receiver.accept(f) is True
    retry = f.copy_for_retransmission(frozenset({2}))
    assert receiver.accept(retry) is False  # duplicate payload
    assert len(acks) == 2  # but re-acked (first ack may have been lost)


def test_receiver_history_bounded():
    receiver = ReliabilityReceiver(2, lambda f: None, history_limit=10)
    for _ in range(50):
        receiver.accept(frame(receivers=None))
    assert len(receiver._seen) <= 11


def test_make_ack_frame_addressed_to_sender():
    f = frame()
    ack = make_ack_frame(5, f)
    assert ack.receivers == frozenset({1})
    assert ack.kind == "ack"
    assert not ack.needs_ack


# ----------------------------------------------------------------------
# Why a face may drop an overheard ack unread: only the acked frame's
# sender can hold that frame id pending.
# ----------------------------------------------------------------------
def test_frame_ids_unique_per_logical_send_across_senders():
    """In a traced discovery run every frame id belongs to one sender, and
    its copies carry distinct retransmission numbers."""
    scenario = build_grid_scenario(
        rows=3, cols=3, seed=1, device_config=experiment_device_config()
    )
    sink = scenario.sim.trace.subscribe(ListSink())
    pdd_experiment(1, metadata_count=200, scenario=scenario, sim_cap_s=60.0)
    copies = {}
    for event in sink.events:
        if event.kind == "frame_sent":
            copies.setdefault(event.fields["frame_id"], []).append(
                (event.node, event.fields["retx"])
            )
    assert len({node for sends in copies.values() for node, _ in sends}) > 1
    assert any(retx for sends in copies.values() for _, retx in sends)
    for frame_id, sends in copies.items():
        assert len({node for node, _ in sends}) == 1, frame_id
        numbers = [retx for _, retx in sends]
        assert len(numbers) == len(set(numbers)), frame_id


def test_retransmission_copy_keeps_id_and_sender():
    f = frame(receivers=frozenset({2, 3}))
    retry = f.copy_for_retransmission(frozenset({3}))
    again = retry.copy_for_retransmission(frozenset({3}))
    for copy in (retry, again):
        assert (copy.frame_id, copy.sender) == (f.frame_id, f.sender)
    assert (retry.retransmission, again.retransmission) == (1, 2)


def test_ack_overheard_by_third_node_leaves_its_sender_untouched():
    """Node 0 sends to node 1; node 2 overhears the frame and node 1's ack
    while a frame of its own is outstanding."""
    sim = Simulator()
    topology = Topology(40.0)
    for node in range(3):
        topology.add_node(node, (node * 5.0, 0.0))
    medium = BroadcastMedium(sim, topology, random.Random(2), base_loss=0.0)
    sink = sim.trace.subscribe(ListSink())
    faces = [BroadcastFace(sim, medium, n, random.Random(50 + n)) for n in range(3)]
    third = faces[2].sender
    # Addressed to a node that is not there, so it stays pending.
    own = faces[2].send("mine", 100, receivers=frozenset({9}))
    heard = []
    ack_received = third.ack_received
    third.ack_received = lambda ack: (heard.append(ack), ack_received(ack))
    faces[0].send("data", 500, receivers=frozenset({1}))
    sim.run(until=0.1)  # well inside the 0.2 s RetrTimeout
    assert faces[0].sender.outstanding == 0  # node 1's ack arrived
    assert any(
        event.kind == "frame_delivered"
        and event.node == 2
        and event.fields["frame_kind"] == "ack"
        for event in sink.events
    )
    assert heard == []
    assert list(third._pending) == [own.frame_id]
    assert (third.retransmitted_frames, third.abandoned_frames) == (0, 0)
