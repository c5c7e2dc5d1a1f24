"""Unit/behavioural tests for consumer sessions."""

import pytest

from repro.core.consumer import DiscoverySession, MdrSession, RetrievalSession
from repro.core.rounds import RoundConfig
from repro.data.descriptor import make_descriptor
from repro.data.item import make_item
from repro.data.predicate import QuerySpec, eq
from repro.errors import ConfigurationError

from tests.helpers import line_positions, make_net


def sample(i=0, data_type="nox"):
    return make_descriptor("env", data_type, time=float(i))


# ----------------------------------------------------------------------
# DiscoverySession
# ----------------------------------------------------------------------
def test_discovery_session_completes_and_reports():
    net = make_net(line_positions(3))
    for i in range(10):
        net.devices[2].add_metadata(sample(i))
    consumer = net.devices[0]
    done = []
    session = DiscoverySession(consumer, on_complete=done.append)
    net.sim.schedule(0.0, session.start)
    net.sim.run(until=60.0)
    assert session.done
    assert done == [session]
    assert len(session.received) == 10
    assert session.result.rounds >= 1
    assert session.result.latency > 0
    assert session.result.finished_at > session.result.latency


def test_discovery_session_counts_local_entries():
    """Entries already held locally count as received (Fig. 7 narrative)."""
    net = make_net(line_positions(2))
    consumer = net.devices[0]
    consumer.add_metadata(sample(0))
    session = DiscoverySession(consumer)
    net.sim.schedule(0.0, session.start)
    net.sim.run(until=30.0)
    assert sample(0) in session.received


def test_discovery_session_spec_filters():
    net = make_net(line_positions(2))
    net.devices[1].add_metadata(sample(0, "nox"))
    net.devices[1].add_metadata(sample(1, "pm25"))
    consumer = net.devices[0]
    session = DiscoverySession(
        consumer, spec=QuerySpec([eq("data_type", "nox")])
    )
    net.sim.schedule(0.0, session.start)
    net.sim.run(until=30.0)
    assert session.received == {sample(0, "nox")}


def test_discovery_session_stops_after_empty_round():
    net = make_net(line_positions(2))
    net.devices[1].add_metadata(sample())
    session = DiscoverySession(net.devices[0], round_config=RoundConfig())
    net.sim.schedule(0.0, session.start)
    net.sim.run(until=120.0)
    assert session.done
    # At least one productive round plus the final empty round.
    assert session.result.rounds >= 2


def test_discovery_session_max_rounds():
    net = make_net(line_positions(2))
    for i in range(5):
        net.devices[1].add_metadata(sample(i))
    session = DiscoverySession(
        net.devices[0], round_config=RoundConfig(max_rounds=1)
    )
    net.sim.schedule(0.0, session.start)
    net.sim.run(until=60.0)
    assert session.done
    assert session.result.rounds == 1


def test_discovery_session_want_payload_collects_items():
    from repro.data.item import DataItem

    net = make_net(line_positions(2))
    item = DataItem(sample(5), size=400, chunk_size=1000)
    net.devices[1].add_item(item)
    session = DiscoverySession(net.devices[0], want_payload=True)
    net.sim.schedule(0.0, session.start)
    net.sim.run(until=60.0)
    assert session.done
    assert len(session.received_payloads) == 1


# ----------------------------------------------------------------------
# RetrievalSession
# ----------------------------------------------------------------------
def test_retrieval_session_full_cycle():
    net = make_net(line_positions(3))
    item = make_item("media", "video", "v", size=4 * 256 * 1024)
    for chunk in item.chunks():
        net.devices[2].add_chunk(chunk)
    consumer = net.devices[0]
    done = []
    session = RetrievalSession(
        consumer, item.descriptor, on_complete=done.append
    )
    net.sim.schedule(0.0, session.start)
    net.sim.run(until=120.0)
    assert session.done
    assert session.result.completed
    assert session.have == {0, 1, 2, 3}
    assert session.missing == set()
    assert done == [session]


def test_retrieval_session_total_chunks_from_descriptor():
    net = make_net(line_positions(2))
    item = make_item("media", "video", "v", size=3 * 256 * 1024)
    session = RetrievalSession(net.devices[0], item.descriptor)
    assert session.total_chunks == 3


def test_retrieval_session_requires_total_chunks():
    net = make_net(line_positions(2))
    bare = make_descriptor("media", "video", name="x")
    with pytest.raises(ConfigurationError):
        RetrievalSession(net.devices[0], bare)


def test_retrieval_session_completes_immediately_if_local():
    net = make_net(line_positions(2))
    item = make_item("media", "video", "v", size=2 * 256 * 1024)
    consumer = net.devices[0]
    consumer.add_item(item)
    session = RetrievalSession(consumer, item.descriptor)
    net.sim.schedule(0.0, session.start)
    net.sim.run(until=5.0)
    assert session.done
    assert session.result.completed
    assert session.result.latency == 0.0


def test_retrieval_session_gives_up_on_unreachable_data():
    net = make_net(line_positions(2))
    item = make_item("media", "video", "v", size=2 * 256 * 1024)
    # Nobody holds the chunks.
    session = RetrievalSession(
        net.devices[0],
        item.descriptor,
        stall_timeout_s=0.5,
        max_attempts=2,
    )
    net.sim.schedule(0.0, session.start)
    net.sim.run(until=300.0)
    assert session.done
    assert not session.result.completed
    assert session.have == set()


def test_retrieval_session_skips_cdi_phase_when_routes_cached():
    net = make_net(line_positions(2))
    item = make_item("media", "video", "v", size=2 * 256 * 1024)
    for chunk in item.chunks():
        net.devices[1].add_chunk(chunk)
    consumer = net.devices[0]
    # Warm the CDI table first.
    consumer.cdi.issue_query(item.descriptor)
    net.sim.run(until=3.0)
    session = RetrievalSession(consumer, item.descriptor)
    net.sim.schedule(net.sim.now, session.start)
    phases = []
    original = session._enter_cdi_phase
    session._enter_cdi_phase = lambda: (phases.append("cdi"), original())
    net.sim.run(until=60.0)
    assert session.done and session.result.completed
    assert phases == []  # went straight to the chunk phase


# ----------------------------------------------------------------------
# MdrSession
# ----------------------------------------------------------------------
def test_mdr_session_full_cycle():
    net = make_net(line_positions(3))
    item = make_item("media", "video", "v", size=4 * 256 * 1024)
    for chunk in item.chunks():
        net.devices[2].add_chunk(chunk)
    session = MdrSession(
        net.devices[0],
        item.descriptor,
        round_config=RoundConfig(window_s=3.0),
    )
    net.sim.schedule(0.0, session.start)
    net.sim.run(until=240.0)
    assert session.done
    assert session.result.completed
    assert session.have == {0, 1, 2, 3}


def test_mdr_session_gives_up_after_empty_rounds():
    net = make_net(line_positions(2))
    item = make_item("media", "video", "v", size=2 * 256 * 1024)
    session = MdrSession(
        net.devices[0],
        item.descriptor,
        round_config=RoundConfig(window_s=0.5),
        max_empty_rounds=2,
    )
    net.sim.schedule(0.0, session.start)
    net.sim.run(until=300.0)
    assert session.done
    assert not session.result.completed
    assert session.result.rounds >= 2


def test_mdr_session_completes_immediately_if_local():
    net = make_net(line_positions(2))
    item = make_item("media", "video", "v", size=2 * 256 * 1024)
    consumer = net.devices[0]
    consumer.add_item(item)
    session = MdrSession(consumer, item.descriptor)
    net.sim.schedule(0.0, session.start)
    net.sim.run(until=5.0)
    assert session.done
    assert session.result.completed


# ----------------------------------------------------------------------
# The life cycle all three sessions share
# ----------------------------------------------------------------------
def _pdd_session(net, held):
    if held:
        net.devices[1].add_metadata(sample())
    return DiscoverySession(net.devices[0])


def _pdr_session(net, held):
    item = make_item("media", "video", "v", size=2 * 256 * 1024)
    if held:
        for chunk in item.chunks():
            net.devices[1].add_chunk(chunk)
    return RetrievalSession(
        net.devices[0], item.descriptor, stall_timeout_s=0.5, max_attempts=2
    )


def _mdr_session(net, held):
    item = make_item("media", "video", "v", size=2 * 256 * 1024)
    if held:
        for chunk in item.chunks():
            net.devices[1].add_chunk(chunk)
    return MdrSession(
        net.devices[0],
        item.descriptor,
        round_config=RoundConfig(window_s=0.5),
        max_empty_rounds=2,
    )


_SESSIONS = {"pdd": _pdd_session, "pdr": _pdr_session, "mdr": _mdr_session}


def _attached(device, session):
    """The session's callbacks among the device's listeners."""
    return [
        callback
        for listeners in (
            device.metadata_listeners,
            device.chunk_listeners,
            device.response_listeners,
        )
        for callback in listeners
        if getattr(callback, "__self__", None) is session
    ]


@pytest.mark.parametrize(
    "kind, held",
    [
        ("pdd", True),
        ("pdr", True),
        ("pdr", False),
        ("mdr", True),
        ("mdr", False),
    ],
    ids=["pdd", "pdr-completes", "pdr-gives-up", "mdr-completes", "mdr-gives-up"],
)
def test_session_detaches_listeners_on_finish(kind, held):
    """Completing or giving up, a session leaves no listener behind."""
    net = make_net(line_positions(2))
    consumer = net.devices[0]
    done = []
    session = _SESSIONS[kind](net, held)
    session.on_complete = done.append
    session.start()
    assert _attached(consumer, session)
    net.sim.run(until=300.0)
    assert session.done and done == [session]
    assert session.result.completed == held
    assert session.result.finished_at > 0.0
    assert _attached(consumer, session) == []


@pytest.mark.parametrize("kind", sorted(_SESSIONS))
def test_session_double_start_rejected(kind):
    net = make_net(line_positions(2))
    session = _SESSIONS[kind](net, held=True)
    net.sim.schedule(0.0, session.start)
    net.sim.run(until=1.0)
    with pytest.raises(ConfigurationError):
        session.start()
