"""Behavioural tests for the PDR engines (CDI + recursive chunks)."""

from repro.core.messages import (
    CdiQuery,
    CdiResponse,
    ChunkQuery,
    ChunkResponse,
    next_message_id,
)
from repro.data.item import make_item
from repro.obs.trace import ListSink

import sys

sys.path.insert(0, "tests")
from tests.helpers import line_positions, make_net  # noqa: E402


def make_item_4():
    return make_item("media", "video", "v", size=4 * 256 * 1024)


def spy(net, kinds):
    log = []
    original = net.medium.transmit

    def hook(frame):
        if frame.kind in kinds:
            log.append(frame)
        return original(frame)

    net.medium.transmit = hook
    return log


# ----------------------------------------------------------------------
# Phase 1: CDI
# ----------------------------------------------------------------------
def test_holder_advertises_hop_zero():
    net = make_net(line_positions(2))
    item = make_item_4()
    for chunk in item.chunks():
        net.devices[1].add_chunk(chunk)
    responses = spy(net, {"cdi_response"})
    net.devices[0].cdi.issue_query(item.descriptor)
    net.sim.run(until=5.0)
    assert responses
    pairs = dict(responses[0].payload.pairs)
    assert pairs == {0: 0, 1: 0, 2: 0, 3: 0}


def test_consumer_learns_hop_counts_over_line():
    net = make_net(line_positions(3))
    item = make_item_4()
    for chunk in item.chunks():
        net.devices[2].add_chunk(chunk)
    net.devices[0].cdi.issue_query(item.descriptor)
    net.sim.run(until=5.0)
    table = net.devices[0].cdi_table
    assert table.best_hop(item.descriptor, 0) == 2
    entries = table.best_entries(item.descriptor, 0)
    assert entries[0].neighbor == 1  # via the relay


def test_relay_builds_cdi_state():
    net = make_net(line_positions(3))
    item = make_item_4()
    for chunk in item.chunks():
        net.devices[2].add_chunk(chunk)
    net.devices[0].cdi.issue_query(item.descriptor)
    net.sim.run(until=5.0)
    relay_table = net.devices[1].cdi_table
    assert relay_table.best_hop(item.descriptor, 0) == 1


def test_partial_holders_merge_in_cdi():
    """Different chunks at different nodes: the consumer learns each."""
    net = make_net(line_positions(3))
    item = make_item_4()
    chunks = item.chunks()
    net.devices[1].add_chunk(chunks[0])
    net.devices[2].add_chunk(chunks[1])
    net.devices[0].cdi.issue_query(item.descriptor)
    net.sim.run(until=5.0)
    table = net.devices[0].cdi_table
    assert table.best_hop(item.descriptor, 0) == 1
    assert table.best_hop(item.descriptor, 1) == 2


def test_duplicate_cdi_query_ignored():
    net = make_net(line_positions(2))
    item = make_item_4()
    net.devices[1].add_chunk(item.chunks()[0])
    responses = spy(net, {"cdi_response"})
    query = net.devices[0].cdi.issue_query(item.descriptor)
    net.sim.run(until=2.0)
    net.devices[1].cdi.handle_query(query, addressed=True)
    net.sim.run(until=5.0)
    assert len(responses) == 1


def test_cdi_response_improvement_pruning():
    """A relay only forwards pairs that improve what it already sent."""
    net = make_net(line_positions(3))
    item = make_item_4()
    relay = net.devices[1]
    # A lingering CDI query from node 0 sits at the relay.
    query = CdiQuery(
        message_id=next_message_id(),
        sender_id=0,
        receiver_ids=None,
        item=item.descriptor.item_descriptor(),
        origin_id=0,
        expires_at=60.0,
    )
    relay.cdi.handle_query(query, addressed=True)
    responses = spy(net, {"cdi_response"})
    item_plain = item.descriptor.item_descriptor()
    first = CdiResponse(
        message_id=next_message_id(),
        sender_id=2,
        receiver_ids=frozenset({1}),
        item=item_plain,
        pairs=((0, 1),),
    )
    relay.cdi.handle_response(first, addressed=True)
    net.sim.run(until=2.0)
    worse = CdiResponse(
        message_id=next_message_id(),
        sender_id=2,
        receiver_ids=frozenset({1}),
        item=item_plain,
        pairs=((0, 5),),
    )
    relay.cdi.handle_response(worse, addressed=True)
    net.sim.run(until=5.0)
    forwarded = [f for f in responses if f.sender == 1]
    assert len(forwarded) == 1  # the worse pair was not forwarded
    assert dict(forwarded[0].payload.pairs)[0] == 2  # hop+1 relative to relay


# ----------------------------------------------------------------------
# Phase 2: chunks
# ----------------------------------------------------------------------
def test_request_chunks_direct_neighbor():
    net = make_net(line_positions(2))
    item = make_item_4()
    for chunk in item.chunks():
        net.devices[1].add_chunk(chunk)
    consumer = net.devices[0]
    consumer.cdi.issue_query(item.descriptor)
    net.sim.run(until=3.0)
    assignment = consumer.chunks.request_chunks(item.descriptor, {0, 1, 2, 3})
    assert assignment == {1: {0, 1, 2, 3}}
    net.sim.run(until=30.0)
    assert consumer.store.chunk_ids_of(item.descriptor) == [0, 1, 2, 3]


def test_recursive_division_two_hops():
    net = make_net(line_positions(3))
    item = make_item_4()
    for chunk in item.chunks():
        net.devices[2].add_chunk(chunk)
    consumer = net.devices[0]
    consumer.cdi.issue_query(item.descriptor)
    net.sim.run(until=3.0)
    queries = spy(net, {"chunk_query"})
    consumer.chunks.request_chunks(item.descriptor, {0, 1, 2, 3})
    net.sim.run(until=60.0)
    assert consumer.store.chunk_ids_of(item.descriptor) == [0, 1, 2, 3]
    # The relay divided the request onward to node 2.
    divided = [f for f in queries if f.sender == 1]
    assert divided
    assert divided[0].receivers == frozenset({2})


def test_chunks_fetched_from_nearest_copy():
    """With copies at hop 1 and hop 2, only the near one serves."""
    net = make_net(line_positions(3))
    item = make_item_4()
    for chunk in item.chunks():
        net.devices[1].add_chunk(chunk)
        net.devices[2].add_chunk(chunk)
    consumer = net.devices[0]
    consumer.cdi.issue_query(item.descriptor)
    net.sim.run(until=3.0)
    chunk_frames = spy(net, {"chunk_response"})
    consumer.chunks.request_chunks(item.descriptor, {0, 1, 2, 3})
    net.sim.run(until=60.0)
    assert consumer.store.chunk_ids_of(item.descriptor) == [0, 1, 2, 3]
    assert all(f.sender == 1 for f in chunk_frames)


def test_relay_caches_forwarded_chunks():
    net = make_net(line_positions(3))
    item = make_item_4()
    for chunk in item.chunks():
        net.devices[2].add_chunk(chunk)
    consumer = net.devices[0]
    consumer.cdi.issue_query(item.descriptor)
    net.sim.run(until=3.0)
    consumer.chunks.request_chunks(item.descriptor, {0, 1})
    net.sim.run(until=60.0)
    assert set(net.devices[1].store.chunk_ids_of(item.descriptor)) >= {0, 1}


def test_chunk_response_forwarded_once_per_query():
    net = make_net(line_positions(3))
    item = make_item_4()
    relay = net.devices[1]
    query = ChunkQuery(
        message_id=next_message_id(),
        sender_id=0,
        receiver_ids=frozenset({1}),
        item=item.descriptor.item_descriptor(),
        chunk_ids=frozenset({0}),
        origin_id=0,
        expires_at=60.0,
    )
    # Relay remembers the query but holds no chunk (division happens,
    # but towards nobody — no CDI entries).
    relay.chunks.handle_query(query, addressed=True)
    chunk_frames = spy(net, {"chunk_response"})
    chunk = item.chunks()[0]
    for response_id in (91_001, 91_002):
        response = ChunkResponse(
            message_id=response_id,
            sender_id=2,
            receiver_ids=frozenset({1}),
            chunk=chunk,
        )
        relay.chunks.handle_response(response, addressed=True)
        net.sim.run(until=net.sim.now + 5.0)
    forwarded = [f for f in chunk_frames if f.sender == 1]
    assert len(forwarded) == 1


def test_lapsed_chunk_query_expires_when_a_chunk_is_overheard():
    """An overheard chunk response routes nothing, yet purges the LQT then."""
    net = make_net(line_positions(3))
    item = make_item_4()
    overhearer = net.devices[1]
    sink = net.sim.trace.subscribe(ListSink())
    query = ChunkQuery(
        message_id=next_message_id(),
        sender_id=0,
        receiver_ids=frozenset({2}),
        item=item.descriptor.item_descriptor(),
        chunk_ids=frozenset({0}),
        origin_id=0,
        expires_at=10.0,
    )
    overhearer.chunks.handle_query(query, addressed=False)
    net.sim.run(until=12.0)
    assert not [e for e in sink.events if e.kind == "lqt_expire"]
    response = ChunkResponse(
        message_id=91_101,
        sender_id=2,
        receiver_ids=frozenset({0}),
        chunk=item.chunks()[1],
    )
    overhearer.chunks.handle_response(response, addressed=False)
    expired = [
        (event.time, event.fields["query_id"])
        for event in sink.events
        if event.kind == "lqt_expire"
    ]
    assert expired == [(12.0, query.message_id)]


def test_unreachable_chunks_absent_from_assignment():
    net = make_net(line_positions(2))
    item = make_item_4()
    consumer = net.devices[0]
    # No CDI knowledge at all.
    assignment = consumer.chunks.request_chunks(item.descriptor, {0, 1})
    assert assignment == {}
