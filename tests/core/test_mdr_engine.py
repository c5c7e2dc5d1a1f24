"""Behavioural tests for the MDR baseline engine."""

from repro.core.messages import ChunkResponse, MdrQuery, next_message_id
from repro.data.item import make_item

from tests.helpers import clique_positions, line_positions, make_net


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


def test_holder_replies_requested_chunks():
    net = make_net(line_positions(2))
    item = make_item_4()
    for chunk in item.chunks():
        net.devices[1].add_chunk(chunk)
    consumer = net.devices[0]
    consumer.mdr.issue_round(item.descriptor, item.total_chunks, set(), 1)
    net.sim.run(until=30.0)
    assert consumer.store.chunk_ids_of(item.descriptor) == [0, 1, 2, 3]


def test_have_set_excludes_owned_chunks():
    net = make_net(line_positions(2))
    item = make_item_4()
    for chunk in item.chunks():
        net.devices[1].add_chunk(chunk)
    responses = spy(net, {"chunk_response"})
    consumer = net.devices[0]
    consumer.mdr.issue_round(item.descriptor, item.total_chunks, {0, 1}, 1)
    net.sim.run(until=30.0)
    served = {f.payload.chunk.chunk_id for f in responses}
    assert served == {2, 3}


def test_multi_hop_relay():
    net = make_net(line_positions(3))
    item = make_item_4()
    for chunk in item.chunks():
        net.devices[2].add_chunk(chunk)
    consumer = net.devices[0]
    consumer.mdr.issue_round(item.descriptor, item.total_chunks, set(), 1)
    net.sim.run(until=60.0)
    assert consumer.store.chunk_ids_of(item.descriptor) == [0, 1, 2, 3]


def test_en_route_rewriting_suppresses_downstream_duplicates():
    """A downstream holder sees the rewritten have-set and stays silent
    for chunks an upstream node will already serve."""
    net = make_net(line_positions(3))
    item = make_item_4()
    chunk0 = item.chunks()[0]
    net.devices[1].add_chunk(chunk0)
    net.devices[2].add_chunk(chunk0)
    responses = spy(net, {"chunk_response"})
    net.devices[0].mdr.issue_round(item.descriptor, item.total_chunks, set(), 1)
    net.sim.run(until=60.0)
    senders = [f.sender for f in responses if f.retransmission == 0]
    assert senders.count(2) == 0  # far copy suppressed by query rewriting
    assert senders.count(1) >= 1


def test_overhearing_suppresses_sibling_holders():
    """Two holders within earshot: only one serves the chunk."""
    net = make_net(clique_positions(3))  # 0 consumer, 1 and 2 holders
    item = make_item_4()
    chunk0 = item.chunks()[0]
    net.devices[1].add_chunk(chunk0)
    net.devices[2].add_chunk(chunk0)
    responses = spy(net, {"chunk_response"})
    net.devices[0].mdr.issue_round(item.descriptor, 4, set(), 1)
    net.sim.run(until=60.0)
    first_copies = [f for f in responses if f.retransmission == 0]
    assert len(first_copies) == 1


def test_duplicate_round_query_ignored():
    net = make_net(line_positions(2))
    item = make_item_4()
    net.devices[1].add_chunk(item.chunks()[0])
    responses = spy(net, {"chunk_response"})
    query = net.devices[0].mdr.issue_round(item.descriptor, 4, set(), 1)
    net.sim.run(until=10.0)
    net.devices[1].mdr.handle_query(query, addressed=True)
    net.sim.run(until=20.0)
    assert len([f for f in responses if f.retransmission == 0]) == 1


def test_relay_forwards_chunk_once_per_round():
    net = make_net(line_positions(3))
    item = make_item_4()
    relay = net.devices[1]
    query = MdrQuery(
        message_id=next_message_id(),
        sender_id=0,
        receiver_ids=None,
        item=item.descriptor.item_descriptor(),
        total_chunks=4,
        have_chunk_ids=frozenset(),
        origin_id=0,
        expires_at=60.0,
    )
    relay.mdr.handle_query(query, addressed=True)
    net.sim.run(until=5.0)
    responses = spy(net, {"chunk_response"})
    chunk = item.chunks()[0]
    for response_id in (77_001, 77_002):
        relay.mdr.handle_response(
            ChunkResponse(
                message_id=response_id,
                sender_id=2,
                receiver_ids=frozenset({1}),
                chunk=chunk,
            ),
            addressed=True,
        )
        net.sim.run(until=net.sim.now + 5.0)
    forwarded = [f for f in responses if f.sender == 1 and f.retransmission == 0]
    assert len(forwarded) == 1


def test_chunks_outside_total_ignored():
    net = make_net(line_positions(2))
    item = make_item_4()
    responses = spy(net, {"chunk_response"})
    for chunk in item.chunks():
        net.devices[1].add_chunk(chunk)
    # Request fewer chunks than the holder has (total_chunks=2).
    net.devices[0].mdr.issue_round(item.descriptor, 2, set(), 1)
    net.sim.run(until=30.0)
    served = {f.payload.chunk.chunk_id for f in responses}
    assert served <= {0, 1}


def _no_caching_config():
    from dataclasses import replace

    from repro.node.config import DeviceConfig

    config = DeviceConfig()
    return replace(
        config,
        protocol=replace(
            config.protocol,
            cache_relayed_chunks=False,
            cache_overheard_chunks=False,
        ),
    )


def test_caching_switches_hold_for_pdr_relays():
    """The MDR engine sees every ChunkResponse but never caches it."""
    from repro.core.consumer import RetrievalSession

    net = make_net(line_positions(3), device_config=_no_caching_config())
    item = make_item_4()
    for chunk in item.chunks():
        net.devices[2].add_chunk(chunk)
    session = RetrievalSession(net.devices[0], item.descriptor)
    net.sim.schedule(0.0, session.start)
    net.sim.run(until=120.0)
    assert session.have == {0, 1, 2, 3}
    assert net.devices[1].store.chunk_ids_of(item.descriptor) == []


def test_mdr_consumer_keeps_its_chunks_with_caching_off():
    from repro.core.consumer import MdrSession
    from repro.core.rounds import RoundConfig

    net = make_net(line_positions(3), device_config=_no_caching_config())
    item = make_item_4()
    for chunk in item.chunks():
        net.devices[2].add_chunk(chunk)
    session = MdrSession(
        net.devices[0], item.descriptor, round_config=RoundConfig(window_s=3.0)
    )
    net.sim.schedule(0.0, session.start)
    net.sim.run(until=240.0)
    assert session.result.completed
    assert net.devices[0].store.chunk_ids_of(item.descriptor) == [0, 1, 2, 3]
    assert net.devices[1].store.chunk_ids_of(item.descriptor) == []
