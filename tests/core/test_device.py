"""Unit tests for the Device composition: dispatch, listeners, leave."""

from repro.bloom.bloom_filter import NullFilter
from repro.core.messages import (
    ChunkResponse,
    DiscoveryResponse,
    next_message_id,
)
from repro.data.descriptor import make_descriptor
from repro.data.item import make_item
from repro.data.predicate import QuerySpec
from repro.node.config import DeviceConfig, ProtocolConfig

from tests.helpers import line_positions, make_net


def sample(i=0):
    return make_descriptor("env", "nox", time=float(i))


def test_add_item_stores_chunks_and_metadata():
    net = make_net(line_positions(1))
    device = net.devices[0]
    item = make_item("media", "video", "v", size=3 * 256 * 1024)
    device.add_item(item)
    assert device.store.chunk_ids_of(item.descriptor) == [0, 1, 2]
    assert device.store.has_metadata(item.descriptor)


def test_metadata_listener_fires_once_per_new_entry():
    net = make_net(line_positions(1))
    device = net.devices[0]
    seen = []
    device.metadata_listeners.append(seen.append)
    assert device.cache_metadata([sample()]) == [sample()]
    assert device.cache_metadata([sample()]) == []
    assert len(seen) == 1


def test_metadata_listener_fires_in_response_order():
    net = make_net(line_positions(1))
    device = net.devices[0]
    seen = []
    device.metadata_listeners.append(seen.append)
    device.cache_metadata([sample(1)])
    batch = [sample(3), sample(1), sample(2), sample(3)]
    assert device.cache_metadata(batch) == [sample(3), sample(2)]
    assert seen == [sample(1), sample(3), sample(2)]


def test_repr_does_not_purge_the_store():
    """Printing a device must not change later match order: the repr
    reads the raw table length instead of purging expired entries."""
    orders = []
    for print_device in (False, True):
        config = DeviceConfig(protocol=ProtocolConfig(metadata_ttl_s=10.0))
        net = make_net(line_positions(1), device_config=config)
        device = net.devices[0]
        a, b = sample(1), sample(2)
        device.cache_metadata([a])
        net.sim.run(until=5.0)
        device.cache_metadata([b])
        net.sim.run(until=11.0)
        if print_device:
            assert repr(device) == "Device(id=0, metadata=2)"
        device.cache_metadata([a])
        orders.append(device.store.match_metadata(QuerySpec()))
    assert orders[0] == [a, b]
    assert orders[1] == orders[0]


def test_chunk_listener_fires_once_per_new_chunk():
    net = make_net(line_positions(1))
    device = net.devices[0]
    seen = []
    device.chunk_listeners.append(seen.append)
    chunk = make_item("m", "v", "x", size=100).chunks()[0]
    assert device.cache_chunk(chunk) is True
    assert device.cache_chunk(chunk) is False
    assert len(seen) == 1


def test_response_listener_fires_only_for_addressed():
    net = make_net(line_positions(3))
    device1 = net.devices[1]
    seen = []
    device1.response_listeners.append(seen.append)
    response = DiscoveryResponse(
        message_id=next_message_id(),
        sender_id=0,
        receiver_ids=frozenset({2}),  # not node 1
        entries=(sample(),),
    )
    net.devices[0].face.send(
        response, response.wire_size(), receivers=response.receiver_ids,
        kind="response", reliable=False,
    )
    net.sim.run(until=5.0)
    assert seen == []  # overheard, not addressed
    assert device1.store.has_metadata(sample())  # but still cached


def test_left_device_ignores_traffic():
    net = make_net(line_positions(2))
    device = net.devices[1]
    device.leave()
    net.devices[0].discovery.issue_query(QuerySpec(), NullFilter())
    net.sim.run(until=10.0)
    assert len(device.discovery.lqt) == 0


def test_left_device_stops_answering():
    net = make_net(line_positions(2))
    net.devices[1].add_metadata(sample())
    net.devices[1].leave()
    net.topology.remove_node(1)
    consumer = net.devices[0]
    consumer.discovery.issue_query(QuerySpec(), NullFilter())
    net.sim.run(until=10.0)
    assert not consumer.store.has_metadata(sample())


def test_chunk_response_reaches_both_chunk_and_mdr_engines():
    """Device dispatch fans ChunkResponse to PDR and MDR relays."""
    net = make_net(line_positions(2))
    device = net.devices[0]
    chunk = make_item("m", "v", "x", size=1000).chunks()[0]
    response = ChunkResponse(
        message_id=next_message_id(),
        sender_id=1,
        receiver_ids=frozenset({0}),
        chunk=chunk,
    )
    net.devices[1].face.send(
        response, response.wire_size(), receivers=response.receiver_ids,
        kind="chunk_response", reliable=False,
    )
    net.sim.run(until=5.0)
    assert device.store.has_chunk(chunk.descriptor)
    # Both engines remember the response id (each keeps its own RR set).
    assert response.message_id in device.chunks.recent
    assert response.message_id in device.mdr.recent


def test_repr_mentions_id():
    net = make_net(line_positions(1))
    assert "id=0" in repr(net.devices[0])
