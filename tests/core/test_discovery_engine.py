"""Behavioural tests for the PDD engine (Algorithms 1 and 2)."""

from repro.bloom.bloom_filter import BloomFilter, NullFilter
from repro.core.messages import DiscoveryQuery, DiscoveryResponse
from repro.data.descriptor import make_descriptor
from repro.data.predicate import QuerySpec, eq

from tests.helpers import line_positions, make_net


def sample(i=0, data_type="nox"):
    return make_descriptor("env", data_type, time=float(i))


def spy_transmissions(net, kinds=None):
    log = []
    original = net.medium.transmit

    def spy(frame):
        if kinds is None or frame.kind in kinds:
            log.append(frame)
        return original(frame)

    net.medium.transmit = spy
    return log


def test_node_with_matching_data_responds():
    net = make_net(line_positions(2))
    producer = net.devices[1]
    producer.add_metadata(sample())
    consumer = net.devices[0]
    consumer.discovery.issue_query(QuerySpec(), NullFilter())
    net.sim.run(until=5.0)
    assert consumer.store.has_metadata(sample())


def test_duplicate_query_processed_once():
    net = make_net(line_positions(2))
    responses = spy_transmissions(net, kinds={"response"})
    net.devices[1].add_metadata(sample())
    query = net.devices[0].discovery.issue_query(QuerySpec(), NullFilter())
    net.sim.run(until=2.0)
    # Re-inject the same query (as a redundant flooded copy would be).
    net.devices[1].discovery.handle_query(query, addressed=True)
    net.sim.run(until=5.0)
    assert len(responses) == 1


def test_query_filters_by_spec():
    net = make_net(line_positions(2))
    net.devices[1].add_metadata(sample(0, "nox"))
    net.devices[1].add_metadata(sample(1, "pm25"))
    consumer = net.devices[0]
    consumer.discovery.issue_query(
        QuerySpec([eq("data_type", "nox")]), NullFilter()
    )
    net.sim.run(until=5.0)
    assert consumer.store.has_metadata(sample(0, "nox"))
    assert not consumer.store.has_metadata(sample(1, "pm25"))


def test_bloom_suppresses_already_received():
    net = make_net(line_positions(2))
    net.devices[1].add_metadata(sample(0))
    net.devices[1].add_metadata(sample(1))
    bloom = BloomFilter.for_capacity(100)
    bloom.insert(sample(0).stable_key())
    consumer = net.devices[0]
    responses = spy_transmissions(net, kinds={"response"})
    consumer.discovery.issue_query(QuerySpec(), bloom)
    net.sim.run(until=5.0)
    sent = [e for f in responses for e in f.payload.entries]
    assert sample(1) in sent
    assert sample(0) not in sent


def test_multi_hop_relay_over_line():
    """Entries three hops away reach the consumer via reverse paths."""
    net = make_net(line_positions(4))  # 0-1-2-3, 30 m apart, range 40
    net.devices[3].add_metadata(sample())
    consumer = net.devices[0]
    consumer.discovery.issue_query(QuerySpec(), NullFilter())
    net.sim.run(until=10.0)
    assert consumer.store.has_metadata(sample())


def test_relays_cache_entries_they_forward():
    net = make_net(line_positions(3))
    net.devices[2].add_metadata(sample())
    net.devices[0].discovery.issue_query(QuerySpec(), NullFilter())
    net.sim.run(until=10.0)
    assert net.devices[1].store.has_metadata(sample())


def test_overhearers_cache_but_do_not_relay():
    # Triangle: 0 and 2 both hear 1; 0 queries, 2 overhears the response
    # addressed to 0.  With redundancy detection on, node 1 rewrites the
    # forwarded query so node 2 (which cached the overheard entry) stays
    # silent.
    net = make_net({0: (0.0, 0.0), 1: (30.0, 0.0), 2: (30.0, 30.0)})
    net.devices[1].add_metadata(sample())
    responses = spy_transmissions(net, kinds={"response"})
    bloom = BloomFilter.for_capacity(50)
    net.devices[0].discovery.issue_query(QuerySpec(), bloom)
    net.sim.run(until=10.0)
    assert net.devices[2].store.has_metadata(sample())
    # Node 2 never transmitted a response of its own for this query:
    # the entry it overheard is already in the rewritten query's filter.
    assert all(f.sender != 2 for f in responses)


def test_en_route_rewriting_prevents_downstream_duplicates():
    """A relay that answered inserts its entries into the forwarded query's
    Bloom filter, so downstream holders of the same entry stay silent."""
    net = make_net(line_positions(3))
    shared = sample(7)
    net.devices[1].add_metadata(shared)
    net.devices[2].add_metadata(shared)  # duplicate copy further away
    responses = spy_transmissions(net, kinds={"response"})
    bloom = BloomFilter.for_capacity(100)
    net.devices[0].discovery.issue_query(QuerySpec(), bloom)
    net.sim.run(until=10.0)
    carried = [e for f in responses for e in f.payload.entries]
    assert carried.count(shared) == 1


def test_forwarded_filter_never_aliases_lqt_entry():
    """A relay forwards a copy of its LQT entry's filter: later inserts on
    either side must not write through to the other, nor to the filter
    the next hop lingers with."""
    net = make_net(line_positions(3))
    net.devices[1].add_metadata(sample(7))
    queries = spy_transmissions(net, kinds={"query"})
    issued = net.devices[0].discovery.issue_query(
        QuerySpec(), BloomFilter.for_capacity(100)
    )
    net.sim.run(until=2.0)
    # Retransmissions of the one forwarded query carry the same payload.
    (forwarded,) = {id(f.payload): f.payload for f in queries if f.sender == 1}.values()
    entry = net.devices[1].discovery.lqt.get(issued.message_id)
    downstream = net.devices[2].discovery.lqt.get(issued.message_id)
    assert sample(7).stable_key() in entry.bloom
    assert forwarded.bloom.to_bytes() == entry.bloom.to_bytes()
    entry_before = entry.bloom.to_bytes()
    downstream_before = downstream.bloom.to_bytes()
    forwarded.bloom.insert(b"forwarded-only")
    assert entry.bloom.to_bytes() == entry_before
    assert downstream.bloom.to_bytes() == downstream_before
    forwarded_before = forwarded.bloom.to_bytes()
    entry.bloom.insert(b"relay-only")
    assert forwarded.bloom.to_bytes() == forwarded_before
    assert downstream.bloom.to_bytes() == downstream_before
    assert issued.bloom.to_bytes() != entry.bloom.to_bytes()


def test_mixedcast_single_transmission_serves_two_consumers():
    """Two lingering queries at one relay: a passing response is forwarded
    as ONE message whose receiver list covers both upstreams (mixedcast)."""
    net = make_net(
        {0: (0.0, 0.0), 1: (30.0, 0.0), 2: (30.0, 30.0), 3: (60.0, 0.0)},
        radio_range=40.0,
    )
    relay = net.devices[1]
    entry = sample(1)
    # Both consumers' queries linger at the relay (driven directly so the
    # response passes while both are present — on the air the timing of
    # CSMA serialisation can interleave responses between the two floods).
    for origin in (0, 2):
        query = DiscoveryQuery(
            message_id=10_000 + origin,
            sender_id=origin,
            receiver_ids=None,
            spec=QuerySpec(),
            origin_id=origin,
            expires_at=30.0,
            bloom=BloomFilter.for_capacity(50),
        )
        relay.discovery.handle_query(query, addressed=True)
    responses = spy_transmissions(net, kinds={"response"})
    response = DiscoveryResponse(
        message_id=20_000,
        sender_id=3,
        receiver_ids=frozenset({1}),
        entries=(entry,),
    )
    relay.discovery.handle_response(response, addressed=True)
    net.sim.run(until=5.0)
    relayed = [f for f in responses if f.sender == 1 and entry in f.payload.entries]
    assert len(relayed) == 1
    assert relayed[0].receivers == frozenset({0, 2})
    # A second copy of the same entry is pruned for both consumers.
    second = DiscoveryResponse(
        message_id=20_001,
        sender_id=3,
        receiver_ids=frozenset({1}),
        entries=(entry,),
    )
    relay.discovery.handle_response(second, addressed=True)
    net.sim.run(until=10.0)
    assert len(relayed) == 1


def test_response_packing_splits_large_batches():
    net = make_net(line_positions(2))
    for i in range(200):  # ~30 B each, far beyond one 1400 B frame
        net.devices[1].add_metadata(sample(i))
    responses = spy_transmissions(net, kinds={"response"})
    net.devices[0].discovery.issue_query(QuerySpec(), NullFilter())
    net.sim.run(until=10.0)
    assert len(responses) > 1
    limit = net.devices[1].config.protocol.max_response_payload_bytes
    for frame in responses:
        entries_bytes = sum(e.wire_size() for e in frame.payload.entries)
        assert entries_bytes <= limit


def test_expired_query_not_forwarded():
    net = make_net(line_positions(3))
    queries = spy_transmissions(net, kinds={"query"})
    query = DiscoveryQuery(
        message_id=424242,
        sender_id=0,
        receiver_ids=None,
        spec=QuerySpec(),
        origin_id=0,
        expires_at=0.0,  # already expired on arrival
        bloom=NullFilter(),
    )
    net.devices[1].discovery.handle_query(query, addressed=True)
    net.sim.run(until=5.0)
    assert all(f.sender != 1 for f in queries)


def test_small_data_retrieval_returns_payloads():
    """want_payload queries return the items themselves (§IV intro)."""
    from repro.data.item import DataItem

    net = make_net(line_positions(3))
    item = DataItem(sample(3), size=500, chunk_size=1000)
    net.devices[2].add_item(item)
    consumer = net.devices[0]
    consumer.discovery.issue_query(QuerySpec(), NullFilter(), want_payload=True)
    net.sim.run(until=10.0)
    assert consumer.store.has_chunk(item.descriptor.chunk_descriptor(0))


def test_response_to_stale_response_id_dropped():
    net = make_net(line_positions(2))
    consumer = net.devices[0]
    d = sample()
    response = DiscoveryResponse(
        message_id=999,
        sender_id=1,
        receiver_ids=frozenset({0}),
        entries=(d,),
    )
    consumer.discovery.handle_response(response, addressed=True)
    assert consumer.store.has_metadata(d)
    consumer.store.remove_metadata(d)
    # The same response id again: RR lookup discards before caching.
    consumer.discovery.handle_response(response, addressed=True)
    assert not consumer.store.has_metadata(d)


def test_hop_count_increments_per_forward():
    query = DiscoveryQuery(
        message_id=1, sender_id=0, receiver_ids=None, bloom=NullFilter()
    )
    assert query.hop_count == 0
    fwd = query.rewritten(sender_id=1, receiver_ids=None)
    assert fwd.hop_count == 1
    assert fwd.rewritten(sender_id=2, receiver_ids=None).hop_count == 2


def test_unlimited_hops_reaches_everything():
    net = make_net(line_positions(5))
    far = sample(2)
    net.devices[4].add_metadata(far)
    consumer = net.devices[0]
    consumer.discovery.issue_query(QuerySpec(), NullFilter())
    net.sim.run(until=20.0)
    assert consumer.store.has_metadata(far)
