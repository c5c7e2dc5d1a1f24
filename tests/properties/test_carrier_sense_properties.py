"""Carrier sense must answer exactly like a scan of every transmission on
the air through ``Topology.within`` — under overlapping transmissions from
one sender, moves, leaves and re-joins during airtime, queries from absent
nodes, and clocks sitting exactly on an airtime end."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.medium import BroadcastMedium
from repro.net.message import Frame
from repro.net.topology import Topology
from repro.sim.simulator import Simulator

RADIO_RANGE = 25.0
CS_FACTOR = 2.0
NODES = range(8)

# Lattice points put pairs exactly on the sense-range boundary.
coord = st.one_of(
    st.sampled_from([0.0, 25.0, 50.0, 100.0]),
    st.floats(min_value=0.0, max_value=150.0, allow_nan=False),
)
# Long and short frames make one sender's later frame end before its first.
size = st.one_of(st.sampled_from([0, 20_000]), st.integers(min_value=0, max_value=20_000))
ops = st.lists(
    st.one_of(
        st.tuples(st.just("transmit"), st.sampled_from(NODES), size),
        st.tuples(st.just("move"), st.sampled_from(NODES), coord, coord),
        st.tuples(st.just("remove"), st.sampled_from(NODES)),
        st.tuples(st.just("add"), st.sampled_from(NODES), coord, coord),
        st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=0.03)),
        st.tuples(st.just("to_end"), st.integers(min_value=0, max_value=7)),
    ),
    max_size=80,
)


class ScanOracle:
    """Reference carrier sense: a scan of every on-air transmission, one
    ``within`` check per (querier, sender) pair, the sender always sensing
    itself."""

    def __init__(self, sim, topology):
        self.sim = sim
        self.topology = topology
        self.active = []  # (sender, end) per transmission

    def transmitted(self, sender, duration):
        self.active.append((sender, self.sim.now + duration))

    def _senses(self, node_id, sender):
        if node_id == sender:
            return True
        return self.topology.within(node_id, sender, RADIO_RANGE * CS_FACTOR)

    def on_air(self):
        now = self.sim.now
        return [(sender, end) for sender, end in self.active if end > now]

    def busy_until(self, node_id):
        latest = self.sim.now
        for sender, end in self.on_air():
            if self._senses(node_id, sender):
                latest = max(latest, end)
        return latest

    def channel_busy(self, node_id):
        return any(self._senses(node_id, sender) for sender, _ in self.on_air())

    def node_transmitting(self, node_id):
        return any(sender == node_id for sender, _ in self.on_air())


def check_all(medium, oracle):
    for node in NODES:
        assert medium.busy_until(node) == oracle.busy_until(node)
        assert medium.channel_busy(node) == oracle.channel_busy(node)
        assert medium.node_transmitting(node) == oracle.node_transmitting(node)


@given(st.lists(st.tuples(coord, coord), min_size=len(NODES), max_size=len(NODES)), ops)
@settings(max_examples=150, deadline=None)
def test_carrier_sense_matches_scan_oracle(placement, batch):
    sim = Simulator()
    topology = Topology(RADIO_RANGE)
    for node, position in zip(NODES, placement):
        topology.add_node(node, position)
    medium = BroadcastMedium(
        sim, topology, random.Random(0), carrier_sense_factor=CS_FACTOR
    )
    oracle = ScanOracle(sim, topology)
    check_all(medium, oracle)
    for op in batch:
        kind, *args = op
        if kind == "transmit":
            sender, nbytes = args
            duration = medium.transmit(Frame(sender=sender, payload=None, payload_size=nbytes))
            oracle.transmitted(sender, duration)
        elif kind == "move":
            node, x, y = args
            if node in topology:
                topology.move(node, (x, y))
        elif kind == "remove":
            if args[0] in topology:
                topology.remove_node(args[0])
        elif kind == "add":
            node, x, y = args
            if node not in topology:
                topology.add_node(node, (x, y))
        elif kind == "advance":
            sim.run(until=sim.now + args[0])
        else:
            # Land exactly on an airtime end, where ``end > now`` flips.
            ends = sorted(end for _, end in oracle.on_air())
            if ends:
                sim.run(until=ends[min(args[0], len(ends) - 1)])
        check_all(medium, oracle)
