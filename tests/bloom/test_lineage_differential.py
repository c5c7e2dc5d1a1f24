"""Filters descended by ``copy`` share a root (a snapshot of the bits and a
memo of each key's probes clear in it).  Random families of such filters,
driven through every mutating path, must match the bytearray reference
bit for bit: return values, ``count`` and ``to_bytes()``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.bloom_filter import BloomFilter
from tests.bloom.test_int_backend import ByteArrayReference

# A small key pool, so keys recur across copies, inserts and tests.
pool_keys = st.sampled_from([b"key-%d" % i for i in range(12)])
member = st.integers(min_value=0, max_value=15)  # index into the family
geometry = st.tuples(
    st.integers(min_value=8, max_value=96),    # m_bits (small: bits collide)
    st.integers(min_value=1, max_value=5),     # k_hashes
    st.integers(min_value=0, max_value=4),     # seed
)
payloads = st.sampled_from(["zeros", "ones", "half"])
operations = st.lists(
    st.one_of(
        st.tuples(st.just("new")),
        st.tuples(st.just("copy"), member),
        st.tuples(st.just("insert"), member, pool_keys),
        st.tuples(st.just("contains"), member, pool_keys),
        st.tuples(st.just("union"), member, member),
        # Loaded bytes may clear bits the lineage's snapshot holds.
        st.tuples(st.just("load"), member, payloads),
        st.tuples(st.just("bits"), member, payloads),
    ),
    min_size=20,
    max_size=80,
)


def _reference_copy(reference):
    clone = ByteArrayReference(reference.m_bits, reference.k_hashes, reference.seed)
    clone.bits = bytearray(reference.bits)
    clone.count = reference.count
    return clone


def _payload(kind, m_bits):
    n_bytes = (m_bits + 7) // 8
    if kind == "zeros":
        return bytes(n_bytes)
    if kind == "ones":
        return bytes([0xFF]) * n_bytes
    return bytes([0x55]) * n_bytes


@given(geometry, st.lists(pool_keys, max_size=6), operations)
@settings(max_examples=300, deadline=None)
def test_copy_lineages_match_bytearray_reference(geom, initial, ops):
    m_bits, k_hashes, seed = geom
    first = BloomFilter(m_bits, k_hashes, seed=seed)
    first_reference = ByteArrayReference(m_bits, k_hashes, seed)
    for key in initial:
        assert first.insert(key) == first_reference.insert(key)
    family = [(first, first_reference)]
    for op in ops:
        kind = op[0]
        if kind == "new":
            family.append(
                (
                    BloomFilter(m_bits, k_hashes, seed=seed),
                    ByteArrayReference(m_bits, k_hashes, seed),
                )
            )
            continue
        fast, reference = family[op[1] % len(family)]
        if kind == "copy":
            family.append((fast.copy(), _reference_copy(reference)))
        elif kind == "insert":
            assert fast.insert(op[2]) == reference.insert(op[2])
        elif kind == "contains":
            assert (op[2] in fast) == (op[2] in reference)
        elif kind == "union":
            other, other_reference = family[op[2] % len(family)]
            fast.union_update(other)
            reference.union_update(other_reference)
        elif kind == "load":
            fast.load_bytes(_payload(op[2], m_bits))
            reference.bits = bytearray(_payload(op[2], m_bits))
        else:
            fast._bits = bytearray(_payload(op[2], m_bits))
            reference.bits = bytearray(_payload(op[2], m_bits))
        for fast, reference in family:
            assert fast.to_bytes() == bytes(reference.bits)
            assert fast.count == reference.count
    for fast, reference in family:
        for i in range(12):
            key = b"key-%d" % i
            assert (key in fast) == (key in reference)


def test_copies_share_one_root_until_a_load():
    parent = BloomFilter(256, 4, seed=1)
    parent.insert(b"held")
    child = parent.copy()
    grandchild = child.copy()
    assert parent._root is child._root is grandchild._root
    snapshot = bytes(parent._root[0])
    parent.insert(b"parent-only")
    child.union_update(parent)
    # The snapshot is immutable: later bits land only in the live buffers.
    assert parent._root[0] == snapshot
    assert b"parent-only" not in grandchild
    grandchild.load_bytes(child.to_bytes())
    assert grandchild._root is None
    assert b"parent-only" in grandchild
