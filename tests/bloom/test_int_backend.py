"""The Bloom filter must match a probe-at-a-time bytearray reference bit
for bit, ``count`` must behave as an upper bound on distinct keys, and no
two filters may share a buffer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.bloom_filter import BloomFilter
from repro.bloom.hashing import indexes, probes
from repro.errors import ConfigurationError

keys = st.lists(st.binary(min_size=1, max_size=24), min_size=0, max_size=50)
geometry = st.tuples(
    st.integers(min_value=8, max_value=700),   # m_bits
    st.integers(min_value=1, max_value=6),     # k_hashes
    st.integers(min_value=0, max_value=9),     # seed
)


class ByteArrayReference:
    """A probe-at-a-time bytearray implementation, kept as an oracle."""

    def __init__(self, m_bits, k_hashes, seed):
        self.m_bits = m_bits
        self.k_hashes = k_hashes
        self.seed = seed
        self.bits = bytearray((m_bits + 7) // 8)
        self.count = 0

    def insert(self, key):
        changed = False
        for index in indexes(key, self.seed, self.k_hashes, self.m_bits):
            byte, bit = divmod(index, 8)
            if not self.bits[byte] >> bit & 1:
                self.bits[byte] |= 1 << bit
                changed = True
        if changed:
            self.count += 1
        return changed

    def __contains__(self, key):
        return all(
            self.bits[index // 8] >> (index % 8) & 1
            for index in indexes(key, self.seed, self.k_hashes, self.m_bits)
        )

    def union_update(self, other):
        for i, byte in enumerate(other.bits):
            self.bits[i] |= byte
        self.count += other.count


@given(geometry, keys, keys)
@settings(max_examples=80, deadline=None)
def test_matches_bytearray_reference(geom, inserted, probes):
    m_bits, k_hashes, seed = geom
    fast = BloomFilter(m_bits, k_hashes, seed=seed)
    reference = ByteArrayReference(m_bits, k_hashes, seed)
    for key in inserted:
        assert fast.insert(key) == reference.insert(key)
    assert fast.to_bytes() == bytes(reference.bits)
    assert fast.count == reference.count
    for key in inserted + probes:
        assert (key in fast) == (key in reference)
    # Wire size depends only on geometry, not the backing representation.
    assert fast.wire_size() == (m_bits + 7) // 8 + 6


@given(geometry, keys, keys)
@settings(max_examples=60, deadline=None)
def test_union_matches_bytearray_reference(geom, left_keys, right_keys):
    m_bits, k_hashes, seed = geom
    fast_left = BloomFilter(m_bits, k_hashes, seed=seed)
    fast_right = BloomFilter(m_bits, k_hashes, seed=seed)
    ref_left = ByteArrayReference(m_bits, k_hashes, seed)
    ref_right = ByteArrayReference(m_bits, k_hashes, seed)
    for key in left_keys:
        fast_left.insert(key)
        ref_left.insert(key)
    for key in right_keys:
        fast_right.insert(key)
        ref_right.insert(key)
    fast_left.union_update(fast_right)
    ref_left.union_update(ref_right)
    assert fast_left.to_bytes() == bytes(ref_left.bits)
    assert fast_left.count == ref_left.count
    for key in left_keys + right_keys:
        assert key in fast_left


@given(st.binary(min_size=1, max_size=24), geometry)
@settings(max_examples=60, deadline=None)
def test_probes_are_indexes(key, geom):
    m_bits, k_hashes, seed = geom
    expected = tuple(indexes(key, seed, k_hashes, m_bits))
    assert probes(key, seed, k_hashes, m_bits) == expected


# ----------------------------------------------------------------------
# count semantics (the misreporting bug)
# ----------------------------------------------------------------------
def test_duplicate_inserts_do_not_inflate_count():
    bloom = BloomFilter(256, 4, seed=1)
    for _ in range(10):
        bloom.insert(b"same-key")
    assert bloom.count == 1
    assert not bloom.insert(b"same-key")


def test_count_is_upper_bound_after_union():
    left = BloomFilter(256, 4, seed=1)
    right = BloomFilter(256, 4, seed=1)
    shared = [b"key-%d" % i for i in range(8)]
    for key in shared:
        left.insert(key)
        right.insert(key)
    right.insert(b"only-right")
    left.union_update(right)
    # 9 distinct keys; the bound may overshoot but never undershoot.
    assert left.count >= 9
    assert left.count == 8 + 9


def test_fp_estimate_tracks_actual_fill_not_count():
    """After a union of overlapping filters the count overshoots; the FP
    estimate must come from the real bit fill, not the count."""
    left = BloomFilter(512, 4, seed=2)
    right = BloomFilter(512, 4, seed=2)
    for i in range(40):
        key = b"shared-%d" % i
        left.insert(key)
        right.insert(key)
    before_bits = left.to_bytes()
    before_rate = left.estimated_false_positive_rate()
    left.union_update(right)
    # Identical bit arrays => identical FP probability, despite count
    # having roughly doubled.
    assert left.to_bytes() == before_bits
    assert left.estimated_false_positive_rate() == pytest.approx(before_rate)
    assert left.count > 40
    assert 0.0 <= left.estimated_false_positive_rate() <= 1.0
    assert left.fill_ratio() == pytest.approx(
        sum(bin(byte).count("1") for byte in left.to_bytes()) / 512
    )


def test_union_geometry_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        BloomFilter(256, 4, seed=1).union_update(BloomFilter(256, 4, seed=2))
    with pytest.raises(ConfigurationError):
        BloomFilter(256, 4, seed=1).union_update(BloomFilter(128, 4, seed=1))


def test_legacy_bits_view_round_trips():
    bloom = BloomFilter(64, 3, seed=5)
    bloom.insert(b"alpha")
    view = bloom._bits
    assert isinstance(view, bytearray)
    other = BloomFilter(64, 3, seed=5)
    other._bits = view
    assert other.to_bytes() == bloom.to_bytes()
    assert b"alpha" in other


def test_legacy_bits_setter_copies():
    bloom = BloomFilter(64, 3, seed=5)
    view = bytearray(8)
    bloom._bits = view
    bloom.insert(b"alpha")
    assert view == bytearray(8)


# ----------------------------------------------------------------------
# buffer aliasing: the bit array is mutable, so every path that builds
# one filter from another must copy it
# ----------------------------------------------------------------------
def test_insert_into_copy_leaves_original_unchanged():
    original = BloomFilter(256, 4, seed=1)
    original.insert(b"shared")
    before = original.to_bytes()
    clone = original.copy()
    clone.insert(b"only-clone")
    assert original.to_bytes() == before
    assert b"only-clone" not in original
    assert original.count == 1
    original.insert(b"only-original")
    assert b"only-original" not in clone


def test_trace_fields_source_is_not_aliased():
    source = BloomFilter(256, 4, seed=3)
    source.insert(b"x")
    before = source.to_bytes()
    rebuilt = BloomFilter.from_trace_fields(source.trace_fields())
    rebuilt.insert(b"y")
    assert source.to_bytes() == before
    assert b"y" not in source


def test_load_bytes_source_is_not_aliased():
    data = bytearray(BloomFilter(256, 4, seed=3).to_bytes())
    bloom = BloomFilter(256, 4, seed=3)
    bloom.load_bytes(data)
    bloom.insert(b"y")
    assert data == bytearray(32)
    after = bloom.to_bytes()
    data[0] = 0xFF
    assert bloom.to_bytes() == after


def test_load_bytes_rejects_wrong_length():
    with pytest.raises(ConfigurationError):
        BloomFilter(256, 4).load_bytes(bytes(31))


def test_union_operand_is_not_aliased():
    left = BloomFilter(256, 4, seed=1)
    right = BloomFilter(256, 4, seed=1)
    right.insert(b"right")
    right_before = right.to_bytes()
    left.union_update(right)
    left.insert(b"left-after-union")
    assert right.to_bytes() == right_before
    assert b"left-after-union" not in right
    right.insert(b"right-after-union")
    assert b"right-after-union" not in left
