"""A filter's probe memo belongs to its query lineage: nothing in
``repro.bloom`` keeps a key alive once the filters that saw it are gone,
and the lineage's first copy seeds the memo with exactly the keys
inserted since the bits were last loaded."""

import gc
import os
import sys

import pytest

from repro.bloom.bloom_filter import BloomFilter
from repro.bloom.hashing import probes


def test_dropped_lineage_releases_its_keys():
    key = b"lineage-" + os.urandom(8).hex().encode()  # a fresh object
    baseline = sys.getrefcount(key)
    bloom = BloomFilter(256, 4, seed=3)
    bloom.insert(key)
    child = bloom.copy()
    assert key in child
    assert key not in BloomFilter(256, 4, seed=5)  # probed, never inserted
    child.insert(key)
    del bloom, child
    gc.collect()
    assert sys.getrefcount(key) == baseline


def test_first_copy_maps_every_pre_copy_insert_to_no_probes():
    bloom = BloomFilter(64, 3, seed=2)
    keys = [b"a", b"b", b"c"]
    for key in keys + [b"a"]:
        bloom.insert(key)
    child = bloom.copy()
    snapshot, memo = bloom._root
    assert memo == dict.fromkeys(keys, ())
    assert all(key in child for key in keys)
    # Keys inserted after the first copy are memoised on demand instead,
    # and a second copy shares the root rather than seeding another.
    child.insert(b"late")
    assert bloom.copy()._root is child._root
    assert memo[b"late"] == tuple(
        i for i in probes(b"late", 2, 3, 64) if not snapshot[i >> 3] >> (i & 7) & 1
    )
    assert set(memo) == {b"a", b"b", b"c", b"late"}


@pytest.mark.parametrize("reload", ["load_bytes", "_bits"])
def test_reload_before_the_first_copy_seeds_nothing(reload):
    bloom = BloomFilter(64, 3, seed=2)
    bloom.insert(b"gone")
    if reload == "load_bytes":
        bloom.load_bytes(bytes(8))
    else:
        bloom._bits = bytearray(8)
    bloom.copy()
    assert bloom._root[1] == {}
    assert b"gone" not in bloom


@pytest.mark.parametrize("reload", ["load_bytes", "_bits"])
def test_inserts_after_a_reload_seed_the_next_root(reload):
    parent = BloomFilter(64, 3, seed=2)
    parent.insert(b"before")
    child = parent.copy()
    if reload == "load_bytes":
        child.load_bytes(bytes(8))
    else:
        child._bits = bytearray(8)
    child.insert(b"after")
    child.copy()
    assert child._root is not parent._root
    assert child._root[1] == {b"after": ()}
