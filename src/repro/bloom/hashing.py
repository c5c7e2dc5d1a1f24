"""Hash family for Bloom filters.

Uses the Kirsch–Mitzenmacher double-hashing construction: two independent
base hashes ``h1`` and ``h2`` combine as ``h1 + i*h2`` to simulate ``k``
independent hash functions.  The bases are seed-chained CRC32/Adler32
values (C-speed; these filters are consulted millions of times per
simulation run), where the *seed* selects the hash family — this is how
PDS varies hash functions across discovery rounds so Bloom-filter false
positives decay geometrically (§V-3).

Hot paths use :func:`probes`, the ``k`` probe positions of a key as one
tuple; :func:`indexes` is the one-probe-at-a-time reference, and the two
are definitionally identical.  Nothing here is memoised: a process-wide
cache would hold every key it ever saw for the life of the process, long
after the filters that probed it are gone.  Memos live in the filters
instead, one per query lineage, seeded at the lineage's first copy and
dropped with its last filter (:mod:`repro.bloom.bloom_filter`).
"""

from __future__ import annotations

import zlib
from typing import Iterator

#: Golden-ratio odd constants for seed dispersion.
_SEED_MIX_1 = 0x9E3779B1
_SEED_MIX_2 = 0x85EBCA77


def _base_hashes(data: bytes, seed: int) -> tuple:
    """Two seed-dependent 32-bit hashes of ``data``."""
    s1 = (seed * _SEED_MIX_1 + 1) & 0xFFFFFFFF
    s2 = (seed * _SEED_MIX_2 + 0x6B43A9B5) & 0xFFFFFFFF
    h1 = zlib.crc32(data, s1)
    # Adler32 of short uniform keys is weak on its own; fold in a second
    # CRC pass under the other seed for dispersion.
    h2 = (zlib.adler32(data, s2 | 1) ^ zlib.crc32(data, s2)) & 0xFFFFFFFF
    # h2 must be odd so strides never degenerate to zero.
    return h1, h2 | 1


def indexes(data: bytes, seed: int, k: int, m: int) -> Iterator[int]:
    """Yield the ``k`` bit positions of ``data`` in a filter of ``m`` bits."""
    h1, h2 = _base_hashes(data, seed)
    for i in range(k):
        yield (h1 + i * h2) % m


def probes(data: bytes, seed: int, k: int, m: int) -> tuple:
    """The ``k`` bit positions of ``data`` as a tuple.

    Exactly ``tuple(indexes(data, seed, k, m))``.
    """
    return tuple(indexes(data, seed, k, m))
