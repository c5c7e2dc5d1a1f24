"""The Bloom filter carried inside PDS queries (§III-B-2, §V-3).

The filter supports the operations the protocol needs:

* membership insert/test on arbitrary byte keys (descriptor stable keys),
* a *seed* identifying the hash family, varied per discovery round,
* in-place union (used when a node merges knowledge into a lingering
  query's cached filter),
* wire-size accounting for message-overhead metrics.

Bloom filters guarantee no false negatives; false positives occur at a
controlled rate.  Property tests in ``tests/bloom`` verify both.

The bit array is a ``bytearray``: bit ``i`` is byte ``i // 8`` bit
``i % 8``, which is exactly the wire layout of :meth:`BloomFilter.to_bytes`.
``copy`` clones the buffer and ``union_update`` ORs two buffers, so no two
filters ever share one.

A flooded query's filter is copied at every hop, and every hop tests its
whole store against it.  So the first ``copy`` gives the filter and its
copies a shared *root*: an immutable snapshot of the bits, and a memo from
key to the key's probes (:func:`repro.bloom.hashing.probes`) that are clear
*in the snapshot*.  Bits are only ever added (``insert``,
``union_update``), so every buffer of the lineage is a superset of the
snapshot, and insert and membership visit only the memoised clear probes:
a key the snapshot holds costs one dict lookup.

The memo is seeded at that first copy.  Until then a filter keeps the keys
inserted into it, and every probe of those keys is set in the snapshot, so
the copy maps each of them to ``()``: the consumer's own received keys are
never hashed again in the lineage.  ``load_bytes`` may clear bits, so it
drops the root and forgets the inserted keys.  The memo is the only one in
this package: it lives as long as the lineage's filters and no longer.
``tests/bloom`` proves all of this against a bytearray reference.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.bloom.hashing import probes
from repro.bloom.sizing import (
    DEFAULT_FALSE_POSITIVE_RATE,
    optimal_parameters,
)
from repro.errors import ConfigurationError


def _popcount(data: bytearray) -> int:
    return bin(int.from_bytes(data, "little")).count("1")


class BloomFilter:
    """A fixed-size Bloom filter over byte-string keys.

    ``count`` is an *upper bound on the number of distinct keys the filter
    holds*: inserting a key that already tests positive does not increment
    it (so duplicate inserts no longer inflate it), and an in-place union
    sums the two bounds (exact when the operands are disjoint, still an
    upper bound otherwise, since ``|A ∪ B| <= |A| + |B|``).
    """

    __slots__ = ("m_bits", "k_hashes", "seed", "_buf", "count", "_root", "_inserted")

    def __init__(self, m_bits: int, k_hashes: int, seed: int = 0) -> None:
        if m_bits <= 0:
            raise ConfigurationError(f"m_bits must be positive, got {m_bits}")
        if k_hashes <= 0:
            raise ConfigurationError(f"k_hashes must be positive, got {k_hashes}")
        self.m_bits = m_bits
        self.k_hashes = k_hashes
        self.seed = seed
        self._buf = bytearray((m_bits + 7) // 8)
        #: Upper bound on distinct keys inserted (see class docstring).
        self.count = 0
        #: ``(snapshot, {key: probes clear in snapshot})`` or None.
        self._root: Optional[tuple] = None
        #: Keys inserted while there is no root; seeds the root's memo.
        self._inserted: Optional[list] = []

    # ------------------------------------------------------------------
    @classmethod
    def for_capacity(
        cls,
        expected_elements: int,
        false_positive_rate: float = DEFAULT_FALSE_POSITIVE_RATE,
        seed: int = 0,
    ) -> "BloomFilter":
        """Build an optimally sized filter for the expected load."""
        m_bits, k_hashes = optimal_parameters(expected_elements, false_positive_rate)
        return cls(m_bits, k_hashes, seed)

    # ------------------------------------------------------------------
    def insert(self, key: bytes) -> bool:
        """Add ``key`` to the set.

        Returns:
            True if the filter changed (the key was not already present);
            only such inserts bump ``count``.
        """
        root = self._root
        if root is None:
            positions = probes(key, self.seed, self.k_hashes, self.m_bits)
            self._inserted.append(key)
        elif (positions := root[1].get(key)) is None:
            positions = self._clear_probes(key)
        buf = self._buf
        changed = False
        for index in positions:
            byte = index >> 3
            bit = 1 << (index & 7)
            if not buf[byte] & bit:
                buf[byte] |= bit
                changed = True
        if changed:
            self.count += 1
        return changed

    def __contains__(self, key: bytes) -> bool:
        root = self._root
        if root is None:
            positions = probes(key, self.seed, self.k_hashes, self.m_bits)
        elif (positions := root[1].get(key)) is None:
            positions = self._clear_probes(key)
        buf = self._buf
        for index in positions:
            if not buf[index >> 3] >> (index & 7) & 1:
                return False
        return True

    def _clear_probes(self, key: bytes) -> tuple:
        """Memoise the probes of ``key`` clear in the root's snapshot."""
        snapshot, memo = self._root
        memo[key] = clear = tuple(
            i
            for i in probes(key, self.seed, self.k_hashes, self.m_bits)
            if not snapshot[i >> 3] >> (i & 7) & 1
        )
        return clear

    def insert_all(self, keys: Iterable[bytes]) -> None:
        """Add every key in ``keys``."""
        for key in keys:
            self.insert(key)

    def union_update(self, other: "BloomFilter") -> None:
        """In-place union with a filter of identical geometry and seed.

        ``count`` becomes the sum of both bounds — an upper bound on the
        union's distinct keys, exact when the key sets are disjoint.

        Raises:
            ConfigurationError: on geometry/seed mismatch (the union of
                differently hashed filters is not meaningful).
        """
        if (
            other.m_bits != self.m_bits
            or other.k_hashes != self.k_hashes
            or other.seed != self.seed
        ):
            raise ConfigurationError("cannot union Bloom filters of different geometry")
        merged = int.from_bytes(self._buf, "little") | int.from_bytes(
            other._buf, "little"
        )
        self._buf[:] = merged.to_bytes(len(self._buf), "little")
        self.count += other.count

    def copy(self) -> "BloomFilter":
        """An independent copy sharing the root.

        The first copy makes the root, its memo seeded with every key
        inserted so far: all their probes are set in the snapshot.
        """
        if self._root is None:
            self._root = (bytes(self._buf), dict.fromkeys(self._inserted, ()))
            self._inserted = None
        clone = BloomFilter(self.m_bits, self.k_hashes, self.seed)
        clone._buf = bytearray(self._buf)
        clone.count = self.count
        clone._root = self._root
        clone._inserted = None
        return clone

    # ------------------------------------------------------------------
    # Serialization views
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The bit array as wire bytes (bit ``i`` → byte ``i//8`` bit ``i%8``)."""
        return bytes(self._buf)

    def load_bytes(self, data: bytes) -> None:
        """Restore the bit array from :meth:`to_bytes` output (copied, so
        the filter never aliases the caller's buffer); drops the root and
        forgets the keys inserted so far, since their bits may be gone.

        Raises:
            ConfigurationError: if ``data`` is not ``(m_bits + 7) // 8``
                bytes long.
        """
        if len(data) != len(self._buf):
            raise ConfigurationError(
                f"expected {len(self._buf)} filter bytes, got {len(data)}"
            )
        self._buf = bytearray(data)
        self._root = None
        self._inserted = []

    @property
    def _bits(self) -> bytearray:
        """Legacy ``bytearray`` view of the bit array (compatibility)."""
        return bytearray(self._buf)

    @_bits.setter
    def _bits(self, value) -> None:
        self.load_bytes(value)

    # ------------------------------------------------------------------
    def wire_size(self) -> int:
        """Serialized size in bytes: bit array + small fixed header."""
        return (self.m_bits + 7) // 8 + 6  # m(3B), k(1B), seed(2B) compact coding

    def trace_fields(self) -> dict:
        """JSON-safe snapshot (geometry + bit array) for trace events.

        The offline audit rebuilds the filter from these fields to test
        membership exactly — Bloom filters have no false negatives, so a
        key found *inside* a query's issued filter that still appears in a
        response is a certain redundancy violation.
        """
        return {
            "bloom_m": self.m_bits,
            "bloom_k": self.k_hashes,
            "bloom_seed": self.seed,
            "bloom_bits": self.to_bytes().hex(),
        }

    @classmethod
    def from_trace_fields(cls, fields: dict) -> "BloomFilter":
        """Rebuild a filter from :meth:`trace_fields` output."""
        bloom = cls(
            int(fields["bloom_m"]),
            int(fields["bloom_k"]),
            int(fields.get("bloom_seed", 0)),
        )
        bloom.load_bytes(bytes.fromhex(str(fields["bloom_bits"])))
        return bloom

    def estimated_false_positive_rate(self) -> float:
        """FP probability at the *actual* current fill.

        ``(set_bits / m) ** k`` — the chance an absent key's ``k`` probes
        all land on set bits.  Computed from the bit array itself, so it
        stays truthful after unions and duplicate inserts, where any
        count-based analytic estimate misreports.
        """
        return (_popcount(self._buf) / self.m_bits) ** self.k_hashes

    def fill_ratio(self) -> float:
        """Fraction of bits set (diagnostic)."""
        return _popcount(self._buf) / self.m_bits

    def __repr__(self) -> str:
        return (
            f"BloomFilter(m={self.m_bits}, k={self.k_hashes}, "
            f"seed={self.seed}, count={self.count})"
        )


class NullFilter:
    """A filter that contains nothing and ignores inserts.

    Used when redundancy detection is disabled (e.g. single-round PDD
    baselines) so protocol code can treat the filter uniformly.
    """

    seed = 0

    def insert(self, key: bytes) -> bool:
        """Ignore the key (the null set absorbs nothing)."""
        return False

    def insert_all(self, keys: Iterable[bytes]) -> None:  # noqa: D102
        pass

    def __contains__(self, key: bytes) -> bool:
        return False

    def copy(self) -> "NullFilter":  # noqa: D102
        return self

    def wire_size(self) -> int:  # noqa: D102
        return 0

    def trace_fields(self) -> dict:  # noqa: D102
        return {}


#: Capacity headroom for en-route insertions (§III-B-2): every node on a
#: flood path inserts the entries it just sent into the query's filter, so
#: the filter must be sized for more than the consumer's received set or
#: it overfills mid-path and false positives silently suppress responses.
DEFAULT_ENROUTE_HEADROOM = 600


def make_round_filter(
    received_keys: Iterable[bytes],
    round_index: int,
    false_positive_rate: float = DEFAULT_FALSE_POSITIVE_RATE,
    max_bits: Optional[int] = None,
    headroom: int = DEFAULT_ENROUTE_HEADROOM,
) -> BloomFilter:
    """Build the per-round query filter over already-received entries.

    The seed is the round index, so every round uses a different hash family
    (§V-3).  ``max_bits`` caps the filter size; with per-round seeds the
    residual false-positive probability still decays across rounds.
    ``headroom`` reserves capacity for the entries relay nodes will insert
    en-route (roughly one path's worth of responses).
    """
    keys = list(received_keys)
    m_bits, k_hashes = optimal_parameters(
        len(keys) + max(0, headroom), false_positive_rate
    )
    if max_bits is not None and m_bits > max_bits:
        m_bits = max_bits
        k_hashes = max(1, int(round(m_bits / max(1, len(keys) + headroom) * 0.693)))
    bloom = BloomFilter(m_bits, k_hashes, seed=round_index)
    bloom.insert_all(keys)
    return bloom
