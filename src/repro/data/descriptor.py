"""Data descriptors (metadata entries).

A :class:`DataDescriptor` is the self-describing identity of a data item or
chunk (§II-B).  Descriptors are immutable and hashable so they can be used
as data-store keys and inserted into Bloom filters.

Because they are immutable, a descriptor memoises what it derives on the
retrieval hot path: its parent item (:meth:`DataDescriptor.item_descriptor`),
its chunk descriptors (:meth:`DataDescriptor.chunk_descriptor`) and its
chunk id (:attr:`DataDescriptor.chunk_id`).  The
memos never enter equality, hashing, :meth:`~DataDescriptor.stable_key` or
:meth:`~DataDescriptor.wire_size`, and a descriptor pickles as its attribute
mapping alone, so caches, memos and the per-process string hash are rebuilt
on the receiving side.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.data import attributes as attr
from repro.data.attributes import AttributeValue, validate_value, wire_size
from repro.errors import DataModelError

#: ``_chunk_id`` before the first :attr:`DataDescriptor.chunk_id` read
#: (``None`` is a derived value: the descriptor names a whole item).
_UNSET: object = object()


class DataDescriptor:
    """An immutable set of named attributes identifying a datum.

    Two descriptors are equal iff they carry the same attribute mapping.
    """

    __slots__ = (
        "_attrs",
        "_hash",
        "_key_cache",
        "_wire_cache",
        "_item",
        "_chunks",
        "_chunk_id",
    )

    def __init__(self, attrs: Mapping[str, AttributeValue]) -> None:
        self._key_cache: Optional[bytes] = None
        self._wire_cache: Optional[int] = None
        # Derivation memos: the parent item (``self`` for an item), the
        # chunk descriptors handed out so far, by integer chunk id, and the
        # chunk id itself.
        self._item: Optional[DataDescriptor] = None
        self._chunks: Optional[Dict[int, DataDescriptor]] = None
        self._chunk_id: object = _UNSET
        if not attrs:
            raise DataModelError("a descriptor needs at least one attribute")
        validated = {}
        for name, value in attrs.items():
            if not isinstance(name, str) or not name:
                raise DataModelError(f"attribute names must be non-empty str, got {name!r}")
            validated[name] = validate_value(value)
        self._attrs: Tuple[Tuple[str, AttributeValue], ...] = tuple(
            sorted(validated.items())
        )
        self._hash = hash(self._attrs)

    # -- mapping-ish interface -----------------------------------------
    def get(self, name: str, default: Optional[AttributeValue] = None):
        """Return the value of attribute ``name`` or ``default``."""
        for key, value in self._attrs:
            if key == name:
                return value
        return default

    def __contains__(self, name: str) -> bool:
        return any(key == name for key, _ in self._attrs)

    def items(self) -> Iterable[Tuple[str, AttributeValue]]:
        """Iterate ``(name, value)`` pairs in sorted name order."""
        return iter(self._attrs)

    def names(self) -> Tuple[str, ...]:
        """All attribute names in sorted order."""
        return tuple(key for key, _ in self._attrs)

    def as_dict(self) -> dict:
        """A mutable copy of the attribute mapping."""
        return dict(self._attrs)

    # -- identity -------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataDescriptor):
            return NotImplemented
        return self._attrs == other._attrs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{key}={value!r}" for key, value in self._attrs)
        return f"DataDescriptor({inner})"

    def __reduce__(self):
        return (DataDescriptor, (dict(self._attrs),))

    # -- derivation ------------------------------------------------------
    def with_attributes(self, **extra: AttributeValue) -> "DataDescriptor":
        """A new descriptor with ``extra`` attributes added/overridden."""
        merged = self.as_dict()
        merged.update(extra)
        return DataDescriptor(merged)

    def without_attributes(self, *names: str) -> "DataDescriptor":
        """A new descriptor with the given attributes removed."""
        remaining = {k: v for k, v in self._attrs if k not in names}
        return DataDescriptor(remaining)

    def chunk_descriptor(self, chunk_id: int) -> "DataDescriptor":
        """The descriptor of chunk ``chunk_id`` of this item (§II-B).

        Memoised per integer id; any other value type (``1.0`` and ``True``
        equal ``1`` as dict keys but not as attributes) is derived afresh.
        """
        if type(chunk_id) is not int:
            return self.with_attributes(**{attr.CHUNK_ID: chunk_id})
        chunks = self._chunks
        if chunks is None:
            chunks = self._chunks = {}
        chunk = chunks.get(chunk_id)
        if chunk is None:
            chunk = self.with_attributes(**{attr.CHUNK_ID: chunk_id})
            chunk._item = self.item_descriptor()
            chunk._chunk_id = chunk_id
            chunks[chunk_id] = chunk
        return chunk

    def item_descriptor(self) -> "DataDescriptor":
        """Strip a chunk-id, recovering the parent item's descriptor (memoised)."""
        item = self._item
        if item is None:
            if attr.CHUNK_ID in self:
                item = self.without_attributes(attr.CHUNK_ID)
            else:
                item = self
            self._item = item
        return item

    @property
    def is_chunk(self) -> bool:
        """Whether this descriptor names a chunk of a larger item."""
        return attr.CHUNK_ID in self

    @property
    def chunk_id(self) -> Optional[int]:
        """The chunk id, or None for whole-item descriptors (memoised)."""
        value = self._chunk_id
        if value is _UNSET:
            value = self.get(attr.CHUNK_ID)
            value = self._chunk_id = int(value) if value is not None else None
        return value

    # -- accounting -------------------------------------------------------
    def wire_size(self) -> int:
        """Approximate serialized size of this descriptor in bytes (cached)."""
        if self._wire_cache is None:
            self._wire_cache = sum(
                wire_size(name, value) for name, value in self._attrs
            )
        return self._wire_cache

    def stable_key(self) -> bytes:
        """A canonical byte string for hashing into Bloom filters (cached)."""
        if self._key_cache is None:
            parts = []
            for name, value in self._attrs:
                parts.append(name)
                parts.append(type(value).__name__)
                parts.append(repr(value))
            self._key_cache = "\x1f".join(parts).encode("utf-8")
        return self._key_cache


def make_descriptor(
    namespace: str,
    data_type: str,
    **extra: AttributeValue,
) -> DataDescriptor:
    """Convenience constructor used by examples and workload generators."""
    base = {attr.NAMESPACE: namespace, attr.DATA_TYPE: data_type}
    base.update(extra)
    return DataDescriptor(base)
