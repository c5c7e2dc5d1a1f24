"""Data model: descriptors, predicates, items, chunks and the data store."""

from repro.data import attributes
from repro.data.attributes import AttributeValue
from repro.data.descriptor import DataDescriptor, make_descriptor
from repro.data.item import DEFAULT_CHUNK_SIZE, Chunk, DataItem, make_item
from repro.data.predicate import (
    Predicate,
    QuerySpec,
    Relation,
    between,
    eq,
    exists,
    ge,
    gt,
    is_in,
    le,
    lt,
    ne,
    prefix,
    within_radius,
)
from repro.data.store import DataStore

__all__ = [
    "AttributeValue",
    "Chunk",
    "DataDescriptor",
    "DataItem",
    "DataStore",
    "DEFAULT_CHUNK_SIZE",
    "Predicate",
    "QuerySpec",
    "Relation",
    "attributes",
    "between",
    "eq",
    "exists",
    "ge",
    "gt",
    "is_in",
    "le",
    "lt",
    "make_descriptor",
    "make_item",
    "ne",
    "prefix",
    "within_radius",
]
