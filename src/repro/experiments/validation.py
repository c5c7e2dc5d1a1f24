"""Cross-cutting invariant checks for running scenarios.

Debugging distributed protocols is mostly about noticing when global
invariants quietly break.  These checkers walk a scenario's state and
report violations; integration tests run them after end-to-end flows, and
they are handy interactively when extending the protocol.

All checks return a list of human-readable violation strings (empty =
healthy) rather than raising, so a test can assert emptiness and print
everything at once.
"""

from __future__ import annotations

from typing import List

from repro.data import attributes as attr
from repro.experiments.scenario import Scenario


def check_metadata_payload_consistency(scenario: Scenario) -> List[str]:
    """Every stored chunk must be advertised by live metadata (§II-C)."""
    violations = []
    for node_id, device in scenario.devices.items():
        store = device.store
        for chunk in list(store.match_chunks(_all())):
            if not store.has_metadata(chunk.item_descriptor):
                violations.append(
                    f"node {node_id}: chunk {chunk.descriptor!r} stored but "
                    "its item metadata is missing"
                )
    return violations


def check_cdi_hop_soundness(scenario: Scenario, item) -> List[str]:
    """CDI hop counts may be stale but never wildly invalid.

    A CDI entry's neighbor must have been a known node, and hop counts
    must be non-negative and bounded by the network size.  Reads through
    :meth:`CdiTable.live_entries`, so checking never purges a table.
    """
    violations = []
    bound = max(1, len(scenario.devices))
    item = item.item_descriptor()
    for node_id, device in scenario.devices.items():
        for entry_item, chunk_id, entries in device.cdi_table.live_entries():
            if entry_item != item:
                continue
            for entry in entries:
                if entry.hop_count < 0 or entry.hop_count > bound:
                    violations.append(
                        f"node {node_id}: chunk {chunk_id} hop count "
                        f"{entry.hop_count} outside [0, {bound}]"
                    )
                if entry.neighbor == node_id:
                    violations.append(
                        f"node {node_id}: CDI entry points at itself"
                    )
    return violations


def check_store_chunk_ids_valid(scenario: Scenario) -> List[str]:
    """Chunk ids must be consistent with their item's declared count."""
    violations = []
    for node_id, device in scenario.devices.items():
        for chunk in device.store.match_chunks(_all()):
            declared = chunk.item_descriptor.get(attr.TOTAL_CHUNKS)
            if declared is not None and chunk.chunk_id >= int(declared):
                violations.append(
                    f"node {node_id}: chunk id {chunk.chunk_id} >= declared "
                    f"total {declared} for {chunk.item_descriptor!r}"
                )
    return violations


def check_queue_hygiene(scenario: Scenario) -> List[str]:
    """At quiescence no node should hold leftover queued traffic."""
    violations = []
    for node_id, device in scenario.devices.items():
        face = device.face
        if face.bucket.queue_length:
            violations.append(
                f"node {node_id}: {face.bucket.queue_length} frames stuck "
                "in the leaky bucket"
            )
        if face.radio.queue_length:
            violations.append(
                f"node {node_id}: {face.radio.queue_length} frames stuck "
                "in the OS buffer"
            )
        if face.sender.outstanding:
            violations.append(
                f"node {node_id}: {face.sender.outstanding} frames still "
                "awaiting acks"
            )
    return violations


def check_all(scenario: Scenario, item=None) -> List[str]:
    """Run every applicable checker."""
    violations = []
    violations += check_metadata_payload_consistency(scenario)
    violations += check_store_chunk_ids_valid(scenario)
    if item is not None:
        violations += check_cdi_hop_soundness(scenario, item)
    return violations


def _all():
    from repro.data.predicate import QuerySpec

    return QuerySpec()
