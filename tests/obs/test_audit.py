"""The protocol anomaly analyzer: every invariant fires exactly when it should.

Each invariant gets a quiet case (clean stream) and a firing case (a
crafted stream with the violation injected).  The Bloom-redundancy check
is additionally exercised end-to-end: a real two-round discovery run with
an injected pruning bug (membership tests forced to miss) must trip
``redundant_metadata``, and the same run without the bug must not.
"""

import random

from repro.bloom.bloom_filter import BloomFilter
from repro.core.consumer import DiscoverySession
from repro.core.rounds import RoundConfig
from repro.data.descriptor import make_descriptor
from repro.obs.audit import (
    INVARIANTS,
    audit_events,
    render_report,
)
from repro.obs.trace import ListSink
from tests.helpers import clique_positions, make_net


def _ev(kind, t, run=1, shard="t.jsonl", **fields):
    event = {"t": t, "kind": kind, "run": run, "shard": shard}
    event.update(fields)
    return event


def _issued(t=1.0, query_id=10, proto="pdd", bloom=None, **fields):
    event = _ev("query_issued", t, query_id=query_id, proto=proto,
                consumer=1, round=1, expires_at=t + 30.0, **fields)
    if bloom is not None:
        event.update(bloom.trace_fields())
    return event


# ----------------------------------------------------------------------
# Clean stream
# ----------------------------------------------------------------------
def test_clean_stream_audits_ok():
    bloom = BloomFilter(256, 3, seed=1)
    bloom.insert(b"already-known")
    events = [
        _issued(bloom=bloom),
        _ev("query_forwarded", 1.2, query_id=10, node=3, expires_at=31.0),
        _ev("bloom_prune", 1.3, query_id=10, node=4, hits=1, misses=2),
        _ev("response_sent", 1.4, query_id=10, node=4, proto="pdd",
            keys=[b"fresh-key".hex()]),
        _ev("round_end", 4.0, node=1, round=1, duration=3.0, window=3.0),
        _ev("retransmit", 2.0, frame_id=7, node=3, retx=1),
    ]
    report = audit_events(events)
    assert report.ok
    assert report.counts() == {}
    assert report.queries_checked == 1
    assert report.responses_checked == 1
    assert report.rounds_checked == 1


# ----------------------------------------------------------------------
# unanswered_query
# ----------------------------------------------------------------------
def test_unanswered_query_fires_when_matches_never_answered():
    events = [
        _issued(),
        _ev("bloom_prune", 1.3, query_id=10, node=4, hits=0, misses=2),
    ]
    report = audit_events(events)
    assert report.counts() == {"unanswered_query": 1}
    violation = report.violations[0]
    assert violation.node == 4
    assert violation.query_id == 10


def test_unanswered_query_quiet_when_response_sent():
    events = [
        _issued(),
        _ev("bloom_prune", 1.3, query_id=10, node=4, hits=0, misses=2),
        _ev("response_sent", 1.4, query_id=10, node=4, proto="pdd", keys=[]),
    ]
    assert audit_events(events).ok


def test_unanswered_query_quiet_when_all_matches_covered():
    # hits only (misses == 0): pruning suppressed everything, by design.
    events = [
        _issued(),
        _ev("bloom_prune", 1.3, query_id=10, node=4, hits=3, misses=0),
    ]
    assert audit_events(events).ok


def test_unanswered_query_is_per_node():
    events = [
        _issued(),
        _ev("bloom_prune", 1.3, query_id=10, node=4, hits=0, misses=2),
        _ev("bloom_prune", 1.4, query_id=10, node=5, hits=0, misses=1),
        _ev("response_sent", 1.5, query_id=10, node=4, proto="pdd", keys=[]),
    ]
    report = audit_events(events)
    assert report.counts() == {"unanswered_query": 1}
    assert report.violations[0].node == 5


# ----------------------------------------------------------------------
# redundant_metadata
# ----------------------------------------------------------------------
def test_redundant_metadata_fires_for_covered_key():
    bloom = BloomFilter(256, 3, seed=2)
    bloom.insert(b"covered-key")
    events = [
        _issued(bloom=bloom),
        _ev("response_sent", 1.4, query_id=10, node=4, proto="pdd",
            keys=[b"covered-key".hex()]),
    ]
    report = audit_events(events)
    assert report.counts() == {"redundant_metadata": 1}
    assert "covered" in report.violations[0].detail


def test_redundant_metadata_quiet_for_fresh_keys():
    bloom = BloomFilter(256, 3, seed=2)
    bloom.insert(b"covered-key")
    events = [
        _issued(bloom=bloom),
        _ev("response_sent", 1.4, query_id=10, node=4, proto="pdd",
            keys=[b"some-other-key".hex()]),
    ]
    assert audit_events(events).ok


def test_redundant_metadata_scoped_per_shard():
    # The issued filter in shard A must not judge a response in shard B
    # that reuses the same (run, query_id) after a worker fork.
    bloom = BloomFilter(256, 3, seed=2)
    bloom.insert(b"covered-key")
    events = [
        _issued(bloom=bloom, shard="t.0.jsonl"),
        _ev("response_sent", 1.4, shard="t.1.jsonl", query_id=10, node=4,
            proto="pdd", keys=[b"covered-key".hex()]),
    ]
    assert audit_events(events).ok


def test_redundant_metadata_ignores_non_pdd_responses():
    bloom = BloomFilter(256, 3, seed=2)
    bloom.insert(b"covered-key")
    events = [
        _issued(bloom=bloom, proto="cdi"),
        _ev("response_sent", 1.4, query_id=10, node=4, proto="cdi",
            keys=[b"covered-key".hex()]),
    ]
    assert audit_events(events).ok


# ----------------------------------------------------------------------
# farther_copy
# ----------------------------------------------------------------------
_OPTIONS = {"0": [[1, 1], [2, 3]], "1": [[1, 1], [2, 3]]}


def test_farther_copy_fires_when_assignment_beats_nothing():
    # Both chunks from the 3-hop copy: max load 6 vs greedy baseline 2.
    events = [
        _ev("chunk_assignment", 2.0, node=1, query_id=20,
            options=_OPTIONS, assignment={"2": [0, 1]}),
    ]
    report = audit_events(events)
    assert report.counts() == {"farther_copy": 1}
    assert "baseline 2" in report.violations[0].detail


def test_farther_copy_quiet_for_greedy_optimal_assignment():
    events = [
        _ev("chunk_assignment", 2.0, node=1, query_id=20,
            options=_OPTIONS, assignment={"1": [0, 1]}),
    ]
    report = audit_events(events)
    assert report.ok
    assert report.assignments_checked == 1


def test_farther_copy_skips_unscorable_assignment():
    # A neighbor absent from the recorded options means the options were
    # truncated — the checker must refuse to guess rather than misfire.
    events = [
        _ev("chunk_assignment", 2.0, node=1, query_id=20,
            options={"0": [[1, 1]]}, assignment={"9": [0]}),
    ]
    report = audit_events(events)
    assert report.ok


# ----------------------------------------------------------------------
# lingering_past_expiry
# ----------------------------------------------------------------------
def test_lingering_past_expiry_fires_on_late_forward():
    events = [
        _issued(),
        _ev("query_forwarded", 31.5, query_id=10, node=3, expires_at=31.0),
    ]
    report = audit_events(events)
    assert report.counts() == {"lingering_past_expiry": 1}
    assert "past expiry" in report.violations[0].detail


def test_lingering_past_expiry_quiet_before_expiry():
    events = [
        _issued(),
        _ev("query_forwarded", 30.9, query_id=10, node=3, expires_at=31.0),
    ]
    assert audit_events(events).ok


# ----------------------------------------------------------------------
# retransmission_storm
# ----------------------------------------------------------------------
def test_retransmission_storm_fires_past_max():
    events = [
        _ev("retransmit", 1.0 + i, frame_id=7, node=3, retx=i + 1)
        for i in range(5)
    ]
    report = audit_events(events, max_retransmissions=4)
    assert report.counts() == {"retransmission_storm": 1}
    assert "5 times" in report.violations[0].detail


def test_retransmission_storm_quiet_at_max():
    events = [
        _ev("retransmit", 1.0 + i, frame_id=7, node=3, retx=i + 1)
        for i in range(4)
    ]
    assert audit_events(events, max_retransmissions=4).ok


def test_retransmission_storm_counts_per_frame():
    events = [
        _ev("retransmit", 1.0 + i, frame_id=i, node=3, retx=1)
        for i in range(10)
    ]
    assert audit_events(events, max_retransmissions=4).ok


# ----------------------------------------------------------------------
# early_round_stop
# ----------------------------------------------------------------------
def test_early_round_stop_fires_on_short_round():
    events = [
        _ev("round_end", 2.0, node=1, round=1, duration=1.9, window=3.0),
    ]
    report = audit_events(events)
    assert report.counts() == {"early_round_stop": 1}
    assert "stopped after" in report.violations[0].detail


def test_early_round_stop_quiet_for_full_window():
    events = [
        _ev("round_end", 4.0, node=1, round=1, duration=3.0, window=3.0),
        _ev("round_end", 9.0, node=1, round=2, duration=4.5, window=3.0),
    ]
    report = audit_events(events)
    assert report.ok
    assert report.rounds_checked == 2


# ----------------------------------------------------------------------
# Reporting surfaces
# ----------------------------------------------------------------------
def test_report_json_dict_and_extras():
    events = [
        _issued(),
        _ev("bloom_prune", 1.3, query_id=10, node=4, hits=0, misses=2),
    ]
    report = audit_events(events)
    doc = report.to_json_dict()
    assert doc["ok"] is False
    assert doc["counts"] == {"unanswered_query": 1}
    assert doc["violations"][0]["invariant"] == "unanswered_query"
    assert doc["violations"][0]["node"] == 4
    assert report.counts() == {"unanswered_query": 1}


def test_render_report_marks_failures():
    events = [
        _ev("round_end", 2.0, node=1, round=1, duration=1.0, window=3.0),
    ]
    text = render_report(audit_events(events))
    assert "1 violation(s)" in text
    assert "early_round_stop" in text
    for invariant in INVARIANTS:
        assert invariant in text
    assert "FAIL" in text
    assert "ok" in text


def test_render_report_caps_violation_lines():
    events = [
        _ev("round_end", 2.0 + i, node=1, round=i, duration=1.0, window=3.0)
        for i in range(30)
    ]
    text = render_report(audit_events(events), max_violations=5)
    assert "... 25 more violation(s)" in text


# ----------------------------------------------------------------------
# End-to-end: an injected Bloom-pruning bug is caught
# ----------------------------------------------------------------------
def _two_round_discovery(monkeypatch, break_pruning):
    """Run a real two-round discovery; optionally disable responder pruning.

    The injected bug makes every responder-side membership test miss, so
    round 2's responses re-send entries the consumer's issued filter
    already covers — exactly the redundancy §III-B-2 pruning suppresses.
    """
    net = make_net(clique_positions(3), seed=5)
    producer = net.devices[1]
    for i in range(4):
        producer.add_metadata(
            make_descriptor("env", "nox", time=float(i), sensor=f"s{i}")
        )
    if break_pruning:
        monkeypatch.setattr(BloomFilter, "__contains__", lambda self, key: False)
    sink = net.sim.trace.subscribe(ListSink())
    session = DiscoverySession(
        net.devices[0],
        round_config=RoundConfig(window_s=3.0, max_rounds=2, continue_ratio=0.0),
    )
    net.sim.schedule(0.0, session.start)
    net.sim.run(until=30.0)
    monkeypatch.undo()  # the offline audit needs real membership tests
    assert session.done
    return [e.to_json_dict() for e in sink.events]


def test_injected_bloom_pruning_bug_trips_redundant_metadata(monkeypatch):
    events = _two_round_discovery(monkeypatch, break_pruning=True)
    report = audit_events(events)
    assert report.responses_checked > 0
    assert "redundant_metadata" in report.counts()
    violation = next(
        v for v in report.violations if v.invariant == "redundant_metadata"
    )
    assert violation.node == 1


def test_healthy_discovery_run_audits_clean(monkeypatch):
    events = _two_round_discovery(monkeypatch, break_pruning=False)
    report = audit_events(events)
    assert report.responses_checked > 0
    assert report.ok, render_report(report)
