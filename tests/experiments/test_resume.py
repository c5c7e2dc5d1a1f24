"""Kill-and-resume property tests for store-backed campaigns.

The headline guarantee: a campaign SIGKILLed mid-flight and then
resumed produces *byte-identical* results to an uninterrupted run, with
``cache_hits + executed == total`` accounting for how the work was
split.  The kill happens in a real subprocess (its own session, killed
via ``killpg`` so forked pool workers die too) — the trial function
lives at module level here so the subprocess and the resuming process
derive identical content addresses for every task.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.runner import run_sweep
from repro.experiments.store import CampaignStore, task_digest

POINTS = ({"base": 1}, {"base": 2})
SEEDS = (1, 2, 3)

_REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def slow_sweep_trial(point, seed):
    """Deterministic but slow enough to be caught mid-campaign."""
    time.sleep(0.4)
    return {"score": point["base"] * 100 + seed}


_CHILD_SCRIPT = """
import sys
from repro.experiments.runner import run_sweep
from tests.experiments.test_resume import POINTS, SEEDS, slow_sweep_trial

run_sweep(slow_sweep_trial, POINTS, seeds=SEEDS, jobs=2, store=sys.argv[1])
"""


def _shape(sweep):
    """The bit-comparable payload of a sweep (results + failures)."""
    return [
        (
            point.point,
            point.label,
            point.results,
            point.seeds,
            tuple((f.seed, f.kind) for f in point.failures),
        )
        for point in sweep
    ]


def _start_campaign(store_root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        (os.path.join(_REPO_ROOT, "src"), _REPO_ROOT)
    )
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD_SCRIPT, store_root],
        cwd=_REPO_ROOT,
        env=env,
        start_new_session=True,  # killpg reaches the pool workers too
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_for_entries(objects_dir, deadline_s=60.0):
    start = time.monotonic()
    while time.monotonic() - start < deadline_s:
        count = 0
        for dirpath, _dirnames, filenames in os.walk(objects_dir):
            count += sum(name.endswith(".json") for name in filenames)
        if count:
            return count
        time.sleep(0.05)
    return 0


def _kill_campaign(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # finished before the kill — resume is then all hits
    proc.wait(timeout=30)


@pytest.mark.skipif(
    not hasattr(os, "killpg"), reason="needs process groups"
)
def test_sigkill_then_resume_is_bit_identical(tmp_path):
    store_root = str(tmp_path / "store")
    proc = _start_campaign(store_root)
    try:
        landed = _wait_for_entries(os.path.join(store_root, "objects"))
        assert landed >= 1, "campaign produced no entries before kill"
    finally:
        _kill_campaign(proc)

    store = CampaignStore(store_root)
    resumed = run_sweep(
        slow_sweep_trial, POINTS, seeds=SEEDS, jobs=2, store=store
    )
    clean = run_sweep(slow_sweep_trial, POINTS, seeds=SEEDS, jobs=2)
    assert _shape(resumed) == _shape(clean)

    total = len(POINTS) * len(SEEDS)
    hits = sum(point.cache_hits for point in resumed)
    executed = sum(point.executed for point in resumed)
    assert hits + executed == total
    assert hits >= 1  # the killed campaign's work was not thrown away
    for point in clean:
        assert point.cache_hits is None  # store-less sweeps unchanged

    # A second resume touches nothing: everything is now cached.
    warm = run_sweep(
        slow_sweep_trial, POINTS, seeds=SEEDS, jobs=2, store=store
    )
    assert _shape(warm) == _shape(clean)
    assert sum(point.cache_hits for point in warm) == total
    assert sum(point.executed for point in warm) == 0


def test_corrupt_entry_recomputes_and_stays_identical(tmp_path):
    store = CampaignStore(str(tmp_path))
    first = run_sweep(
        slow_sweep_trial, POINTS, seeds=SEEDS, jobs=2, store=store
    )
    victim = task_digest(slow_sweep_trial, (POINTS[0], SEEDS[0]))
    with open(store._entry_path(victim), "w", encoding="utf-8") as handle:
        handle.write('{"store": 1, "half')  # torn write
    resumed = run_sweep(
        slow_sweep_trial, POINTS, seeds=SEEDS, jobs=2, store=store
    )
    assert _shape(resumed) == _shape(first)
    total = len(POINTS) * len(SEEDS)
    assert sum(point.cache_hits for point in resumed) == total - 1
    assert sum(point.executed for point in resumed) == 1
    assert store.corrupt_seen >= 1
    # The recomputed entry healed the store in place.
    assert store.get(victim) is not None
