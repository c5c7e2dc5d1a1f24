"""Counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` is a named bag of instruments.  Every simulator
owns one (``sim.metrics``); :class:`repro.net.stats.NetworkStats` registers
its frame counters there, the medium feeds size/latency histograms, and the
round controller records round durations — so one ``registry.render()``
shows the whole run.

Instruments are deliberately primitive: plain attribute arithmetic, no
locks, no labels, no export dependencies.  Getter methods are idempotent
(``registry.counter("x")`` twice returns the same object), which lets
independent layers share instruments by name.

:meth:`MetricsRegistry.merge_snapshot` folds a :meth:`snapshot` dict —
e.g. one returned by a worker process — into a live registry; that is
how :class:`repro.obs.kernelprof.KernelProfiler` merges the registries of
every simulator of a ``--metrics`` campaign into one view, in-process or
across ``run_sweep(jobs=N)`` workers.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError

#: Default histogram bucket upper bounds (generic positive magnitudes).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.01,
    0.1,
    1.0,
    10.0,
    100.0,
    1_000.0,
    10_000.0,
)


class Counter:
    """A monotonically *usable* counter (direct assignment allowed)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        """Zero the counter in place (holders keep a valid reference)."""
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A sampled value that remembers its extremes.

    When callers pass the current (sim) time to :meth:`set`, the gauge
    also integrates the area under its step curve, so the snapshot can
    report a *time-weighted mean* — for a queue-depth gauge that is the
    average depth over the run, where the unweighted last value only says
    where the queue happened to sit when the run stopped.
    """

    __slots__ = (
        "name",
        "value",
        "max_value",
        "min_value",
        "samples",
        "timed_samples",
        "area",
        "elapsed",
        "_last_set_t",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self.max_value: float = 0.0
        self.min_value: float = 0.0
        self.samples: int = 0
        #: How many samples carried a time stamp.  ``twm`` is only an
        #: honest summary when EVERY sample was timed (the integral then
        #: covers the gauge's whole history); render/report paths check
        #: ``timed_samples == samples`` before showing it.
        self.timed_samples: int = 0
        #: Integral of value over time (only grows when ``now`` is given).
        self.area: float = 0.0
        #: Total time covered by the integral.
        self.elapsed: float = 0.0
        self._last_set_t: Optional[float] = None

    def set(self, value: float, now: Optional[float] = None) -> None:
        if self.samples == 0:
            self.max_value = value
            self.min_value = value
        else:
            if value > self.max_value:
                self.max_value = value
            if value < self.min_value:
                self.min_value = value
        if now is not None:
            if self._last_set_t is not None and now > self._last_set_t:
                # The *previous* value held from the last set until now.
                span = now - self._last_set_t
                self.area += self.value * span
                self.elapsed += span
            self._last_set_t = now
            self.timed_samples += 1
        self.value = value
        self.samples += 1

    def time_weighted_mean(self) -> float:
        """Area under the step curve / covered time (0 when untimed)."""
        return self.area / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def twm_valid(self) -> bool:
        """Whether ``time_weighted_mean`` covers every recorded sample.

        False for a never-timed gauge, and — the merge edge case — for a
        gauge whose own samples were untimed but which absorbed a timed
        snapshot via ``merge_snapshot``: its ``elapsed`` is positive, yet
        the integral says nothing about the local untimed samples, so
        reporting its twm would mislead.
        """
        return self.elapsed > 0 and self.timed_samples == self.samples

    def reset(self) -> None:
        """Forget all samples in place (holders keep a valid reference)."""
        self.value = 0.0
        self.max_value = 0.0
        self.min_value = 0.0
        self.samples = 0
        self.timed_samples = 0
        self.area = 0.0
        self.elapsed = 0.0
        self._last_set_t = None

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value}, max={self.max_value})"


class Histogram:
    """Fixed upper-bound buckets plus sum/count/extremes.

    ``buckets`` are inclusive upper bounds; one implicit overflow bucket
    catches everything above the last bound.
    """

    __slots__ = ("name", "buckets", "counts", "total", "count", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if not buckets:
            raise ConfigurationError(f"histogram {name!r} needs at least one bucket")
        ordered = tuple(sorted(buckets))
        if len(set(ordered)) != len(ordered):
            raise ConfigurationError(f"histogram {name!r} has duplicate buckets")
        self.name = name
        self.buckets = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.total: float = 0.0
        self.count: int = 0
        self.min: float = 0.0
        self.max: float = 0.0

    def observe(self, value: float) -> None:
        if self.count == 0:
            self.min = value
            self.max = value
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile (upper bound of the q-th bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index < len(self.buckets):
                    return self.buckets[index]
                return self.max
        return self.max

    def reset(self) -> None:
        """Empty the histogram in place (holders keep a valid reference)."""
        self.counts = [0] * (len(self.buckets) + 1)
        self.total = 0.0
        self.count = 0
        self.min = 0.0
        self.max = 0.0

    def bucket_counts(self) -> Dict[str, int]:
        """Cumulative-free per-bucket counts keyed by upper bound."""
        keyed = {f"le_{bound:g}": n for bound, n in zip(self.buckets, self.counts)}
        keyed["overflow"] = self.counts[-1]
        return keyed

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.4g})"


class MetricsRegistry:
    """Named instruments; getters create on first use and are idempotent."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(
                name, buckets if buckets is not None else DEFAULT_BUCKETS
            )
        return histogram

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every instrument *in place*.

        Instruments stay registered under their names and objects handed
        out earlier keep working — layers that cached a counter reference
        (e.g. :class:`repro.net.stats.NetworkStats`) keep recording into
        the same, now-zeroed, instrument.
        """
        for counter in self._counters.values():
            counter.reset()
        for gauge in self._gauges.values():
            gauge.reset()
        for histogram in self._histograms.values():
            histogram.reset()

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Nested plain-dict view of everything recorded so far."""
        return {
            "counters": {
                name: counter.value for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: {
                    "value": gauge.value,
                    "max": gauge.max_value,
                    "min": gauge.min_value,
                    "samples": gauge.samples,
                    "timed_samples": gauge.timed_samples,
                    "twm": gauge.time_weighted_mean(),
                    "area": gauge.area,
                    "elapsed": gauge.elapsed,
                }
                for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "count": hist.count,
                    "sum": hist.total,
                    "mean": hist.mean,
                    "min": hist.min,
                    "max": hist.max,
                    "p50": hist.quantile(0.5),
                    "p99": hist.quantile(0.99),
                    "buckets": hist.bucket_counts(),
                    "bounds": list(hist.buckets),
                }
                for name, hist in sorted(self._histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Fold a :meth:`snapshot` dict into this registry.

        Counters add; gauges merge their extremes (the merged-in last
        value wins as the current value); histograms add their per-bucket
        counts, which requires both sides to use the same bucket bounds.

        This is how worker processes report back to a parallel campaign:
        each worker snapshots its registries, the parent merges them.

        Raises:
            ConfigurationError: when a histogram in the snapshot uses
                bucket bounds different from the local instrument's.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, data in snapshot.get("gauges", {}).items():
            samples = int(data["samples"])
            if samples <= 0:
                continue
            gauge = self.gauge(name)
            if gauge.samples == 0:
                gauge.max_value = data["max"]
                gauge.min_value = data["min"]
            else:
                gauge.max_value = max(gauge.max_value, data["max"])
                gauge.min_value = min(gauge.min_value, data["min"])
            gauge.value = data["value"]
            gauge.samples += samples
            # Time-weighted accumulators add across processes.
            gauge.area += float(data["area"])
            gauge.elapsed += float(data["elapsed"])
            gauge.timed_samples += int(data["timed_samples"])
        for name, data in snapshot.get("histograms", {}).items():
            counts = [
                int(n) for n in data["buckets"].values()
            ]  # insertion order: bounds ascending, then overflow
            bounds = tuple(float(b) for b in data["bounds"])
            histogram = self.histogram(name, bounds)
            if histogram.buckets != bounds:
                raise ConfigurationError(
                    f"cannot merge histogram {name!r}: snapshot buckets "
                    f"{bounds} != local buckets {histogram.buckets}"
                )
            incoming = int(data["count"])
            if incoming == 0:
                continue
            if histogram.count == 0:
                histogram.min = data["min"]
                histogram.max = data["max"]
            else:
                histogram.min = min(histogram.min, data["min"])
                histogram.max = max(histogram.max, data["max"])
            for index, n in enumerate(counts):
                histogram.counts[index] += n
            histogram.total += data["sum"]
            histogram.count += incoming

    def render(self) -> str:
        """Human-readable multi-line summary (CLI ``--metrics``)."""
        lines: List[str] = []
        if self._counters:
            lines.append("counters:")
            for name, counter in sorted(self._counters.items()):
                lines.append(f"  {name:<36s} {counter.value}")
        if self._gauges:
            lines.append("gauges:")
            for name, gauge in sorted(self._gauges.items()):
                line = (
                    f"  {name:<36s} {gauge.value:g} (min {gauge.min_value:g}, "
                    f"max {gauge.max_value:g}"
                )
                if gauge.twm_valid:
                    line += f", twm {gauge.time_weighted_mean():g}"
                lines.append(line + ")")
        if self._histograms:
            lines.append("histograms:")
            for name, hist in sorted(self._histograms.items()):
                lines.append(
                    f"  {name:<36s} n={hist.count} mean={hist.mean:.4g} "
                    f"p50={hist.quantile(0.5):g} p99={hist.quantile(0.99):g} "
                    f"max={hist.max:g}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"
