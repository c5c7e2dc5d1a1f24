"""The multi-round discovery controller (§III-B-2, §VI-B-2).

The consumer makes two decisions:

* **When is the current round finished?**  Upon responses (and on a
  periodic check so silent rounds terminate), compute the ratio of
  responses received within the recent window ``T`` to all responses
  received since the round's query was sent.  The round is finished when
  the ratio is at most ``T_r`` — with the paper's best ``T_r = 0`` this
  means "no response for ``T`` seconds".
* **Start another round?**  If the proportion of *new* entries received in
  the finished round to all entries ever received exceeds ``T_d``; with
  the paper's best ``T_d = 0``, any new entry triggers another round, so
  discovery stops only after a round that found nothing new.

The paper's best combination is ``T = 1 s``, ``T_r = T_d = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import ConfigurationError
from repro.sim.process import PeriodicTask
from repro.sim.simulator import Simulator

#: Paper's best parameters (§VI-B-2).
DEFAULT_WINDOW_S = 1.0
DEFAULT_STOP_RATIO = 0.0
DEFAULT_CONTINUE_RATIO = 0.0


@dataclass(frozen=True)
class RoundConfig:
    """Controller knobs: ``T``, ``T_r``, ``T_d`` of §III-B-2."""

    window_s: float = DEFAULT_WINDOW_S
    stop_ratio: float = DEFAULT_STOP_RATIO
    continue_ratio: float = DEFAULT_CONTINUE_RATIO
    check_interval_s: float = 0.25
    max_rounds: Optional[int] = None

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ConfigurationError("window T must be positive")
        if not 0.0 <= self.stop_ratio < 1.0:
            raise ConfigurationError("T_r must be in [0, 1)")
        if not 0.0 <= self.continue_ratio < 1.0:
            raise ConfigurationError("T_d must be in [0, 1)")
        if self.check_interval_s <= 0:
            raise ConfigurationError("check interval must be positive")


class RoundController:
    """Round life-cycle driver; the owning session feeds it events."""

    def __init__(
        self,
        sim: Simulator,
        config: RoundConfig,
        on_round_end: Callable[[], None],
        node: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.on_round_end = on_round_end
        self.node = node
        self.round_index = 0
        self._round_start = 0.0
        self._arrivals: List[float] = []
        self._task = PeriodicTask(sim, config.check_interval_s, self._check)
        self._active = False
        self._duration_hist = sim.metrics.histogram(
            "rounds.duration_s", (0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0)
        )

    @property
    def active(self) -> bool:
        """Whether a round is currently running."""
        return self._active

    # ------------------------------------------------------------------
    def begin_round(self) -> int:
        """Start the next round; returns its 1-based index."""
        self.round_index += 1
        self._round_start = self.sim.now
        self._arrivals = []
        self._active = True
        if not self._task.running:
            self._task.start(self.config.check_interval_s)
        trace = self.sim.trace
        if trace.enabled:
            trace.emit(
                "round_begin",
                node=self.node,
                round=self.round_index,
                window=self.config.window_s,
            )
        recorder = self.sim.recorder
        if recorder is not None:
            recorder.on_round_boundary("round_begin", self.round_index)
        return self.round_index

    def record_response(self) -> None:
        """A response addressed to the consumer arrived."""
        if self._active:
            self._arrivals.append(self.sim.now)

    def stop(self) -> None:
        """Abort the controller (session finished or abandoned)."""
        self._active = False
        self._task.stop()

    # ------------------------------------------------------------------
    def should_start_new_round(self, new_in_round: int, total_received: int) -> bool:
        """The §III-B-2 continue rule, plus the max-round cap."""
        if (
            self.config.max_rounds is not None
            and self.round_index >= self.config.max_rounds
        ):
            return False
        if total_received <= 0:
            return False
        return new_in_round / total_received > self.config.continue_ratio

    # ------------------------------------------------------------------
    def _check(self) -> None:
        if not self._active:
            return
        now = self.sim.now
        if now - self._round_start < self.config.window_s:
            return
        total = len(self._arrivals)
        window_start = now - self.config.window_s
        in_window = sum(1 for t in self._arrivals if t > window_start)
        ratio = in_window / total if total else 0.0
        if ratio <= self.config.stop_ratio:
            self._active = False
            self._task.stop()
            duration = now - self._round_start
            self._duration_hist.observe(duration)
            trace = self.sim.trace
            if trace.enabled:
                trace.emit(
                    "round_end",
                    node=self.node,
                    round=self.round_index,
                    responses=total,
                    duration=duration,
                    window=self.config.window_s,
                )
            recorder = self.sim.recorder
            if recorder is not None:
                recorder.on_round_boundary("round_end", self.round_index)
            self.on_round_end()
