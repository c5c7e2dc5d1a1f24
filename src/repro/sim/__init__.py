"""Discrete-event simulation kernel used by all PDS experiments."""

from repro.sim.event import DEFAULT_PRIORITY, Event, EventQueue
from repro.sim.process import PeriodicTask, Timer
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.simulator import Simulator

__all__ = [
    "DEFAULT_PRIORITY",
    "Event",
    "EventQueue",
    "PeriodicTask",
    "RngRegistry",
    "Simulator",
    "Timer",
    "derive_seed",
]
