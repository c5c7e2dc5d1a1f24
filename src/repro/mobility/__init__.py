"""Mobility: campus observation traces and trace playback."""

from repro.mobility.campus import (
    CLASSROOMS,
    STUDENT_CENTER,
    CampusScenario,
    CampusTrace,
    generate_campus_trace,
)
from repro.mobility.model import AreaSpec, MobilityEvent, MobilityEventKind
from repro.mobility.trace import TracePlayer

__all__ = [
    "AreaSpec",
    "CLASSROOMS",
    "CampusScenario",
    "CampusTrace",
    "MobilityEvent",
    "MobilityEventKind",
    "STUDENT_CENTER",
    "TracePlayer",
    "generate_campus_trace",
]
