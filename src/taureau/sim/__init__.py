"""Discrete-event simulation kernel: clock, events, processes, metrics."""

from taureau.sim.engine import Simulation
from taureau.sim.events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from taureau.sim.metrics import (
    Counter,
    Distribution,
    Gauge,
    Histogram,
    LabeledCounter,
    LabeledGauge,
    LabeledHistogram,
    MetricHandles,
    MetricRegistry,
    TimeSeries,
)
from taureau.sim.rng import RngRegistry, derive_seed

__all__ = [
    "Simulation",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "Counter",
    "Gauge",
    "Distribution",
    "Histogram",
    "LabeledCounter",
    "LabeledGauge",
    "LabeledHistogram",
    "TimeSeries",
    "MetricHandles",
    "MetricRegistry",
    "RngRegistry",
    "derive_seed",
]
