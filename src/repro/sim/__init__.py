"""Discrete-event simulation engine.

A small, dependency-free engine in the style of SimPy: simulated
processes are Python generators that ``yield`` events (timeouts, other
processes, resource requests) and are resumed by the
:class:`~repro.sim.core.Simulator` when those events fire.

The engine is the substrate for every timed component in the
reproduction: storage devices, network links, PFS servers, MPI ranks and
the S4D-Cache Rebuilder all run as processes on one simulator.

Public surface::

    sim = Simulator(seed=42)
    proc = sim.spawn(my_generator())
    sim.run()
"""

from .core import Simulator
from .events import AllOf, AnyOf, Event, Timeout
from .process import Process
from .resources import PriorityResource, Store
from .rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "PriorityResource",
    "Process",
    "RandomStreams",
    "Simulator",
    "Store",
    "Timeout",
]
