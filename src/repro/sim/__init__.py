"""End-to-end simulation of the on-demand XML broadcast system.

* :mod:`repro.sim.engine` -- a small discrete-event engine (the usual
  SimPy role; SimPy is unavailable offline, so the calendar queue the
  simulator needs is implemented here);
* :mod:`repro.sim.config` -- simulation configuration, with the paper's
  Table 2 defaults;
* :mod:`repro.sim.workload` -- query arrival processes (N_Q arrivals per
  broadcast cycle, optional Zipf document skew);
* :mod:`repro.sim.simulation` -- the orchestrator: generates the
  collection and workload, drives the server cycle loop, feeds cycles to
  per-query client protocols and collects metrics;
* :mod:`repro.sim.results` -- the per-session record and the run's
  result (the per-cycle record is the server's
  :class:`~repro.broadcast.server.CycleRecord`).
"""

from repro.sim.engine import EventQueue
from repro.sim.config import SimulationConfig, paper_setup
from repro.sim.workload import ArrivalPlan, WorkloadBuilder
from repro.sim.simulation import Simulation, run_simulation
from repro.sim.results import ClientRecord, SimulationResult

__all__ = [
    "EventQueue",
    "SimulationConfig",
    "paper_setup",
    "ArrivalPlan",
    "WorkloadBuilder",
    "Simulation",
    "run_simulation",
    "ClientRecord",
    "SimulationResult",
]
