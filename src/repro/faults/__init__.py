"""Deterministic fault injection for the broadcast system.

:mod:`repro.faults.plan` defines seedable :class:`FaultPlan` values
covering the four injection points (unreliable uplink with
retry/backoff, downlink corruption/erasure behind per-packet checksums,
server overload driving the degraded-build ladder, and mid-cycle
collection mutations); :mod:`repro.faults.chaos` runs the simulation
under a plan with per-cycle safety and liveness monitors.
"""

from repro.faults.plan import (
    FaultChannelModel,
    FaultPlan,
    UplinkOutcome,
    default_fault_plan,
)
from repro.faults.chaos import ChaosInvariantError, ChaosSimulation

__all__ = [
    "ChaosInvariantError",
    "ChaosSimulation",
    "FaultChannelModel",
    "FaultPlan",
    "UplinkOutcome",
    "default_fault_plan",
]
