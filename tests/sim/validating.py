"""A simulation that checks every cycle it airs.

Runs :func:`repro.broadcast.validate.validate_cycle` on each emitted
cycle before delivery, so a violated invariant fails the run at the
cycle that broke it.
"""

from __future__ import annotations

from repro.broadcast.validate import validate_cycle
from repro.sim.simulation import Simulation


class ValidatingSimulation(Simulation):
    def _record_cycle(self, cycle):
        validate_cycle(cycle, self.store)
        super()._record_cycle(cycle)
