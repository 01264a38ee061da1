"""Per-client delivery: the differential oracle for the audience.

Before :mod:`repro.sim.audience`, the simulator handed every aired cycle
to every client of every session admitted so far, satisfied or not,
through the client's own ``on_cycle``; then, under acknowledged
delivery, every session whose query the server still held acknowledged
what its two-tier client had received.  That loop is kept here, as it
was, as the semantic oracle: ``tests/sim/test_audience.py`` runs it
beside the audience and asserts identical records, programs and result
sets.  It is not used on any hot path.
"""

from __future__ import annotations

from typing import Type, TypeVar

from repro.broadcast.program import BroadcastCycle
from repro.sim.simulation import Simulation

S = TypeVar("S", bound=Simulation)


def per_client(base: Type[S]) -> Type[S]:
    """*base* with the per-client delivery loop in place of the audience."""

    class PerClient(base):  # type: ignore[valid-type, misc]
        def _deliver(self, cycle: BroadcastCycle) -> None:
            for session in self.sessions:
                for client in session.clients:
                    client.on_cycle(cycle)
            if self.server.acknowledged_delivery:
                for session in self.sessions:
                    if (
                        session.pending is not None
                        and not session.pending.is_satisfied
                        and session.two_tier.can_use(cycle)
                    ):
                        self.server.confirm_delivery(
                            session.pending,
                            session.two_tier.received_doc_ids,
                            cycle,
                        )

    PerClient.__name__ = f"PerClient{base.__name__}"
    return PerClient
