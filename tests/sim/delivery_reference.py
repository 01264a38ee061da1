"""Per-client delivery: the differential oracle for the audience.

Before :mod:`repro.sim.audience`, the simulator handed every aired cycle
to every client of every session admitted so far, satisfied or not,
through the client's own ``on_cycle``; then, under acknowledged
delivery, every session whose query the server still held acknowledged
what its two-tier client had received.  That loop is kept here as the
semantic oracle: ``tests/sim/test_audience.py`` runs it beside the
audience and asserts identical records, programs and result sets.  It
is not used on any hot path.

The simulator now acknowledges by receipt: only clients whose expected
or received set changed report, a row's sessions together.  The loop
below reports per client the same way (the chaos monitors read the
receipts), then asserts that the old every-session acknowledgement
would have changed nothing.
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
            receipts = []
            for session in self.sessions:
                for client in session.clients:
                    locked = client.expected_doc_ids
                    had = len(client.received_doc_ids)
                    client.on_cycle(cycle)
                    received = client.received_doc_ids
                    if client.expected_doc_ids is not locked or len(received) != had:
                        receipts.append(([client], received))
            if not self.server.acknowledged_delivery:
                return
            self._acknowledge(cycle, receipts)
            for session in self.sessions:
                pending = session.pending
                if (
                    pending is not None
                    and not pending.is_satisfied
                    and session.two_tier.can_use(cycle)
                ):
                    assert pending.remaining_doc_ids == (
                        set(pending.result_doc_ids)
                        - session.two_tier.received_doc_ids
                    )

    PerClient.__name__ = f"PerClient{base.__name__}"
    return PerClient
