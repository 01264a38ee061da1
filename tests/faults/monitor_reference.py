"""The every-session sweep: the differential oracle for the chaos monitors.

Before the monitors checked by change, :class:`~repro.faults.chaos.
ChaosSimulation` re-resolved every unsatisfied session's query and walked
every client after every aired cycle, and counted the liveness window
from scans of every session.  That sweep is kept here, as it was, as the
semantic oracle: ``test_monitor_differential.py`` runs it beside the
incremental monitors and asserts that they raise in the same cycles with
the same message.  It is not used on any hot path.
"""

from __future__ import annotations

from typing import Optional, Type

from repro.faults.chaos import ChaosInvariantError, ChaosSimulation


class SweepMonitor:
    """The sweep over one simulation, with its own liveness count."""

    def __init__(self, sim: ChaosSimulation) -> None:
        self.sim = sim
        self.clean_cycles = 0

    def check(self) -> None:
        sim = self.sim
        cycle = sim._current_cycle
        assert cycle is not None
        unsatisfied = [s for s in sim.sessions if not s.satisfied]
        truths = sim.server.resolve_batch([s.plan.query for s in unsatisfied])
        for session, truth in zip(unsatisfied, truths):
            for client in session.clients:
                expected = client.expected_doc_ids
                if expected is None:
                    if client.received_doc_ids:
                        raise ChaosInvariantError(
                            f"safety violated at cycle {cycle.cycle_number}: "
                            f"client for {session.plan.query} recorded "
                            f"{sorted(client.received_doc_ids)} without an "
                            "index read"
                        )
                    continue
                if not expected <= truth:
                    raise ChaosInvariantError(
                        f"safety violated at cycle {cycle.cycle_number}: "
                        f"client for {session.plan.query} expects "
                        f"{sorted(expected - truth)} outside the true "
                        "result set"
                    )
                if not client.received_doc_ids <= expected:
                    raise ChaosInvariantError(
                        f"safety violated at cycle {cycle.cycle_number}: "
                        f"client for {session.plan.query} recorded "
                        f"{sorted(client.received_doc_ids - expected)} it "
                        "never asked for"
                    )

        faults_over = not sim.plan.active(cycle.cycle_number)
        uplink_drained = all(session.pending is not None for session in sim.sessions)
        if faults_over and uplink_drained and sim.workload.exhausted:
            self.clean_cycles += 1
            stuck = [s for s in sim.sessions if not s.satisfied]
            if stuck and self.clean_cycles > sim.liveness_grace:
                raise ChaosInvariantError(
                    f"liveness violated: {len(stuck)} session(s) still "
                    f"unsatisfied {self.clean_cycles} clean cycles after "
                    f"the fault window closed (first: {stuck[0].plan.query})"
                )
        else:
            self.clean_cycles = 0


def beside_sweep(base: Type[ChaosSimulation]) -> Type[ChaosSimulation]:
    """*base* running the sweep beside its own monitors every cycle and
    asserting that both raise, or neither, with the same message."""

    class Swept(base):  # type: ignore[valid-type, misc]
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.sweep = SweepMonitor(self)
            self.checks = 0

        def _check_invariants(self) -> None:
            self.checks += 1
            swept: Optional[ChaosInvariantError] = None
            try:
                self.sweep.check()
            except ChaosInvariantError as exc:
                swept = exc
            try:
                super()._check_invariants()
            except ChaosInvariantError as exc:
                assert swept is not None, f"only the monitor raised: {exc}"
                assert str(exc) == str(swept)
                raise
            assert swept is None, f"only the sweep raised: {swept}"

    Swept.__name__ = f"Swept{base.__name__}"
    return Swept
