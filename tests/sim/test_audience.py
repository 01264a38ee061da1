"""The audience against per-client delivery.

:class:`~repro.sim.simulation.Simulation` delivers each cycle to its
:class:`~repro.sim.audience.Audience`: first reads per client, then
rows joined doc-major and summed by Equation 1's prefix sums.
``delivery_reference.py`` keeps the per-client loop it replaced.  Both
run the same configuration, and every client record, every cycle's
``program_signature`` and every client's metrics, expected set and
received set must come out equal -- over drawn configurations (K, loss,
first-tier read mode, the naive baseline, the adaptive controller,
forced degraded builds, collection churn) and three scripted corner
cases.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace
from typing import FrozenSet, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.broadcast.program import program_signature
from repro.client.naive import NaiveClient
from repro.client.protocol import FirstTierRead
from repro.control import ControlConfig
from repro.faults import ChaosSimulation, FaultPlan
from repro.sim.audience import Audience
from repro.sim.config import SimulationConfig, small_setup
from repro.sim.simulation import Simulation, build_collection
from repro.sim.workload import ArrivalPlan
from repro.xmlkit.model import XMLDocument
from repro.xpath.parser import parse_query
from tests.sim.delivery_reference import per_client


def signed(base):
    """*base* recording each aired cycle's program signature and K, the
    most rows any one document had waiting on it before a cycle, and the
    single-channel cycles that found clients back from listening for
    themselves."""

    class Signed(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.signatures: List[str] = []
            self.channels: List[int] = []
            self.most_waiting = 0
            self.rejoins = 0

        def _record_cycle(self, cycle):
            self.signatures.append(program_signature(cycle))
            self.channels.append(cycle.num_data_channels)
            waiting = self.audience._waiting.values()
            self.most_waiting = max([self.most_waiting, *map(len, waiting)])
            if cycle.num_data_channels == 1 and any(
                client.metrics.cycles_listened for client in self.audience._own
            ):
                self.rejoins += 1
            super()._record_cycle(cycle)

    return Signed


@functools.lru_cache(maxsize=None)
def collection(document_count: int) -> Tuple[XMLDocument, ...]:
    return tuple(build_collection(small_setup(document_count=document_count)))


def run_pair(
    config: SimulationConfig,
    first_tier_read: FirstTierRead = FirstTierRead.SELECTIVE,
    overloaded: FrozenSet[int] = frozenset(),
    workload=None,
) -> Simulation:
    """Run *config* through the audience and through per-client
    delivery, assert the two agree, and return the audience's run."""
    base = Simulation if config.faults is None else ChaosSimulation
    documents = collection(config.document_count)
    runs = []
    for driver in (signed(base), signed(per_client(base))):
        sim = driver(config, documents=documents, first_tier_read=first_tier_read)
        if overloaded:
            sim.server.force_overload = lambda cycle: cycle in overloaded
        if workload is not None:
            sim.workload = workload()
        runs.append((sim, sim.run()))
    (sim, result), (reference, expected) = runs
    assert result.clients == expected.clients
    assert result.completed == expected.completed
    assert sim.signatures == reference.signatures
    assert len(sim.sessions) == len(reference.sessions)
    for session, twin in zip(sim.sessions, reference.sessions):
        assert len(session.clients) == len(twin.clients)
        for client, other in zip(session.clients, twin.clients):
            assert client.metrics == other.metrics
            assert client.expected_doc_ids == other.expected_doc_ids
            assert client.received_doc_ids == other.received_doc_ids
    return sim


@st.composite
def configs(draw) -> Tuple[SimulationConfig, FirstTierRead, FrozenSet[int]]:
    overrides = dict(
        document_count=40,
        query_seed=draw(st.integers(0, 10_000)),
        n_q=draw(st.integers(1, 10)),
        arrival_cycles=draw(st.integers(1, 3)),
        cycle_data_capacity=draw(st.sampled_from([4_000, 8_000, 20_000])),
        num_data_channels=draw(st.sampled_from([1, 2, 4])),
        loss_prob=draw(st.sampled_from([0.0, 0.01])),
        track_naive_baseline=draw(st.booleans()),
    )
    if draw(st.booleans()):
        overrides.update(
            num_data_channels=1,
            adaptive=True,
            control=ControlConfig(k_max=3, cooldown_cycles=1),
            scenario="flash",
            scenario_intensity=4.0,
        )
    if overrides["num_data_channels"] == 1 and draw(st.booleans()):
        # collection churn and uplink faults; the plan owns the channel
        uplink = draw(st.sampled_from([0.0, 0.2]))
        overrides["faults"] = FaultPlan(
            seed=draw(st.integers(0, 100)),
            fault_cycles=None,
            uplink_drop_prob=uplink,
            uplink_ack_drop_prob=uplink,
            erase_prob=overrides.pop("loss_prob"),
            doc_add_prob=0.4,
            doc_remove_prob=0.95,
            checksum=False,
        )
    read = draw(st.sampled_from(list(FirstTierRead)))
    overloaded = frozenset(draw(st.sets(st.integers(0, 8), max_size=3)))
    return small_setup(**overrides), read, overloaded


class TestAudienceMatchesPerClientDelivery:
    @settings(max_examples=30, deadline=None)
    @given(drawn=configs())
    def test_drawn_configs(self, drawn):
        config, read, overloaded = drawn
        run_pair(config, first_tier_read=read, overloaded=overloaded)

    def test_degraded_cycles_both_kinds(self):
        """A forced overload airs a stale PCI when the string set is
        unchanged (first reads defer) and the unpruned CI otherwise."""
        sim = run_pair(
            small_setup(document_count=40, n_q=6, arrival_cycles=3),
            overloaded=frozenset({1, 2, 4, 5}),
        )
        kinds = {record.degraded for record in sim.server.records}
        assert {"pci-stale", "ci-unpruned"} <= kinds

    def test_adaptive_k_moves_between_joined_and_per_client_cycles(
        self, monkeypatch
    ):
        """K grows under a burst and shrinks back while sessions still
        listen: rows are handed back to their clients, and those rejoin
        the table on the next single-channel cycle."""
        monkeypatch.setattr(
            "repro.control.controller.SHRINK_IDLE_FRAC", 0.05
        )  # shrink at the first idle padding
        sim = run_pair(
            small_setup(
                document_count=40,
                n_q=8,
                arrival_cycles=4,
                cycle_data_capacity=8_000,
                adaptive=True,
                control=ControlConfig(k_max=3, cooldown_cycles=1),
                scenario="flash",
                scenario_intensity=4.0,
            )
        )
        assert 1 in sim.channels and len(set(sim.channels)) > 1
        assert sim.rejoins >= 1

    def test_whole_result_set_aired_in_the_first_cycle(self):
        sim = run_pair(
            small_setup(
                document_count=40,
                n_q=6,
                arrival_cycles=1,
                cycle_data_capacity=500_000,
                track_naive_baseline=True,
            )
        )
        assert len(sim.server.records) == 1
        for session in sim.sessions:
            for client in session.clients:
                assert client.metrics.cycles_listened == 1

    def test_truncated_run_keeps_the_listeners_sums(self):
        sim = run_pair(
            small_setup(
                document_count=40,
                n_q=6,
                cycle_data_capacity=4_000,
                max_cycles=3,
                track_naive_baseline=True,
            )
        )
        assert any(
            client.metrics.cycles_listened > 1 and not client.satisfied
            for session in sim.sessions
            for client in session.clients
        )

    def test_mid_cycle_arrival(self):
        sim = run_pair(
            small_setup(document_count=40, n_q=4, arrival_cycles=3)
        )
        starts = {record.start_time for record in sim.server.records}
        assert any(s.plan.arrival_time not in starts for s in sim.sessions)

    def test_one_document_awaited_by_many_rows(self):
        """Three cohorts of one string, each first reading a different
        cycle, wait on the same documents."""
        sim = run_pair(
            small_setup(
                document_count=40,
                n_q=2,
                arrival_cycles=3,
                cycle_data_capacity=4_000,
                track_naive_baseline=True,
            ),
            workload=lambda: Scripted("//nitf", per_cycle=2, cycles=3),
        )
        assert sim.most_waiting >= 3
        assert len(sim.sessions) == 6


class Scripted:
    """Stands in for ``Simulation.workload``: *per_cycle* sessions of one
    query at the start of the run, then mid-span in the next cycles."""

    def __init__(self, text: str, per_cycle: int, cycles: int) -> None:
        self._query = parse_query(text)
        self._per_cycle = per_cycle
        self._cycles = cycles
        self._issued = 0

    @property
    def exhausted(self) -> bool:
        return self._issued >= self._cycles

    def initial_batch(self) -> List[ArrivalPlan]:
        return self._issue(0)

    def arrivals_during(self, start_time: int, end_time: int) -> List[ArrivalPlan]:
        return self._issue((start_time + end_time) // 2)

    def _issue(self, time: int) -> List[ArrivalPlan]:
        if self.exhausted:
            return []
        self._issued += 1
        return [ArrivalPlan(time, self._query)] * self._per_cycle


def aired(
    number: int, doc_ids: Tuple[int, ...], channels: int = 1
) -> SimpleNamespace:
    """A cycle airing 100-byte documents one after another."""
    return SimpleNamespace(
        cycle_number=number,
        start_time=1_000 * number,
        doc_ids=doc_ids,
        doc_offsets={doc: 100 * at for at, doc in enumerate(doc_ids)},
        doc_air_bytes={doc: 100 for doc in doc_ids},
        offset_list_air_bytes=0,
        num_data_channels=channels,
        degraded=None,
        layout=SimpleNamespace(packet_bytes=64),
    )


class TestRows:
    def test_one_string_different_expected_sets_keep_their_own_rows(self):
        """Two clients of one string, each with received {1} after the
        first cycle, still await different documents."""
        query = parse_query("//nitf")
        first, second = NaiveClient(query, 0, {1, 2}), NaiveClient(query, 0, {1, 3})
        audience = Audience()
        audience.admit([first])
        audience.admit([second])
        audience.deliver(aired(0, (1,)), lossless=True)
        audience.deliver(aired(1, (2,)), lossless=True)
        assert first.satisfied and not second.satisfied
        audience.deliver(aired(2, (3,)), lossless=True)
        assert second.received_doc_ids == {1, 3}
        assert second.metrics.completion_time == 2_100
        assert second.metrics.cycles_listened == 3

    def test_one_string_different_received_sets_keep_their_own_rows(self):
        """Two clients of one string that listened for themselves on a
        K = 2 cycle rejoin the table with different documents missing."""
        query = parse_query("//nitf")
        first = NaiveClient(query, 0, {1, 2, 3})
        second = NaiveClient(query, 0, {1, 2, 3})
        audience = Audience()
        audience.admit([first])
        audience.deliver(aired(0, (1,), channels=2), lossless=True)
        audience.admit([second])
        audience.deliver(aired(1, (2,), channels=2), lossless=True)
        audience.deliver(aired(2, (3,)), lossless=True)
        assert first.satisfied and second.received_doc_ids == {2, 3}
        audience.deliver(aired(3, (1,)), lossless=True)
        assert second.satisfied
        assert second.metrics.completion_time == 3_100

    def test_a_dropped_client_never_listens(self):
        """A session whose admission the server refused leaves the table."""
        query = parse_query("//nitf")
        kept, dropped = NaiveClient(query, 0, {1}), NaiveClient(query, 0, {1})
        audience = Audience()
        audience.admit([kept])
        audience.admit([dropped])
        audience.drop([dropped])
        audience.deliver(aired(0, (1,)), lossless=True)
        assert kept.satisfied
        assert dropped.metrics.cycles_listened == 0 and not dropped.received_doc_ids
