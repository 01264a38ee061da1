"""One resolution walk per arrival window.

``Simulation._schedule_arrivals`` resolves a whole window of arrivals in
one ``resolve_batch`` call; each admission later reads the server's
resolution cache.  Collection mutations may land between the two, so
every admission's result set must equal resolving that arrival alone at
its admission time -- with the delta-maintained cache, and with the
from-scratch server that drops the cache on every mutation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.sim.config import SimulationConfig
from repro.sim.simulation import Simulation
from repro.xmlkit.model import XMLDocument
from repro.xpath.evaluator import matching_documents
from tests.strategies import document_collections, queries, xml_elements


@pytest.mark.parametrize("enable_caches", [True, False])
@settings(max_examples=40, deadline=None)
@given(
    document_collections(min_docs=2, max_docs=5),
    st.lists(queries(max_steps=3), min_size=1, max_size=6),
    st.data(),
)
def test_window_resolution_equals_per_arrival(enable_caches, docs, window, data):
    server = BroadcastServer(DocumentStore(docs), enable_caches=enable_caches)
    server.resolve_batch(window)  # the window's one walk
    next_id = max(doc.doc_id for doc in docs) + 1
    for query in window:
        for _ in range(data.draw(st.integers(0, 2), label="mutations")):
            if data.draw(st.booleans(), label="add"):
                root = data.draw(xml_elements(max_depth=3), label="root")
                server.add_document(XMLDocument(next_id, root))
                next_id += 1
            elif len(server.store) > 1:
                live = sorted(server.store.by_id)
                server.remove_document(data.draw(st.sampled_from(live), label="victim"))
        admitted = server.resolve_batch([query])[0]
        assert admitted == matching_documents(query, server.store.documents)


def test_a_simulation_walks_at_most_once_per_window(monkeypatch):
    """Admissions hit the cache their window filled: a run makes no more
    guide walks than it schedules arrival windows."""
    from repro.broadcast import server as server_module

    walks, windows = [], []
    real_walk = server_module.resolve_on_guide
    real_schedule = Simulation._schedule_arrivals

    def walk(guide, batch):
        walks.append(len(batch))
        return real_walk(guide, batch)

    def schedule(self, plans):
        windows.append(len(plans))
        real_schedule(self, plans)

    monkeypatch.setattr(server_module, "resolve_on_guide", walk)
    monkeypatch.setattr(Simulation, "_schedule_arrivals", schedule)
    config = SimulationConfig(
        document_count=40, n_q=20, arrival_cycles=3, cycle_data_capacity=40_000
    )
    sim = Simulation(config)
    sim.run()
    assert sum(1 for size in windows if size) >= 2
    assert len(walks) <= sum(1 for size in windows if size)
    assert sum(walks) == sim.server.admission.resolved_query_strings
