"""Shared fixtures for the whole test suite.

Collections are session-scoped: generating documents and their DataGuides
dominates test time otherwise.  Tests must never mutate fixture documents
(mutating tests build their own trees).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.broadcast.server import DocumentStore
from repro.xmlkit.generator import (
    GeneratorConfig,
    generate_collection,
    nasa_like_dtd,
    nitf_like_dtd,
)
from repro.xpath.generator import QueryGenerator, QueryWorkloadConfig

# Keep property tests snappy; invariants are also exercised at scale by
# the integration tests and benches.
settings.register_profile("repro", max_examples=50, deadline=None)
# CI runs derandomized so failures reproduce across reruns of the same
# commit, and prints the reproduction blob for local replay.
settings.register_profile(
    "ci", max_examples=50, deadline=None, derandomize=True, print_blob=True
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))


@pytest.fixture(scope="session")
def nitf_docs():
    """60 NITF-like documents (shared, read-only)."""
    return generate_collection(nitf_like_dtd(), 60, seed=101)


@pytest.fixture(scope="session")
def nasa_docs():
    """40 NASA-like documents (shared, read-only)."""
    return generate_collection(nasa_like_dtd(), 40, seed=202)


@pytest.fixture(scope="session")
def mixed_docs(nitf_docs, nasa_docs):
    """A mixed-root collection (exercises the virtual-root machinery)."""
    renumbered = []
    next_id = 0
    for doc in list(nitf_docs[:10]) + list(nasa_docs[:10]):
        clone = type(doc)(doc_id=next_id, root=doc.root, name=doc.name)
        renumbered.append(clone)
        next_id += 1
    return renumbered


@pytest.fixture(scope="session")
def nitf_store(nitf_docs):
    return DocumentStore(nitf_docs)


@pytest.fixture(scope="session")
def nitf_queries(nitf_docs):
    """40 queries over the NITF collection (P=0.1, D_Q=10)."""
    return QueryGenerator(
        nitf_docs, QueryWorkloadConfig(seed=303)
    ).generate_many(40)


@pytest.fixture
def compiles(monkeypatch):
    """Every query list handed to ``LazyQueryDFA.from_queries`` while the
    test runs, in call order (compiles are counted, never stubbed)."""
    from repro.filtering.dfa import LazyQueryDFA

    seen = []
    real = LazyQueryDFA.from_queries.__func__

    def counted(cls, queries):
        seen.append(list(queries))
        return real(cls, queries)

    monkeypatch.setattr(LazyQueryDFA, "from_queries", classmethod(counted))
    return seen
