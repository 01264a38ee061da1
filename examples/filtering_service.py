#!/usr/bin/env python3
"""The YFilter substrate as a standalone publish/subscribe service.

The broadcast server resolves queries internally, but the same resolver
is a complete XML filtering system in its own right (the paper's
reference [3]): every subscription compiled into one shared-path NFA,
run once over the feed's combined DataGuide, matches reported per
subscription and per document.

This example registers subscriptions -- including ones with the
predicate extension (``[@attr]``, ``[@attr="v"]``, ``[rel/path]``),
which resolve in two phases: the guide walk finds the candidates of
the structural relaxation, the evaluator checks predicates on each
candidate document -- and filters a DBLP-like bibliography feed.

Run:  python examples/filtering_service.py
"""

from __future__ import annotations

from repro import build_combined_guide, dblp_like_dtd, generate_collection, parse_query
from repro.filtering import resolve_on_guide
from repro.xpath.evaluator import evaluate_on_document


def main() -> None:
    # The "publisher": a feed of bibliography records.
    feed = generate_collection(dblp_like_dtd(), 120, seed=21)
    by_id = {document.doc_id: document for document in feed}
    print(f"feed: {len(feed)} documents\n")

    # The "subscribers": structural and predicated XPath subscriptions.
    subscriptions = [
        "/dblp/article",
        "/dblp/article/journal",
        "//booktitle",
        "/dblp/*/author",
        "/dblp/phdthesis/school",
        # Predicate extension: these go beyond the paper's grammar.
        "/dblp/article[volume]",
        "/dblp/inproceedings[crossref]/title",
        "/dblp/book[@key]",
        '/dblp/www[author]',
    ]
    queries = [parse_query(text) for text in subscriptions]
    print(f"compiled {len(queries)} subscriptions into one shared-path NFA\n")

    # Phase one: one walk of the feed's combined guide.  Phase two: the
    # predicated subscriptions keep the candidates the evaluator accepts.
    candidates = resolve_on_guide(
        build_combined_guide(feed), [query.structural_relaxation() for query in queries]
    )
    matches = [
        {doc_id for doc_id in docs if evaluate_on_document(query, by_id[doc_id])}
        if query.has_predicates()
        else docs
        for query, docs in zip(queries, candidates)
    ]
    print(f"{'subscription':42s} {'matches':>8}")
    print("-" * 52)
    for text, docs in zip(subscriptions, matches):
        print(f"{text:42s} {len(docs):>8}")

    # Per-document fan-out: which subscriptions does one record satisfy?
    sample = feed[0]
    matched = [text for text, docs in zip(subscriptions, matches) if sample.doc_id in docs]
    print(f"\ndocument {sample.doc_id} satisfies subscriptions: {matched}")


if __name__ == "__main__":
    main()
