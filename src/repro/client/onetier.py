"""The one-tier access protocol (paper Section 3.1).

Document pointers live inside the index and are only valid for the cycle
that carries them, so the client must repeat the index search in **every**
cycle until its result set is complete:

1. initial probe;
2. per cycle: index search (selective walk root -> matches -> match
   subtrees, paying per distinct packet touched, exactly the "access
   packet P1 to answer q1" behaviour of Figure 5);
3. download the result documents the current cycle carries.

The first search also teaches the client its full result-ID set, so it
knows when it is done.
"""

from __future__ import annotations

from repro import obs
from repro.broadcast.program import BroadcastCycle, IndexScheme
from repro.client.protocol import AccessProtocol


class OneTierClient(AccessProtocol):
    """Client running the per-cycle one-tier index search."""

    scheme = IndexScheme.ONE_TIER
    protocol_name = "one-tier"

    def _consume(self, cycle: BroadcastCycle, probe_bytes: int) -> None:
        with obs.span("client.index_read"):
            lookup = self._lookup(cycle)
            index_bytes = cycle.index_lookup_bytes(lookup, self.scheme)
            if self.expected_doc_ids is None:
                self.expected_doc_ids = frozenset(lookup.doc_ids)
        with obs.span("client.doc_download"):
            doc_bytes = self._download_documents(cycle, set(self.expected_doc_ids))
        self.metrics.merge_cycle(probe=probe_bytes, index=index_bytes, docs=doc_bytes)
