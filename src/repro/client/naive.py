"""The no-index exhaustive client (paper Section 2.3 motivation).

Without an air index the client "is forced to exhaustively listen to the
wireless channel": it downloads the entire data segment of every cycle
and filters locally.  It never learns how many documents satisfy its
query, so in reality it could never stop; accounting charges it until the
moment its last result document has arrived, which is a strict *lower
bound* on its real cost -- and it already loses by an order of magnitude.

The expected result set is injected by the simulation (the client itself
can recognise matches locally but not completion).
"""

from __future__ import annotations

from typing import FrozenSet

from repro import obs
from repro.broadcast.program import BroadcastCycle
from repro.client.protocol import AccessProtocol
from repro.xpath.ast import XPathQuery


class NaiveClient(AccessProtocol):
    """Exhaustive listener used as the no-index baseline."""

    protocol_name = "naive"

    def __init__(
        self,
        query: XPathQuery,
        arrival_time: int,
        expected_doc_ids: FrozenSet[int],
    ) -> None:
        super().__init__(query, arrival_time)
        if not expected_doc_ids:
            raise ValueError("naive client needs the non-empty oracle result set")
        self.expected_doc_ids = frozenset(expected_doc_ids)

    def _consume(self, cycle: BroadcastCycle, probe_bytes: int) -> None:
        # Download the whole data segment; the index segments are skipped
        # only because the client has no use for them.
        with obs.span("client.doc_download"):
            wanted = set(self.expected_doc_ids)
            listened = sum(cycle.doc_air_bytes[doc_id] for doc_id in cycle.doc_ids)
            needed = self._download_documents(cycle, wanted)
        # _download_documents charged only the needed docs; add the rest of
        # the data segment the client could not skip.
        self.metrics.merge_cycle(probe=probe_bytes, docs=needed + (listened - needed))
