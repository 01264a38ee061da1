"""One digest over every client record of a run.

``expected.json`` pins only the two-tier means; this pins each record of
both protocols, so a change that moves one one-tier client's bytes (and
nothing a mean notices) still shows.  Tier-1 holds a mid-scale run with
it and CI the full-scale ``sim_static`` ledger round.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.sim.results import ClientRecord


def client_records_digest(clients: Iterable[ClientRecord]) -> str:
    """sha256 of the sorted per-record byte and cycle tuples, by ``repr``."""
    rows = sorted(
        (
            record.protocol,
            record.query_text,
            record.access_bytes,
            record.tuning_bytes,
            record.index_lookup_bytes,
            record.cycles_listened,
            record.result_doc_count,
        )
        for record in clients
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()
