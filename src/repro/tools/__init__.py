"""Operational tooling around the library.

* :mod:`repro.tools.persist` -- save/load document collections and query
  workloads to disk, so experiments can run against externally curated
  data sets instead of freshly generated ones; also the per-shard
  write-ahead :class:`~repro.tools.persist.QueryJournal` behind the
  daemon's crash-resume path;
* :mod:`repro.tools.trace` -- export a broadcast run as a JSONL trace
  (one record per cycle, plus client summaries) and load it back for
  ``repro stats --trace``.
"""

from repro.tools.persist import (
    JournalEntry,
    JournalState,
    QueryJournal,
    load_collection,
    load_journal,
    load_workload,
    save_collection,
    save_workload,
)
from repro.tools.trace import export_trace, load_trace

__all__ = [
    "JournalEntry",
    "JournalState",
    "QueryJournal",
    "load_collection",
    "load_journal",
    "load_workload",
    "save_collection",
    "save_workload",
    "export_trace",
    "load_trace",
]
