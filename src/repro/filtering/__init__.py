"""YFilter-style XML filtering engine, re-implemented from scratch.

The broadcast server must decide, for every pending XPath query, which
documents of the collection satisfy it.  The paper uses YFilter [Diao et
al., TODS 2003]; this package rebuilds its core:

* :mod:`repro.filtering.events` -- SAX-style event streams from documents;
* :mod:`repro.filtering.nfa` -- the shared-path NFA: one trie-shaped
  automaton for the whole query set, with ``*`` transitions and ``//``
  self-loop states;
* :mod:`repro.filtering.yfilter` -- event-driven execution with a runtime
  stack of active state sets, plus a fast path that filters a document via
  its distinct label paths (equivalent, and differential-tested);
* :mod:`repro.filtering.dfa` -- a lazily determinised DFA over the NFA,
  used by index pruning (paper Section 3.2 builds "a DFA ... based on the
  set of queries Q") and by the client index search;
* :mod:`repro.filtering.masks` -- what one index search records for a
  whole query set (per-row query masks) and each query's view of it
  (``LookupResult``, exported by :mod:`repro.index`).
"""

from repro.filtering.events import Event, EventKind, document_events
from repro.filtering.nfa import SharedPathNFA
from repro.filtering.yfilter import YFilterEngine, FilterResult
from repro.filtering.dfa import LazyQueryDFA

__all__ = [
    "Event",
    "EventKind",
    "document_events",
    "SharedPathNFA",
    "YFilterEngine",
    "FilterResult",
    "LazyQueryDFA",
]
