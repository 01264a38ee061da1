"""YFilter-style query resolution, re-implemented from scratch.

The broadcast server must decide, for every pending XPath query, which
documents of the collection satisfy it.  The paper uses YFilter [Diao et
al., TODS 2003]; this package keeps its core, the shared-path NFA, and
runs it over DataGuide tries instead of SAX events:

* :mod:`repro.filtering.nfa` -- the shared-path NFA: one trie-shaped
  automaton for the whole query set, with ``*`` transitions and ``//``
  self-loop states; :func:`~repro.filtering.nfa.resolve_on_guide` walks
  it over a combined DataGuide once and returns every query's result
  documents;
* :mod:`repro.filtering.dfa` -- a lazily determinised DFA over the NFA,
  used by index pruning (paper Section 3.2 builds "a DFA ... based on the
  set of queries Q") and by the client index search;
* :mod:`repro.filtering.masks` -- what one index search records for a
  whole query set (per-row query masks) and each query's view of it
  (``LookupResult``, exported by :mod:`repro.index`).
"""

from repro.filtering.nfa import SharedPathNFA, resolve_on_guide
from repro.filtering.dfa import LazyQueryDFA

__all__ = [
    "SharedPathNFA",
    "resolve_on_guide",
    "LazyQueryDFA",
]
