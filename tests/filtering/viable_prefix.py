"""Reference oracle for :meth:`repro.filtering.dfa.LazyQueryDFA.is_live`.

The DFA answers "could this consumed path still be extended into a
match?" from its configuration; this oracle answers it from the query's
steps alone, so ``tests/filtering/test_dfa.py`` can check one against
the other.
"""

from __future__ import annotations

from typing import Set

from repro.xmlkit.model import LabelPath
from repro.xpath.ast import Axis, XPathQuery


def is_viable_prefix(query: XPathQuery, path: LabelPath) -> bool:
    """Could *path* be extended (by appending labels) into a match?

    With a trailing descendant step any consumed prefix remains viable;
    with child steps the remaining steps must still fit.
    """
    # Simulate consumption like matches_path but succeed as soon as the
    # whole path has been consumed with steps (possibly) remaining.
    positions: Set[int] = {0}
    for step in query.steps:
        if len(path) in positions:
            return True
        next_positions: Set[int] = set()
        if step.axis is Axis.CHILD:
            for pos in positions:
                if pos < len(path) and step.test_matches(path[pos]):
                    next_positions.add(pos + 1)
        else:
            # ``//`` keeps the door open: the step can match *beyond* the
            # current path end, which makes the whole path a viable prefix.
            return True
        if not next_positions:
            return False
        positions = next_positions
    return len(path) in positions
