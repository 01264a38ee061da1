"""Query model for the paper's XPath subset.

Queries are *anchored at the document root* and select elements whose full
root-to-element label path matches the pattern; a document satisfies a
query when it contains at least one such element (paper Section 2.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Set, Tuple, Union

from repro.xmlkit.model import LabelPath

#: The wildcard node test ``*``.
WILDCARD = "*"


class Axis(enum.Enum):
    """Location-step axis."""

    CHILD = "/"
    DESCENDANT = "//"


@dataclass(frozen=True)
class AttributePredicate:
    """``[@name]`` (existence) or ``[@name="value"]`` (equality)."""

    name: str
    value: "str | None" = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute predicate needs a name")

    def __str__(self) -> str:
        if self.value is None:
            return f"[@{self.name}]"
        return f'[@{self.name}="{self.value}"]'


@dataclass(frozen=True)
class PathPredicate:
    """``[b/c]`` -- a relative path that must exist under the element.

    The embedded steps are relative to the context element: a leading
    CHILD axis means a direct child, a leading DESCENDANT axis means any
    descendant (``[.//c]`` in full XPath syntax).
    """

    steps: Tuple["Step", ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("path predicate needs at least one step")
        for step in self.steps:
            if step.predicates:
                raise ValueError("nested predicates are not supported")

    def __str__(self) -> str:
        inner = "".join(str(step) for step in self.steps)
        # Relative rendering: "/b/c" -> "b/c", "//c" -> ".//c".
        if inner.startswith("//"):
            return f"[.{inner}]"
        return f"[{inner[1:]}]"


Predicate = Union[AttributePredicate, PathPredicate]


@dataclass(frozen=True)
class Step:
    """One location step: an axis, a node test and optional predicates.

    ``test`` is either an element label or :data:`WILDCARD`.  Predicates
    extend the paper's grammar (its experiments use none); they are
    supported by the evaluator and ``PendingIndex``, while the air
    index -- which is purely structural -- rejects them (see
    ``BroadcastServer.submit``).
    """

    axis: Axis
    test: str
    predicates: Tuple[Predicate, ...] = ()

    def __post_init__(self) -> None:
        if not self.test:
            raise ValueError("a step needs a non-empty node test")

    def test_matches(self, label: str) -> bool:
        """Does this step's node test accept the given element label?"""
        return self.test == WILDCARD or self.test == label

    def without_predicates(self) -> "Step":
        """The structural relaxation of this step."""
        if not self.predicates:
            return self
        return Step(self.axis, self.test)

    def __str__(self) -> str:
        suffix = "".join(str(predicate) for predicate in self.predicates)
        return f"{self.axis.value}{self.test}{suffix}"


@dataclass(frozen=True)
class XPathQuery:
    """An ordered sequence of location steps.

    Instances are hashable so they can key result-set dictionaries at the
    broadcast server.
    """

    steps: Tuple[Step, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a query needs at least one step")

    @classmethod
    def from_steps(cls, steps: Iterable[Step]) -> "XPathQuery":
        return cls(tuple(steps))

    @property
    def depth(self) -> int:
        """Number of location steps (the paper's query depth)."""
        return len(self.steps)

    def has_predicates(self) -> bool:
        return any(step.predicates for step in self.steps)

    def structural_relaxation(self) -> "XPathQuery":
        """The query with every predicate stripped.

        Its match set is a superset of the full query's;
        :class:`~repro.experiments.runner.PendingIndex` resolves it for the
        structure phase and verifies predicates on the candidates
        (YFilter's two-phase evaluation).
        """
        if not self.has_predicates():
            return self
        return XPathQuery.from_steps(step.without_predicates() for step in self.steps)

    def __str__(self) -> str:
        # The string is every cache's key for a query (resolution, DFA,
        # PCI, per-cycle lookups), so it is rendered once per instance.
        # Frozen dataclass: the memo goes in the instance dict, outside
        # the fields that ==, hash and repr read.
        text = self.__dict__.get("_text")
        if text is None:
            text = "".join(str(step) for step in self.steps)
            object.__setattr__(self, "_text", text)
        return text

    # ------------------------------------------------------------------
    # Direct matching
    # ------------------------------------------------------------------

    def matches_path(self, path: LabelPath) -> bool:
        """Does the full label path *path* match this query?

        The match is anchored at both ends: the first step starts at the
        document root and the last step must consume the final label.
        Implemented as a breadth-first walk over consumption positions;
        ``positions`` holds the set of path prefixes (by length) the steps
        so far can have consumed.
        """
        if self.has_predicates():
            raise ValueError(
                "matches_path is purely structural; strip predicates with "
                "structural_relaxation() or evaluate on a document"
            )
        positions: Set[int] = {0}
        for step in self.steps:
            next_positions: Set[int] = set()
            if step.axis is Axis.CHILD:
                for pos in positions:
                    if pos < len(path) and step.test_matches(path[pos]):
                        next_positions.add(pos + 1)
            else:
                # ``//`` may skip any number of intermediate labels.
                if positions:
                    lowest = min(positions)
                    for candidate in range(lowest, len(path)):
                        if step.test_matches(path[candidate]):
                            next_positions.add(candidate + 1)
            if not next_positions:
                return False
            positions = next_positions
        return len(path) in positions

    def matches_any_path(self, paths: Iterable[LabelPath]) -> bool:
        """Does at least one of *paths* match this query?"""
        return any(self.matches_path(path) for path in paths)
