"""A simplified DTD model driving random document generation.

The IBM XML Generator used by the paper consumes a DTD and emits random
documents conforming to it.  We re-implement the part of DTDs the
generator actually needs:

* an :class:`ElementDecl` per element type, whose content model is a
  *sequence* of :class:`Particle` objects;
* each particle names either a single child element or a *choice* between
  several, with a repetition cardinality (``ONE``, ``OPTIONAL``, ``STAR``,
  ``PLUS``);
* a ``has_text`` flag standing in for ``#PCDATA`` content.

Attribute lists are modelled as a simple name list per element; generated
attribute values are random tokens.  This captures everything that affects
the *structural path distribution* of the output documents, which is the
only property the paper's experiments depend on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple


class Repetition(enum.Enum):
    """Cardinality suffix of a DTD content particle."""

    ONE = ""  #: exactly one
    OPTIONAL = "?"  #: zero or one
    STAR = "*"  #: zero or more
    PLUS = "+"  #: one or more

    @property
    def min_count(self) -> int:
        return 1 if self in (Repetition.ONE, Repetition.PLUS) else 0

    @property
    def is_unbounded(self) -> bool:
        return self in (Repetition.STAR, Repetition.PLUS)


@dataclass(frozen=True)
class Particle:
    """One slot of a content model: a child element (or a choice of
    alternatives) with a repetition cardinality.

    ``alternatives`` with more than one entry models ``(a | b | c)``;
    a single entry models a plain child reference.
    """

    alternatives: Tuple[str, ...]
    repetition: Repetition = Repetition.ONE

    def __post_init__(self) -> None:
        if not self.alternatives:
            raise ValueError("a particle needs at least one alternative")

    @classmethod
    def one(cls, name: str) -> "Particle":
        return cls((name,), Repetition.ONE)

    @classmethod
    def optional(cls, name: str) -> "Particle":
        return cls((name,), Repetition.OPTIONAL)

    @classmethod
    def star(cls, name: str) -> "Particle":
        return cls((name,), Repetition.STAR)

    @classmethod
    def plus(cls, name: str) -> "Particle":
        return cls((name,), Repetition.PLUS)

    @classmethod
    def choice(cls, names: Iterable[str], repetition: Repetition = Repetition.ONE) -> "Particle":
        return cls(tuple(names), repetition)


@dataclass
class ElementDecl:
    """Declaration of one element type."""

    name: str
    particles: List[Particle] = field(default_factory=list)
    has_text: bool = False
    attribute_names: List[str] = field(default_factory=list)

    def child_names(self) -> Set[str]:
        names: Set[str] = set()
        for particle in self.particles:
            names.update(particle.alternatives)
        return names


class DTD:
    """A set of element declarations with a designated root element."""

    def __init__(self, root: str, declarations: Iterable[ElementDecl], name: str = "") -> None:
        self.name = name
        self.root = root
        self.declarations: Dict[str, ElementDecl] = {}
        for decl in declarations:
            if decl.name in self.declarations:
                raise ValueError(f"duplicate declaration for element {decl.name!r}")
            self.declarations[decl.name] = decl
        self.validate()

    def __getitem__(self, name: str) -> ElementDecl:
        return self.declarations[name]

    def __contains__(self, name: str) -> bool:
        return name in self.declarations

    def element_names(self) -> List[str]:
        return sorted(self.declarations)

    def validate(self) -> None:
        """Check that the root and every referenced child are declared."""
        if self.root not in self.declarations:
            raise ValueError(f"root element {self.root!r} is not declared")
        for decl in self.declarations.values():
            for child in decl.child_names():
                if child not in self.declarations:
                    raise ValueError(
                        f"element {decl.name!r} references undeclared child {child!r}"
                    )
