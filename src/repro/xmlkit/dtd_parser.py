"""Parser for real DTD files into the simplified DTD model.

The built-in DTDs are hand-written; this module lets users load an
actual ``.dtd`` file (e.g. the real NITF DTD) and drive the document
generator with it.  The standard library's expat reads the text as the
external subset of a stub document, with parameter entities expanded,
and reports each declaration:

* ``<!ELEMENT name (content-model)>`` with sequences ``(a, b?)``,
  choices ``(a | b)+``, nesting, ``#PCDATA`` (mixed content), ``EMPTY``
  and ``ANY``;
* ``<!ATTLIST name attr TYPE DEFAULT ...>`` (attribute names collected;
  types/defaults ignored -- generated values are synthetic anyway);
* ``<!ENTITY % name "text">`` parameter entities; an external one
  (``SYSTEM "file"``) is never fetched and expands to nothing.

Group nesting is capped at :data:`~repro.xmlkit.parser.MAX_DEPTH` in a
first pass over expat's token stream: expat hands a content model over
as nested tuples built by a C recursion, which a million levels turn
into a segfault, not an exception.

The target model (:class:`~repro.xmlkit.dtd.DTD`) is a *sequence of
choice-particles*; richer content models are flattened onto it with
documented approximations:

* a nested group inside a sequence contributes its alternatives as one
  choice particle whose repetition is the group's suffix (inner
  structure within the group is not preserved);
* a choice at the top level becomes a single choice particle;
* mixed content ``(#PCDATA | a | b)*`` becomes ``has_text=True`` plus a
  starred choice of the named elements;
* ``ANY`` becomes a starred choice over every declared element.

These approximations affect only generation *variety*, never soundness:
every generated document uses declared elements under declared parents.
"""

from __future__ import annotations

import pathlib
from typing import Callable, Dict, List, Optional, Set, Tuple
from xml.parsers import expat
from xml.parsers.expat import model as cmodel

from repro.xmlkit.dtd import DTD, ElementDecl, Particle, Repetition
from repro.xmlkit.parser import MAX_DEPTH, run_expat

#: expat's content model: (type, quantifier, name, child models)
Model = Tuple[int, int, Optional[str], tuple]

#: indexed by expat's quantifier: XML_CQUANT_NONE, _OPT, _REP, _PLUS = 0-3
_REPETITION = (Repetition.ONE, Repetition.OPTIONAL, Repetition.STAR, Repetition.PLUS)


class DTDParseError(ValueError):
    """Raised for DTD text the parser cannot handle: ``position`` is
    expat's byte offset for a syntax error, ``None`` for a check over the
    declarations (duplicate, undeclared, too deep)."""

    def __init__(self, message: str, position: Optional[int] = None) -> None:
        where = "" if position is None else f" (at offset {position})"
        super().__init__(message + where)
        self.position = position


def _run_subset(text: str, **handlers: Callable) -> None:
    """Parse *text* as the external subset of a stub document; the
    *handlers* go on the stub, and expat's entity parsers inherit them."""
    stub = expat.ParserCreate()
    stub.SetParamEntityParsing(expat.XML_PARAM_ENTITY_PARSING_ALWAYS)
    for name, handler in handlers.items():
        setattr(stub, name, handler)
    opened = 0

    def external(context: Optional[str], *_ids: object) -> int:
        # The first reference is the stub's own subset; every later one
        # is an external parameter entity, read as empty (an unread one
        # would make expat skip all later ATTLIST / ENTITY declarations).
        nonlocal opened
        opened += 1
        parser = stub.ExternalEntityParserCreate(context)
        run_expat(parser, text if opened == 1 else "", DTDParseError)
        return 1

    stub.ExternalEntityRefHandler = external
    run_expat(stub, '<!DOCTYPE dtd SYSTEM "dtd"><dtd/>', DTDParseError)


def _check_depth(text: str) -> None:
    """Refuse group nesting past MAX_DEPTH before expat builds a model."""
    depth = 0

    def token(data: str) -> None:
        nonlocal depth
        depth += data[:1] == "("
        depth -= data[:1] == ")"
        if depth > MAX_DEPTH:
            raise DTDParseError(f"groups nest deeper than {MAX_DEPTH}")

    _run_subset(text, DefaultHandlerExpand=token)


def _names(model: Model) -> List[str]:
    """Every element name inside *model*, in order, each once."""
    names: List[str] = []
    stack = [model]
    while stack:
        kind, _quant, name, children = stack.pop()
        if kind == cmodel.XML_CTYPE_NAME:
            names.append(name)
        stack.extend(reversed(children))
    return list(dict.fromkeys(names))


def _particles(model: Model) -> List[Particle]:
    """Flatten a sequence or choice group onto the sequence-of-choices
    model (recursion is bounded by :func:`_check_depth`)."""
    kind, quant, _name, children = model
    repetition = _REPETITION[quant]
    if kind == cmodel.XML_CTYPE_CHOICE:
        return [Particle.choice(_names(model), repetition)]
    particles: List[Particle] = []
    for child in children:
        child_kind, child_quant, child_name, _ = child
        if child_kind == cmodel.XML_CTYPE_NAME:
            particles.append(Particle((child_name,), _REPETITION[child_quant]))
        elif child_kind == cmodel.XML_CTYPE_SEQ and child_quant == cmodel.XML_CQUANT_NONE:
            # An unrepeated nested sequence contributes its items
            # directly (no approximation needed).
            particles.extend(_particles(child))
        else:
            particles.append(Particle.choice(_names(child), _REPETITION[child_quant]))
    if repetition is Repetition.ONE:
        return particles
    # A repeated sequence: approximate by repeating each particle; an
    # optional one makes each optional (a repeated particle stays starred).
    widened = {
        r: Repetition.STAR if repetition.is_unbounded or r.is_unbounded else Repetition.OPTIONAL
        for r in Repetition
    }
    return [Particle(p.alternatives, widened[p.repetition]) for p in particles]


def parse_dtd(text: str, root: Optional[str] = None, name: str = "") -> DTD:
    """Parse DTD *text* into a :class:`DTD`.

    *root* selects the document element; when omitted, the first element
    declared that no other element contains is used (the conventional
    root), falling back to the first declaration.
    """
    _check_depth(text)
    declarations: Dict[str, ElementDecl] = {}
    attributes: Dict[str, List[str]] = {}
    any_content: List[str] = []

    def element(element_name: str, model: Model) -> None:
        if element_name in declarations:
            raise DTDParseError(f"element {element_name!r} declared twice")
        kind = model[0]
        if kind == cmodel.XML_CTYPE_EMPTY:
            decl = ElementDecl(element_name)
        elif kind == cmodel.XML_CTYPE_ANY:
            decl = ElementDecl(element_name, has_text=True)
            any_content.append(element_name)
        elif kind == cmodel.XML_CTYPE_MIXED:
            names = _names(model)
            particles = [Particle.choice(names, Repetition.STAR)] if names else []
            decl = ElementDecl(element_name, particles=particles, has_text=True)
        else:
            decl = ElementDecl(element_name, particles=_particles(model))
        declarations[element_name] = decl

    def attlist(element_name: str, attr_name: str, *_rest: object) -> None:
        attributes.setdefault(element_name, []).append(attr_name)

    _run_subset(text, ElementDeclHandler=element, AttlistDeclHandler=attlist)
    if not declarations:
        raise DTDParseError("no <!ELEMENT> declarations found")
    for element_name in any_content:
        declarations[element_name].particles.append(
            Particle.choice(sorted(declarations), Repetition.STAR)
        )
    for element_name, names in attributes.items():
        if element_name in declarations:  # ATTLIST of an undeclared element: ignore
            declarations[element_name].attribute_names = list(dict.fromkeys(names))
    chosen_root = root if root is not None else _infer_root(declarations)
    try:
        # DTD.validate checks the root and every referenced child.
        return DTD(root=chosen_root, declarations=declarations.values(), name=name)
    except ValueError as exc:
        raise DTDParseError(str(exc)) from None


def _infer_root(declarations: Dict[str, ElementDecl]) -> str:
    contained: Set[str] = set()
    for decl in declarations.values():
        contained.update(decl.child_names())
    candidates = [name for name in declarations if name not in contained]
    return candidates[0] if candidates else next(iter(declarations))


def load_dtd(path, root: Optional[str] = None) -> DTD:
    """Parse a DTD file from disk."""
    file_path = pathlib.Path(path)
    return parse_dtd(file_path.read_text(encoding="utf-8"), root=root, name=file_path.stem)
