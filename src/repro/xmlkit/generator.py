"""DTD-driven random XML document generation.

This stands in for the IBM XML Generator the paper used to create its
NITF document collection.  The generator walks the DTD content models,
expanding particles with configurable probabilities:

* optional particles (``?``) are emitted with probability ``optional_prob``;
* unbounded particles (``*``/``+``) repeat geometrically with continuation
  probability ``repeat_prob``, capped at ``max_repeat``;
* recursion is bounded by ``max_depth`` -- below the limit, child particles
  are skipped entirely, exactly like the IBM generator's ``maxLevels`` knob;
* ``#PCDATA`` content becomes random word sequences from a fixed lexicon,
  giving serialized documents realistic KB-scale sizes.

Determinism: every generator owns a ``random.Random`` seeded from the
config, so collections are exactly reproducible from a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.xmlkit.dtd import DTD, ElementDecl, Particle, Repetition
from repro.xmlkit.model import XMLDocument, XMLElement

#: Fixed lexicon for ``#PCDATA`` runs.  Word lengths average ~6 chars so a
#: text run of *n* words costs ~7n bytes on air.
_LEXICON = (
    "wireless broadcast channel index mobile client server query document "
    "energy doze tuning access cycle packet path element schema dissemination "
    "network signal antenna battery downlink uplink request pending result "
    "structure summary guide prune offset pointer tier protocol filter match"
).split()


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the random document generator.

    The defaults are tuned so that a NITF-like collection of 1000 documents
    averages ~5.5 KB per document -- the size band that reproduces the
    paper's index-to-data ratios (see DESIGN.md section 7.3 on the paper's
    OCR-damaged size constants).
    """

    seed: int = 7
    max_depth: int = 12
    max_repeat: int = 4
    repeat_prob: float = 0.55
    optional_prob: float = 0.5
    min_text_words: int = 4
    max_text_words: int = 18
    attribute_prob: float = 0.4

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.max_repeat < 1:
            raise ValueError("max_repeat must be at least 1")
        if not 0.0 <= self.repeat_prob < 1.0:
            raise ValueError("repeat_prob must be in [0, 1)")
        if not 0.0 <= self.optional_prob <= 1.0:
            raise ValueError("optional_prob must be in [0, 1]")
        if self.min_text_words < 0 or self.max_text_words < self.min_text_words:
            raise ValueError("text word bounds are inconsistent")


class DocumentGenerator:
    """Generates random documents conforming (depth-bounded) to a DTD."""

    def __init__(self, dtd: DTD, config: Optional[GeneratorConfig] = None) -> None:
        self.dtd = dtd
        self.config = config or GeneratorConfig()
        self._rng = random.Random(self.config.seed)

    def generate(self, doc_id: int, name: str = "") -> XMLDocument:
        """Generate one document with the given identifier."""
        root = self._generate_element(self.dtd.root, depth=1)
        return XMLDocument(doc_id=doc_id, root=root, name=name or f"doc-{doc_id}")

    def generate_many(self, count: int, start_id: int = 0) -> List[XMLDocument]:
        """Generate *count* documents with consecutive identifiers."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.generate(start_id + i) for i in range(count)]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _generate_element(self, tag: str, depth: int) -> XMLElement:
        decl = self.dtd[tag]
        element = XMLElement(tag)
        self._maybe_add_attributes(element, decl)
        if decl.has_text:
            element.text = self._random_text()
        if depth >= self.config.max_depth:
            # Depth guard: stop recursing, as the IBM generator's maxLevels
            # does.  The subtree is truncated rather than the document being
            # rejected, so deep DTDs still generate in bounded time.
            return element
        for particle in decl.particles:
            for child_tag in self._expand_particle(particle):
                element.append(self._generate_element(child_tag, depth + 1))
        return element

    def _expand_particle(self, particle: Particle) -> List[str]:
        """Decide how many instances a particle yields, and of which tag."""
        rng = self._rng
        count: int
        if particle.repetition is Repetition.ONE:
            count = 1
        elif particle.repetition is Repetition.OPTIONAL:
            count = 1 if rng.random() < self.config.optional_prob else 0
        else:
            count = particle.repetition.min_count
            while count < self.config.max_repeat and rng.random() < self.config.repeat_prob:
                count += 1
        return [rng.choice(particle.alternatives) for _ in range(count)]

    def _maybe_add_attributes(self, element: XMLElement, decl: ElementDecl) -> None:
        for attr in decl.attribute_names:
            if self._rng.random() < self.config.attribute_prob:
                element.attributes[attr] = self._random_token()

    def _random_text(self) -> str:
        count = self._rng.randint(self.config.min_text_words, self.config.max_text_words)
        return " ".join(self._rng.choice(_LEXICON) for _ in range(count))

    def _random_token(self) -> str:
        return f"{self._rng.choice(_LEXICON)}-{self._rng.randint(0, 999)}"


def generate_collection(
    dtd: DTD,
    count: int,
    seed: int = 7,
    config: Optional[GeneratorConfig] = None,
) -> List[XMLDocument]:
    """Convenience wrapper: generate a reproducible *count*-document set."""
    if config is None:
        config = GeneratorConfig(seed=seed)
    return DocumentGenerator(dtd, config).generate_many(count)


# ----------------------------------------------------------------------
# Built-in DTDs
# ----------------------------------------------------------------------


def nitf_like_dtd() -> DTD:
    """A News-Industry-Text-Format-like DTD.

    Mirrors the structural spirit of real NITF: a ``head`` with metadata,
    a ``body`` split into head/content/end, paragraph-level content with
    inline markup, nested block quotes (the recursion that makes document
    depth unbounded) and media objects.
    """
    inline = ("em", "person", "location", "org", "money", "num", "chron")
    decls = [
        ElementDecl("nitf", [Particle.one("head"), Particle.one("body")]),
        ElementDecl(
            "head",
            [
                Particle.one("title"),
                Particle.star("meta"),
                Particle.optional("tobject"),
                Particle.optional("docdata"),
                Particle.optional("pubdata"),
                Particle.optional("revision-history"),
            ],
        ),
        ElementDecl("title", has_text=True),
        ElementDecl("meta", attribute_names=["name", "content"]),
        ElementDecl(
            "tobject",
            [Particle.star("tobject-property"), Particle.star("tobject-subject")],
            attribute_names=["tobject-type"],
        ),
        ElementDecl("tobject-property", attribute_names=["tobject-property-type"]),
        ElementDecl("tobject-subject", attribute_names=["tobject-subject-code"]),
        ElementDecl(
            "docdata",
            [
                Particle.optional("doc-id"),
                Particle.optional("urgency"),
                Particle.optional("evloc"),
                Particle.star("doc-scope"),
                Particle.optional("series"),
                Particle.optional("date-issue"),
                Particle.optional("date-release"),
                Particle.optional("doc.copyright"),
                Particle.optional("doc.rights"),
                Particle.star("key-list"),
                Particle.star("identified-content"),
            ],
        ),
        ElementDecl("doc-id", attribute_names=["id-string"]),
        ElementDecl("evloc", attribute_names=["county-dist", "iso-cc"]),
        ElementDecl("doc-scope", attribute_names=["scope"]),
        ElementDecl("series", attribute_names=["series.name", "series.part"]),
        ElementDecl("key-list", [Particle.plus("keyword")]),
        ElementDecl("keyword", has_text=True, attribute_names=["key"]),
        ElementDecl("urgency", attribute_names=["ed-urg"]),
        ElementDecl("date-issue", attribute_names=["norm"]),
        ElementDecl("date-release", attribute_names=["norm"]),
        ElementDecl("doc.copyright", attribute_names=["year", "holder"]),
        ElementDecl("doc.rights", attribute_names=["owner", "agent"]),
        ElementDecl(
            "identified-content",
            [Particle.choice(("person", "org", "location", "classifier"), Repetition.PLUS)],
        ),
        ElementDecl("classifier", has_text=True, attribute_names=["type", "value"]),
        ElementDecl("pubdata", attribute_names=["type", "position-section"]),
        ElementDecl("revision-history", attribute_names=["name", "function"]),
        ElementDecl(
            "body",
            [
                Particle.optional("body-head"),
                Particle.plus("body-content"),
                Particle.optional("body-end"),
            ],
        ),
        ElementDecl(
            "body-head",
            [
                Particle.optional("hedline"),
                Particle.optional("note"),
                Particle.optional("rights"),
                Particle.optional("byline"),
                Particle.optional("distributor"),
                Particle.optional("dateline"),
                Particle.star("abstract"),
                Particle.optional("series"),
            ],
        ),
        ElementDecl("hedline", [Particle.one("hl1"), Particle.star("hl2")]),
        ElementDecl("hl1", has_text=True),
        ElementDecl("hl2", has_text=True),
        ElementDecl("note", [Particle.plus("body-content")], attribute_names=["noteclass"]),
        ElementDecl("rights", [Particle.optional("rights.owner"), Particle.optional("rights.agent")], has_text=True),
        ElementDecl("rights.owner", has_text=True),
        ElementDecl("rights.agent", has_text=True),
        ElementDecl("byline", [Particle.optional("person"), Particle.optional("byttl")], has_text=True),
        ElementDecl("byttl", [Particle.optional("org")], has_text=True),
        ElementDecl("distributor", [Particle.optional("org")], has_text=True),
        ElementDecl("person", has_text=True),
        ElementDecl("org", [Particle.optional("alt-code")], has_text=True),
        ElementDecl("alt-code", attribute_names=["idsrc", "value"]),
        ElementDecl("location", [Particle.optional("city"), Particle.optional("country")], has_text=True),
        ElementDecl("city", has_text=True),
        ElementDecl("country", has_text=True),
        ElementDecl("dateline", [Particle.optional("location"), Particle.optional("story.date")], has_text=True),
        ElementDecl("story.date", attribute_names=["norm"]),
        ElementDecl("abstract", [Particle.star("p")]),
        ElementDecl(
            "body-content",
            [Particle.choice(("p", "bq", "media", "table", "ol", "ul", "dl", "fn", "pre"), Repetition.PLUS)],
        ),
        ElementDecl("p", [Particle.choice(inline, Repetition.STAR)], has_text=True),
        ElementDecl("em", has_text=True),
        ElementDecl("money", has_text=True, attribute_names=["unit"]),
        ElementDecl("num", has_text=True, attribute_names=["units"]),
        ElementDecl("chron", has_text=True, attribute_names=["norm"]),
        # bq -> block -> (p | bq)* is the recursive part of the grammar.
        ElementDecl("bq", [Particle.one("block"), Particle.optional("credit")]),
        ElementDecl("block", [Particle.choice(("p", "bq", "ul", "media"), Repetition.STAR)]),
        ElementDecl("credit", has_text=True),
        ElementDecl("fn", [Particle.plus("p")]),
        ElementDecl("pre", has_text=True),
        # Nested lists: a second source of unbounded depth.
        ElementDecl("ol", [Particle.plus("li")]),
        ElementDecl("ul", [Particle.plus("li")]),
        ElementDecl("li", [Particle.choice(("p", "ul", "ol"), Repetition.STAR)], has_text=True),
        ElementDecl("dl", [Particle.plus("dt"), Particle.plus("dd")]),
        ElementDecl("dt", has_text=True),
        ElementDecl("dd", [Particle.star("p")], has_text=True),
        ElementDecl(
            "media",
            [Particle.plus("media-reference"), Particle.optional("media-caption"), Particle.optional("media-producer")],
            attribute_names=["media-type"],
        ),
        ElementDecl("media-reference", attribute_names=["source", "mime-type"]),
        ElementDecl("media-caption", [Particle.star("p")]),
        ElementDecl("media-producer", has_text=True),
        ElementDecl("table", [Particle.optional("caption"), Particle.plus("tr")]),
        ElementDecl("caption", has_text=True),
        ElementDecl("tr", [Particle.choice(("th", "td"), Repetition.PLUS)]),
        ElementDecl("th", has_text=True),
        ElementDecl("td", has_text=True),
        ElementDecl(
            "body-end",
            [Particle.optional("tagline"), Particle.optional("bibliography")],
        ),
        ElementDecl("tagline", has_text=True),
        ElementDecl("bibliography", has_text=True),
    ]
    return DTD(root="nitf", declarations=decls, name="nitf-like")


def dblp_like_dtd() -> DTD:
    """A DBLP-like bibliography DTD (third built-in data set).

    Structurally the opposite of NITF: a huge flat root fanning out into
    shallow, regular records -- few distinct paths, many repetitions.
    Useful for testing how the Compact Index behaves when structure is
    cheap and annotations dominate completely.
    """
    record_fields = [
        Particle.plus("author"),
        Particle.one("title"),
        Particle.optional("pages"),
        Particle.one("year"),
        Particle.star("ee"),
        Particle.optional("url"),
        Particle.optional("note"),
    ]
    decls = [
        ElementDecl(
            "dblp",
            [
                Particle.choice(
                    ("article", "inproceedings", "book", "phdthesis", "www"),
                    Repetition.PLUS,
                )
            ],
        ),
        ElementDecl(
            "article",
            record_fields + [Particle.one("journal"), Particle.optional("volume")],
            attribute_names=["key", "mdate"],
        ),
        ElementDecl(
            "inproceedings",
            record_fields + [Particle.one("booktitle"), Particle.optional("crossref")],
            attribute_names=["key", "mdate"],
        ),
        ElementDecl(
            "book",
            record_fields + [Particle.one("publisher"), Particle.optional("isbn")],
            attribute_names=["key"],
        ),
        ElementDecl(
            "phdthesis",
            record_fields + [Particle.one("school")],
            attribute_names=["key"],
        ),
        ElementDecl("www", [Particle.plus("author"), Particle.one("title")],
                    attribute_names=["key"]),
        ElementDecl("author", has_text=True, attribute_names=["orcid"]),
        ElementDecl("title", has_text=True),
        ElementDecl("pages", has_text=True),
        ElementDecl("year", has_text=True),
        ElementDecl("journal", has_text=True),
        ElementDecl("booktitle", has_text=True),
        ElementDecl("volume", has_text=True),
        ElementDecl("publisher", has_text=True),
        ElementDecl("isbn", has_text=True),
        ElementDecl("school", has_text=True),
        ElementDecl("crossref", has_text=True),
        ElementDecl("ee", has_text=True),
        ElementDecl("url", has_text=True),
        ElementDecl("note", has_text=True),
    ]
    return DTD(root="dblp", declarations=decls, name="dblp-like")


def nasa_like_dtd() -> DTD:
    """A NASA-ADC-astronomical-dataset-like DTD (the paper's second set).

    Real NASA datasets describe tabular astronomy catalogues: dataset
    metadata, references with authors, keyword lists and nested field
    descriptors.  The recursion lives in ``para`` containing ``footnote``
    containing ``para``.
    """
    decls = [
        ElementDecl(
            "dataset",
            [
                Particle.one("title"),
                Particle.star("altname"),
                Particle.one("reference"),
                Particle.star("keywords"),
                Particle.optional("descriptions"),
                Particle.star("tableHead"),
                Particle.optional("history"),
            ],
            attribute_names=["subject", "xmlns"],
        ),
        ElementDecl("title", has_text=True),
        ElementDecl("altname", has_text=True, attribute_names=["type"]),
        ElementDecl(
            "reference",
            [Particle.one("source"), Particle.star("other")],
        ),
        ElementDecl(
            "source",
            [Particle.one("other")],
        ),
        ElementDecl(
            "other",
            [
                Particle.one("author"),
                Particle.optional("title"),
                Particle.optional("journal"),
                Particle.optional("year"),
            ],
        ),
        ElementDecl("author", [Particle.plus("initial"), Particle.one("lastName")]),
        ElementDecl("initial", has_text=True),
        ElementDecl("lastName", has_text=True),
        ElementDecl("journal", has_text=True),
        ElementDecl("year", has_text=True),
        ElementDecl("keywords", [Particle.plus("keyword")], attribute_names=["parentListURL"]),
        ElementDecl("keyword", has_text=True),
        ElementDecl(
            "descriptions",
            [Particle.optional("description"), Particle.star("details")],
        ),
        ElementDecl("description", [Particle.star("para")]),
        ElementDecl("details", [Particle.star("para")]),
        ElementDecl("para", [Particle.star("footnote")], has_text=True),
        ElementDecl("footnote", [Particle.star("para")]),
        ElementDecl(
            "tableHead",
            [Particle.plus("field"), Particle.optional("tableLinks")],
        ),
        ElementDecl(
            "field",
            [Particle.one("name"), Particle.optional("units"), Particle.optional("description")],
        ),
        ElementDecl("name", has_text=True),
        ElementDecl("units", has_text=True),
        ElementDecl("tableLinks", [Particle.star("tableLink")]),
        ElementDecl("tableLink", attribute_names=["href", "title"]),
        ElementDecl("history", [Particle.star("ingest")]),
        ElementDecl("ingest", [Particle.one("creator"), Particle.optional("date")]),
        ElementDecl("creator", [Particle.one("lastName")]),
        ElementDecl("date", has_text=True),
    ]
    return DTD(root="dataset", declarations=decls, name="nasa-like")


#: The built-in DTDs by the name configurations and the CLI refer to them.
BUILTIN_DTDS: Dict[str, Callable[[], DTD]] = {
    "nitf": nitf_like_dtd,
    "nasa": nasa_like_dtd,
    "dblp": dblp_like_dtd,
}
