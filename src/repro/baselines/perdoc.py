"""The per-document embedded index baseline (paper Section 1, [2]/[10]).

Prior wireless XML broadcast work builds one structural index *inside
each document* and broadcasts index+document together.  The paper's
footnote reports that the smallest such index is "close to 10% of the
total data size", against 0.1%-0.5% for the two-tier PCI.  This module
reproduces that comparison: each document's index is its own DataGuide
serialized in the same node layout as the Compact Index, with one
position pointer per guide node (the embedded indexes point at element
positions inside the document, the role our ``<doc, pointer>`` block
plays across documents).

The second structural drawback -- the client cannot learn how many
documents satisfy its query, so it must monitor the channel continuously
-- is exercised by the exhaustive-listening baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.dataguide.dataguide import DataGuide, build_dataguide
from repro.index.sizes import SizeModel, PAPER_SIZE_MODEL
from repro.xmlkit.model import XMLDocument


@dataclass(frozen=True)
class PerDocumentIndexStats:
    """Sizes of the per-document indexing scheme over a collection."""

    document_count: int
    data_bytes: int
    index_bytes: int

    @property
    def overhead_ratio(self) -> float:
        """Index bytes relative to data bytes (the paper's ~10%)."""
        return self.index_bytes / self.data_bytes if self.data_bytes else 0.0


class PerDocumentIndexBaseline:
    """Sizes the embedded-index scheme for comparison benches."""

    def __init__(self, size_model: SizeModel = PAPER_SIZE_MODEL) -> None:
        self.size_model = size_model

    def index_bytes_for(
        self, document: XMLDocument, guide: Optional[DataGuide] = None
    ) -> int:
        """Embedded index size of one document.

        Every guide node costs a header, one child entry per child and one
        intra-document position pointer (so the reader can skip to the
        matching elements without scanning the rest of the document).
        """
        if guide is None:
            guide = build_dataguide(document)
        model = self.size_model
        total = 0
        for node, _path in guide.root.iter_with_paths():
            total += model.node_bytes(
                child_count=len(node.children), doc_count=1, one_tier=True
            )
        return total

    def measure(
        self,
        documents: Sequence[XMLDocument],
        guides: Optional[Dict[int, DataGuide]] = None,
    ) -> PerDocumentIndexStats:
        """Total embedded-index overhead over a collection."""
        if not documents:
            raise ValueError("cannot measure an empty collection")
        index_bytes = 0
        for doc in documents:
            guide = guides.get(doc.doc_id) if guides else None
            index_bytes += self.index_bytes_for(doc, guide)
        return PerDocumentIndexStats(
            document_count=len(documents),
            data_bytes=sum(doc.size_bytes for doc in documents),
            index_bytes=index_bytes,
        )
