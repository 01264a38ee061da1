"""Structural statistics over documents and collections.

Used by the experiment harness to report the collection profile next to
each figure (the paper reports index sizes relative to collection size)
and by tests to sanity-check the generator's output distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Set

from repro.xmlkit.model import LabelPath, XMLDocument


@dataclass(frozen=True)
class DocumentStats:
    """Per-document structural measures."""

    doc_id: int
    size_bytes: int
    element_count: int
    distinct_paths: int
    depth: int


@dataclass(frozen=True)
class CollectionStats:
    """Aggregate measures over a document collection."""

    document_count: int
    total_bytes: int
    mean_bytes: float
    min_bytes: int
    max_bytes: int
    total_elements: int
    distinct_paths: int
    distinct_tags: int
    mean_depth: float
    max_depth: int

    def summary(self) -> str:
        """Human-readable one-paragraph summary."""
        return (
            f"{self.document_count} documents, {self.total_bytes} bytes total "
            f"(mean {self.mean_bytes:.0f} B, range {self.min_bytes}-{self.max_bytes} B), "
            f"{self.total_elements} elements, {self.distinct_paths} distinct paths over "
            f"{self.distinct_tags} tags, depth mean {self.mean_depth:.1f} / max {self.max_depth}"
        )


def document_stats(document: XMLDocument) -> DocumentStats:
    """Compute per-document structural measures."""
    return DocumentStats(
        doc_id=document.doc_id,
        size_bytes=document.size_bytes,
        element_count=document.element_count(),
        distinct_paths=len(document.distinct_label_paths()),
        depth=document.depth(),
    )


def collection_stats(documents: Sequence[XMLDocument]) -> CollectionStats:
    """Compute aggregate measures over a collection."""
    if not documents:
        raise ValueError("cannot compute statistics of an empty collection")
    sizes = [doc.size_bytes for doc in documents]
    depths = [doc.depth() for doc in documents]
    all_paths: Set[LabelPath] = set()
    tags: Set[str] = set()
    total_elements = 0
    for doc in documents:
        paths = doc.distinct_label_paths()
        all_paths.update(paths)
        for path in paths:
            tags.update(path)
        total_elements += doc.element_count()
    return CollectionStats(
        document_count=len(documents),
        total_bytes=sum(sizes),
        mean_bytes=sum(sizes) / len(sizes),
        min_bytes=min(sizes),
        max_bytes=max(sizes),
        total_elements=total_elements,
        distinct_paths=len(all_paths),
        distinct_tags=len(tags),
        mean_depth=sum(depths) / len(depths),
        max_depth=max(depths),
    )
