"""Synthetic XPath workload generation.

Re-implements the "modified version of the [YFilter] generator" the paper
uses (Section 4.1): queries without predicates, parameterised by

* ``wildcard_descendant_prob`` -- the paper's ``P``, the probability that a
  location step carries a wildcard ``*`` / that its axis becomes ``//``
  (applied independently per step, as in the YFilter workload generator);
* ``max_depth`` -- the paper's ``D_Q``, the maximum number of steps.

Queries are derived from *real element paths* of the target collection, so
every generated query has a non-empty result set -- the paper assumes
exactly this ("the result set for each request is not empty", Section 2.1).
Generalising a step (child axis to descendant axis, label to wildcard)
can only widen the match set, so the sampled source document always stays
in the result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.xmlkit.model import LabelPath, XMLDocument
from repro.xpath.ast import Axis, Step, WILDCARD, XPathQuery


@dataclass(frozen=True)
class QueryWorkloadConfig:
    """Knobs of the query workload generator (paper Table 2).

    The source path of each query is a random walk down a real document
    tree from the root, stopping at a leaf or at ``max_depth``.  This is
    how the DTD-driven YFilter/IBM workload generators behave: query
    depth concentrates near ``min(document depth, D_Q)``, so raising
    ``D_Q`` yields deeper, *more selective* queries -- the effect behind
    the paper's Figure 9(c)/11(c).
    """

    seed: int = 11
    wildcard_descendant_prob: float = 0.1  #: the paper's ``P``
    max_depth: int = 10  #: the paper's ``D_Q``
    #: Zipf skew over source documents; 0.0 means uniform.  The paper lists
    #: studying skewed query patterns as future work -- the skew ablation
    #: bench exercises this knob.
    zipf_theta: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.wildcard_descendant_prob <= 1.0:
            raise ValueError("wildcard_descendant_prob must be in [0, 1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.zipf_theta < 0.0:
            raise ValueError("zipf_theta must be non-negative")


class QueryGenerator:
    """Generates random queries over a document collection."""

    def __init__(
        self,
        documents: Sequence[XMLDocument],
        config: Optional[QueryWorkloadConfig] = None,
    ) -> None:
        if not documents:
            raise ValueError("need a non-empty collection to generate queries")
        self.documents = list(documents)
        self.config = config or QueryWorkloadConfig()
        self._rng = random.Random(self.config.seed)
        self._doc_weights = self._zipf_weights(len(self.documents), self.config.zipf_theta)

    @staticmethod
    def _zipf_weights(count: int, theta: float) -> List[float]:
        if theta == 0.0:
            return [1.0] * count
        return [1.0 / (rank**theta) for rank in range(1, count + 1)]

    def generate(self) -> XPathQuery:
        """Generate one query with a guaranteed non-empty result set."""
        path = self._sample_source_path()
        return self._generalise(path)

    def generate_many(self, count: int) -> List[XPathQuery]:
        """Generate a workload of *count* queries (duplicates allowed --
        the paper's q2 and q6 are identical, and real workloads repeat)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.generate() for _ in range(count)]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _sample_source_path(self) -> LabelPath:
        """Random walk down a sampled document, stopping at a leaf element
        or at ``max_depth``."""
        rng = self._rng
        doc_index = rng.choices(range(len(self.documents)), weights=self._doc_weights)[0]
        node = self.documents[doc_index].root
        labels = [node.tag]
        while node.children and len(labels) < self.config.max_depth:
            node = rng.choice(node.children)
            labels.append(node.tag)
        return tuple(labels)

    def _generalise(self, path: LabelPath) -> XPathQuery:
        """Turn a concrete path into a query, step by step.

        Each location step is mutated with probability ``P`` (the paper's
        single "probability of wildcard * and double slash //" knob); a
        mutated step becomes a wildcard or switches to the descendant axis
        with equal chance.  Both mutations only *widen* the match set, so
        the sampled source document always stays in the result.  A final
        de-generalisation pass ensures the query is not all-wildcards
        (which would select every document and collapse selectivity).
        """
        rng = self._rng
        p = self.config.wildcard_descendant_prob
        steps: List[Step] = []
        for label in path:
            axis = Axis.CHILD
            test = label
            if rng.random() < p:
                if rng.random() < 0.5:
                    test = WILDCARD
                else:
                    axis = Axis.DESCENDANT
            steps.append(Step(axis, test))
        if all(step.test == WILDCARD for step in steps):
            # Re-anchor one concrete label so the query keeps some
            # selectivity; pick the deepest step to stay restrictive.
            steps[-1] = Step(steps[-1].axis, path[-1])
        return XPathQuery.from_steps(steps)


def generate_workload(
    documents: Sequence[XMLDocument],
    count: int,
    seed: int = 11,
    wildcard_descendant_prob: float = 0.1,
    max_depth: int = 10,
    zipf_theta: float = 0.0,
) -> List[XPathQuery]:
    """One-call workload generation used by experiments and examples."""
    config = QueryWorkloadConfig(
        seed=seed,
        wildcard_descendant_prob=wildcard_descendant_prob,
        max_depth=max_depth,
        zipf_theta=zipf_theta,
    )
    return QueryGenerator(documents, config).generate_many(count)
