"""Top-down taxonomy expansion (paper §III-C-3, Figure 2).

The existing taxonomy is traversed level by level.  For each concept acting
as a query in the click logs, its candidate item concepts are classified;
accepted hyponyms are attached.  Newly attached concepts join the frontier
and are processed when the next layer is reached, so expansion grows both
width and depth in a single traversal.  Finally, edges implied by longer
paths are pruned (transitive reduction).

The frontier is walked one BFS generation at a time: the existing nodes in
level order, then the nodes they attached, then the nodes those attached.
When a generation starts, each of its nodes' candidates is looked up and
filtered, and every surviving pair is scored in **one** scorer call.  The
per-node decisions are then replayed in queue order from those scores, each
node filtering its candidates again at its turn.
Scoring ahead cannot change the outcome: the traversal only adds edges, and
the filter (no self-pair, no existing edge, no cycle) rejects more, never
fewer, as edges are added.  So a node's candidates when its turn comes are
a subset of the pairs scored when its generation started.  The decisions
equal a one-call-per-node loop's as long as a pair's score does not depend
on its batch-mates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from ..taxonomy import Taxonomy, redundant_edges

__all__ = ["ExpansionConfig", "ExpansionResult", "expand_taxonomy"]


class Scorer(Protocol):
    """Anything mapping candidate pairs to positive-class probabilities."""

    def __call__(self, pairs: list[tuple[str, str]]) -> np.ndarray: ...


@dataclass(frozen=True)
class ExpansionConfig:
    """Knobs for the inference-time traversal."""

    threshold: float = 0.5
    #: safety valve against degenerate scorers; generous by default
    max_children_per_node: int = 200
    prune_transitive: bool = True


@dataclass
class ExpansionResult:
    """Outcome of one expansion run."""

    taxonomy: Taxonomy
    #: every (parent, child) edge the model attached, pre-pruning
    attached_edges: list[tuple[str, str]] = field(default_factory=list)
    #: every scored candidate with its probability
    scored_pairs: dict[tuple[str, str], float] = field(default_factory=dict)

    @property
    def num_attached(self) -> int:
        return len(self.attached_edges)


def expand_taxonomy(scorer: Scorer | Callable,
                    existing: Taxonomy,
                    candidates_by_query: dict[str, list[str]],
                    config: ExpansionConfig | None = None) -> ExpansionResult:
    """Run the top-down expansion.

    Parameters
    ----------
    scorer:
        Maps a list of (query, item) pairs to positive probabilities.
    existing:
        The taxonomy T0 to expand (not mutated).
    candidates_by_query:
        Query concept -> item concepts observed under it in the click
        logs, or a callable ``provider(query) -> iterable of items``
        (e.g. a retrieval index's top-k neighbours) called once per
        frontier node, when its generation starts.  Repeated items
        count once.  Unknown queries simply have no candidates.
    """
    config = config or ExpansionConfig()
    if callable(candidates_by_query):
        lookup = candidates_by_query
    else:
        lookup = lambda node: candidates_by_query.get(node, ())  # noqa: E731
    expanded = existing.copy()
    result = ExpansionResult(taxonomy=expanded)

    def open_candidates(node, items):
        return [c for c in items
                if c != node
                and not expanded.has_edge(node, c)
                and not expanded.is_ancestor(c, node)]

    # Level-order frontier, one generation at a time: the existing nodes,
    # then the nodes each generation attached, matching Figure 2's
    # layer-by-layer sweep.  dict.fromkeys drops repeated candidates.
    generation = [node for level in existing.level_order() for node in level]
    queued = set(generation)
    while generation:
        pending = []
        for node in generation:
            candidates = open_candidates(node, dict.fromkeys(lookup(node)))
            if candidates:
                pending.append((node, candidates))
        pairs = [(node, c) for node, candidates in pending
                 for c in candidates]
        scores = {}
        if pairs:
            probs = np.asarray(scorer(pairs), dtype=np.float64)
            scores = dict(zip(pairs, probs))
        generation = []
        for node, candidates in pending:
            # earlier nodes' attachments may have closed some candidates
            candidates = open_candidates(node, candidates)
            ranked = sorted(((c, scores[(node, c)]) for c in candidates),
                            key=lambda x: (-x[1], x[0]))
            attached = 0
            for candidate, prob in ranked:
                result.scored_pairs[(node, candidate)] = float(prob)
                if prob < config.threshold:
                    continue
                if attached >= config.max_children_per_node:
                    break
                if expanded.is_ancestor(candidate, node):
                    continue  # attaching would create a cycle
                expanded.add_edge(node, candidate)
                result.attached_edges.append((node, candidate))
                attached += 1
                if candidate not in queued:
                    generation.append(candidate)
                    queued.add(candidate)

    if config.prune_transitive:
        for parent, child in redundant_edges(expanded):
            expanded.remove_edge(parent, child)
    return result
