"""Transitive-redundancy pruning (paper §III-C-3).

After attaching predicted hyponymy edges, the expanded taxonomy may contain
edges that are implied by longer paths ("redundant edge that can infer from
the path").  :func:`transitive_reduction` removes exactly those edges.
"""

from __future__ import annotations

from .tree import Taxonomy

__all__ = ["redundant_edges", "transitive_reduction"]


def redundant_edges(taxonomy: Taxonomy) -> set[tuple[str, str]]:
    """Edges ``(a, c)`` for which another path ``a -> ... -> c`` exists.

    Such a path has length >= 2, so its last edge comes from another
    parent ``p`` of ``c``, and ``a`` is an ancestor of ``p``.  Conversely,
    ``a -> ... -> p -> c`` is such a path for any ancestor ``a`` of another
    parent ``p``.  So only nodes with two or more parents can end a
    redundant edge, and a parent of ``c`` is redundant exactly when it is
    an ancestor of the parent set.  The cost is one upward walk per
    multi-parent node, over the ancestors of its parents; single-parent
    nodes, most of a taxonomy, cost one set copy each.
    """
    redundant: set[tuple[str, str]] = set()
    for child in taxonomy.nodes:
        parents = taxonomy.parents(child)
        if len(parents) < 2:
            continue
        above: set[str] = set()
        for parent in parents:
            above |= taxonomy.ancestors(parent)
        redundant.update((parent, child) for parent in parents & above)
    return redundant


def transitive_reduction(taxonomy: Taxonomy) -> Taxonomy:
    """Return a copy of ``taxonomy`` with all redundant edges removed.

    For a DAG the transitive reduction is unique; removing an implied edge
    never makes another implied edge become non-implied, so a single sweep
    suffices.
    """
    reduced = taxonomy.copy()
    for parent, child in redundant_edges(taxonomy):
        reduced.remove_edge(parent, child)
    return reduced
