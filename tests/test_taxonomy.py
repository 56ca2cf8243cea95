"""Taxonomy substrate tests: tree, headwords, transitive reduction, vocab."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.taxonomy import (
    ConceptVocabulary, CycleError, Taxonomy, headword,
    is_headword_detectable, is_substring_hyponym, redundant_edges,
    split_edges_by_headword, transitive_reduction,
)


@pytest.fixture()
def tree():
    t = Taxonomy()
    t.add_edge("food", "bread")
    t.add_edge("food", "fruit")
    t.add_edge("bread", "rye bread")
    t.add_edge("bread", "toast")
    t.add_edge("rye bread", "dark rye bread")
    return t


class TestTaxonomyStructure:
    def test_counts(self, tree):
        assert tree.num_nodes == 6
        assert tree.num_edges == 5
        assert len(tree) == 6

    def test_roots_and_leaves(self, tree):
        assert tree.roots() == ["food"]
        assert set(tree.leaves()) == {"fruit", "toast", "dark rye bread"}

    def test_parents_children(self, tree):
        assert tree.children("bread") == {"rye bread", "toast"}
        assert tree.parents("toast") == {"bread"}

    def test_ancestors_descendants(self, tree):
        assert tree.ancestors("dark rye bread") == {"rye bread", "bread",
                                                    "food"}
        assert tree.descendants("bread") == {"rye bread", "toast",
                                             "dark rye bread"}

    def test_is_ancestor(self, tree):
        assert tree.is_ancestor("food", "toast")
        assert not tree.is_ancestor("toast", "food")
        assert not tree.is_ancestor("missing", "toast")

    def test_depth_and_levels(self, tree):
        assert tree.depth() == 4
        levels = tree.level_order()
        assert levels[0] == ["food"]
        assert set(levels[1]) == {"bread", "fruit"}
        assert levels[3] == ["dark rye bread"]

    def test_self_loop_rejected(self, tree):
        with pytest.raises(CycleError):
            tree.add_edge("bread", "bread")

    def test_cycle_rejected(self, tree):
        with pytest.raises(CycleError):
            tree.add_edge("dark rye bread", "food")

    def test_duplicate_edge_is_noop(self, tree):
        tree.add_edge("food", "bread")
        assert tree.num_edges == 5

    def test_multiple_parents_allowed(self, tree):
        tree.add_edge("fruit", "toast")  # DAG, not strictly a tree
        assert tree.parents("toast") == {"bread", "fruit"}

    def test_remove_edge(self, tree):
        tree.remove_edge("bread", "toast")
        assert not tree.has_edge("bread", "toast")
        with pytest.raises(KeyError):
            tree.remove_edge("bread", "toast")

    def test_remove_node(self, tree):
        tree.remove_node("rye bread")
        assert "rye bread" not in tree
        assert "dark rye bread" in tree
        assert tree.parents("dark rye bread") == set()
        with pytest.raises(KeyError):
            tree.remove_node("rye bread")

    def test_copy_independent(self, tree):
        clone = tree.copy()
        clone.add_edge("food", "soup")
        assert "soup" not in tree
        assert tree.edge_set() <= clone.edge_set()

    def test_subtree(self, tree):
        sub = tree.subtree("bread")
        assert sub.nodes == {"bread", "rye bread", "toast", "dark rye bread"}
        assert sub.num_edges == 3

    def test_constructor_from_edges(self):
        t = Taxonomy(edges=[("a", "b"), ("b", "c")], nodes=["lonely"])
        assert t.num_nodes == 4
        assert t.is_ancestor("a", "c")

    def test_repr(self, tree):
        assert "Taxonomy" in repr(tree)


class TestHeadword:
    def test_headword_last_token(self):
        assert headword("dark rye bread") == "bread"
        assert headword("toast") == "toast"
        with pytest.raises(ValueError):
            headword("   ")

    @pytest.mark.parametrize("parent,child,expected", [
        ("bread", "rye bread", True),
        ("rye bread", "dark rye bread", True),
        ("bread", "toast", False),
        ("bread", "bread", False),        # not strict
        ("rye bread", "bread", False),    # wrong direction
        ("bread", "breadstick pile", False),  # token, not substring
    ])
    def test_is_headword_detectable(self, parent, child, expected):
        assert is_headword_detectable(parent, child) is expected

    def test_substring_rule(self):
        assert is_substring_hyponym("bread", "breadstick")
        assert not is_substring_hyponym("bread", "bread")
        assert not is_substring_hyponym("toast", "bread")

    def test_split_edges(self, tree):
        head, others = split_edges_by_headword(tree)
        assert ("bread", "rye bread") in head
        assert ("bread", "toast") in others
        assert len(head) + len(others) == tree.num_edges


class TestTransitiveReduction:
    def test_redundant_edge_found_and_removed(self, tree):
        tree.add_edge("food", "dark rye bread")  # implied via bread/rye
        assert ("food", "dark rye bread") in redundant_edges(tree)
        reduced = transitive_reduction(tree)
        assert not reduced.has_edge("food", "dark rye bread")
        assert reduced.is_ancestor("food", "dark rye bread")

    def test_no_redundancy_untouched(self, tree):
        reduced = transitive_reduction(tree)
        assert reduced.edge_set() == tree.edge_set()

    def test_two_step_skip(self):
        t = Taxonomy(edges=[("a", "b"), ("b", "c"), ("a", "c")])
        reduced = transitive_reduction(t)
        assert reduced.edge_set() == {("a", "b"), ("b", "c")}


class TestConceptVocabulary:
    def test_add_and_lookup(self):
        vocab = ConceptVocabulary(["bread", "rye bread"])
        assert "bread" in vocab
        assert len(vocab) == 2
        assert vocab.with_token("bread") == {"bread", "rye bread"}

    def test_add_idempotent(self):
        vocab = ConceptVocabulary()
        vocab.add("bread")
        vocab.add("bread")
        assert len(vocab) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ConceptVocabulary(["  "])

    def test_discard(self):
        vocab = ConceptVocabulary(["bread", "rye bread"])
        vocab.discard("rye bread")
        assert "rye bread" not in vocab
        assert vocab.with_token("rye") == set()
        vocab.discard("missing")  # no error

    def test_candidates_in_text(self):
        vocab = ConceptVocabulary(["bread", "rye bread", "soup"])
        found = vocab.candidates_in_text("fresh rye bread combo")
        assert found == ["bread", "rye bread"]

    def test_iteration_order(self):
        vocab = ConceptVocabulary(["b", "a", "c"])
        assert vocab.concepts() == ["b", "a", "c"]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                min_size=1, max_size=30))
def test_taxonomy_acyclic_invariant_property(pairs):
    """Whatever edges are inserted, the structure never admits a cycle."""
    t = Taxonomy()
    for a, b in pairs:
        if a == b:
            continue
        try:
            t.add_edge(f"n{a}", f"n{b}")
        except CycleError:
            pass
    for node in t.nodes:
        assert not t.is_ancestor(node, node)
    # level_order covers every node exactly once
    seen = [n for level in t.level_order() for n in level]
    assert sorted(seen) == sorted(t.nodes)


def sibling_redundant_edges(taxonomy):
    """Reference: ``(a, c)`` is redundant when another child of ``a``
    reaches ``c`` (a descendant walk per edge and sibling)."""
    return {(parent, child) for parent, child in taxonomy.edges()
            if any(mid != child and taxonomy.is_ancestor(mid, child)
                   for mid in taxonomy.children(parent))}


@st.composite
def random_dags(draw):
    """A DAG over shuffled labels: edges run from lower to higher rank."""
    n = draw(st.integers(1, 12))
    label = [f"n{i}" for i in draw(st.permutations(range(n)))]
    ranks = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ranks, ranks), max_size=3 * n))
    return Taxonomy(nodes=label, edges=[(label[a], label[b])
                                        for a, b in edges if a < b])


@settings(max_examples=300, deadline=None)
@given(random_dags())
def test_pruning_matches_sibling_definition_property(t):
    """The parent rule finds the same edges as the sibling walk, and the
    reduction keeps reachability while leaving nothing redundant."""
    assert redundant_edges(t) == sibling_redundant_edges(t)
    reduced = transitive_reduction(t)
    for a in t.nodes:
        for b in t.nodes:
            assert reduced.is_ancestor(a, b) == t.is_ancestor(a, b)
    assert not sibling_redundant_edges(reduced)
