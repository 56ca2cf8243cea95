"""Edge classifier, hyponymy detector, and top-down expansion tests."""

import zlib
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    DetectorConfig, EdgeClassifier, ExpansionConfig, HyponymyDetector,
    LabeledPair, candidate_map, expand_taxonomy,
)
from repro.gnn import StructuralConfig, StructuralEncoder
from repro.graph import HeteroGraph
from repro.nn import Tensor
from repro.plm import BertConfig, MiniBert, RelationalEncoder, WordTokenizer
from repro.taxonomy import Taxonomy, transitive_reduction


@pytest.fixture()
def toy_graph():
    g = HeteroGraph()
    g.add_edge("food", "bread", HeteroGraph.TAXONOMY)
    g.add_edge("bread", "toast", HeteroGraph.CLICK, 0.7)
    g.add_edge("bread", "soup", HeteroGraph.CLICK, 0.1)
    g.add_edge("food", "soup", HeteroGraph.TAXONOMY)
    return g


@pytest.fixture()
def toy_structural(toy_graph, rng):
    features = rng.normal(size=(toy_graph.num_nodes, 8))
    return StructuralEncoder(toy_graph, features,
                             StructuralConfig(hidden_dim=8, position_dim=4))


@pytest.fixture()
def toy_relational():
    tok = WordTokenizer(["food", "bread", "toast", "soup", "is", "a"])
    model = MiniBert(BertConfig(vocab_size=tok.vocab_size, dim=8,
                                num_layers=1, num_heads=2, ffn_dim=16,
                                max_len=10, seed=0))
    return RelationalEncoder(model, tok)


class TestEdgeClassifier:
    def test_logit_shape(self, rng):
        clf = EdgeClassifier(6, hidden_dim=4, rng=rng)
        out = clf(Tensor(rng.normal(size=(5, 6))))
        assert out.shape == (5, 2)

    def test_probability_in_unit_interval(self, rng):
        clf = EdgeClassifier(6, hidden_dim=4, rng=rng)
        probs = clf.positive_probability(Tensor(rng.normal(size=(5, 6)))).data
        assert np.all((probs >= 0) & (probs <= 1))


class TestDetectorConfig:
    def test_requires_at_least_one_representation(self):
        with pytest.raises(ValueError):
            DetectorConfig(use_relational=False, use_structural=False)

    def test_missing_encoders_rejected(self, toy_structural):
        with pytest.raises(ValueError):
            HyponymyDetector(None, toy_structural, DetectorConfig())
        with pytest.raises(ValueError):
            HyponymyDetector(None, None,
                             DetectorConfig(use_structural=False))


class TestDetectorTraining:
    def _dataset(self):
        positives = [LabeledPair("bread", "toast", 1, "other"),
                     LabeledPair("food", "bread", 1, "other")]
        negatives = [LabeledPair("toast", "bread", 0, "shuffle"),
                     LabeledPair("bread", "soup", 0, "replace")]
        return positives + negatives

    def test_fit_learns_training_set(self, toy_relational, toy_structural):
        detector = HyponymyDetector(
            toy_relational, toy_structural,
            DetectorConfig(epochs=40, batch_size=4, lr=1e-2, plm_lr=1e-3))
        data = self._dataset()
        history = detector.fit(data)
        assert history[-1] < history[0]
        predictions = detector.predict([s.pair for s in data])
        labels = np.array([s.label for s in data])
        assert (predictions == labels).mean() >= 0.75

    def test_structural_only(self, toy_structural):
        detector = HyponymyDetector(
            None, toy_structural,
            DetectorConfig(use_relational=False, epochs=5, lr=1e-2))
        detector.fit(self._dataset())
        probs = detector.predict_proba([("bread", "toast")])
        assert probs.shape == (1,)

    def test_relational_only(self, toy_relational):
        detector = HyponymyDetector(
            toy_relational, None,
            DetectorConfig(use_structural=False, epochs=3, lr=1e-2))
        detector.fit(self._dataset())
        assert 0.0 <= detector.predict_proba([("food", "soup")])[0] <= 1.0

    def test_frozen_plm_leaves_bert_untouched(self, toy_relational,
                                              toy_structural):
        before = {k: v.copy() for k, v
                  in toy_relational.model.state_dict().items()}
        detector = HyponymyDetector(
            toy_relational, toy_structural,
            DetectorConfig(finetune_plm=False, epochs=3, lr=1e-2))
        detector.fit(self._dataset())
        after = toy_relational.model.state_dict()
        for key, value in before.items():
            assert np.allclose(value, after[key])

    def test_empty_training_set_rejected(self, toy_relational,
                                         toy_structural):
        detector = HyponymyDetector(toy_relational, toy_structural)
        with pytest.raises(ValueError):
            detector.fit([])

    def test_val_early_stopping_restores_best(self, toy_relational,
                                              toy_structural):
        data = self._dataset()
        detector = HyponymyDetector(
            toy_relational, toy_structural,
            DetectorConfig(epochs=6, batch_size=4, lr=1e-2))
        detector.fit(data, val=data)
        # After restore, predictions still work and history has all epochs.
        assert len(detector.history) == 6
        assert detector.predict_proba([("bread", "toast")]).shape == (1,)

    def test_predict_empty(self, toy_relational, toy_structural):
        detector = HyponymyDetector(toy_relational, toy_structural)
        assert detector.predict_proba([]).shape == (0,)

    def test_unknown_concept_handled(self, toy_relational, toy_structural):
        detector = HyponymyDetector(toy_relational, toy_structural)
        probs = detector.predict_proba([("bread", "alien concept")])
        assert probs.shape == (1,)


class OracleScorer:
    """Scores pairs from a ground-truth taxonomy."""

    def __init__(self, truth: Taxonomy):
        self.truth = truth

    def __call__(self, pairs):
        return np.array([
            1.0 if self.truth.is_ancestor(q, i) else 0.0 for q, i in pairs])


class TestExpansion:
    @pytest.fixture()
    def truth(self):
        t = Taxonomy()
        t.add_edge("food", "bread")
        t.add_edge("bread", "toast")
        t.add_edge("toast", "honey toast")
        t.add_edge("food", "soup")
        return t

    @pytest.fixture()
    def existing(self):
        t = Taxonomy()
        t.add_edge("food", "bread")
        t.add_edge("food", "soup")
        return t

    def test_oracle_expansion_attaches_correctly(self, truth, existing):
        candidates = {"bread": ["toast", "soup"],
                      "toast": ["honey toast"],
                      "soup": ["toast"]}
        result = expand_taxonomy(OracleScorer(truth), existing, candidates)
        assert result.taxonomy.has_edge("bread", "toast")
        assert result.taxonomy.has_edge("toast", "honey toast")
        assert not result.taxonomy.has_edge("soup", "toast")

    def test_depth_expansion_through_new_node(self, truth, existing):
        """'honey toast' attaches below 'toast', itself newly attached."""
        candidates = {"bread": ["toast"], "toast": ["honey toast"]}
        result = expand_taxonomy(OracleScorer(truth), existing, candidates)
        assert ("toast", "honey toast") in result.attached_edges

    def test_transitive_pruning(self, truth, existing):
        # Oracle says yes to both bread->toast and bread-> honey toast and
        # toast->honey toast; the long edge must be pruned.
        candidates = {"bread": ["toast", "honey toast"],
                      "toast": ["honey toast"]}
        result = expand_taxonomy(OracleScorer(truth), existing, candidates)
        assert not result.taxonomy.has_edge("bread", "honey toast")
        assert result.taxonomy.is_ancestor("bread", "honey toast")

    def test_no_pruning_when_disabled(self, truth, existing):
        candidates = {"bread": ["toast", "honey toast"],
                      "toast": ["honey toast"]}
        result = expand_taxonomy(OracleScorer(truth), existing, candidates,
                                 ExpansionConfig(prune_transitive=False))
        assert result.taxonomy.has_edge("bread", "honey toast")

    def test_threshold_respected(self, truth, existing):
        scorer = lambda pairs: np.full(len(pairs), 0.6)
        result = expand_taxonomy(scorer, existing, {"bread": ["toast"]},
                                 ExpansionConfig(threshold=0.7))
        assert result.num_attached == 0
        assert result.scored_pairs[("bread", "toast")] == pytest.approx(0.6)

    def test_cycle_never_created(self, existing):
        eager = lambda pairs: np.ones(len(pairs))
        candidates = {"food": ["bread"], "bread": ["food", "soup"],
                      "soup": ["bread"]}
        result = expand_taxonomy(eager, existing, candidates)
        for node in result.taxonomy.nodes:
            assert not result.taxonomy.is_ancestor(node, node)

    def test_max_children_cap(self, existing):
        eager = lambda pairs: np.ones(len(pairs))
        candidates = {"bread": [f"c{i}" for i in range(20)]}
        result = expand_taxonomy(eager, existing, candidates,
                                 ExpansionConfig(max_children_per_node=5))
        assert len(result.taxonomy.children("bread")) == 5

    def test_existing_not_mutated(self, truth, existing):
        edges_before = existing.edge_set()
        expand_taxonomy(OracleScorer(truth), existing, {"bread": ["toast"]})
        assert existing.edge_set() == edges_before

    def test_duplicate_candidates_count_once(self, existing):
        eager = lambda pairs: np.ones(len(pairs))
        result = expand_taxonomy(eager, existing, {"bread": ["a", "a", "b"]},
                                 ExpansionConfig(max_children_per_node=2))
        assert result.attached_edges == [("bread", "a"), ("bread", "b")]
        assert result.num_attached == 2
        result = expand_taxonomy(eager, existing,
                                 {"bread": ["toast", "toast"]})
        assert result.attached_edges == [("bread", "toast")]

    @pytest.mark.parametrize("candidates,calls", [
        ({"bread": ["toast"], "toast": ["honey toast"]},
         [[("bread", "toast")], [("toast", "honey toast")]]),
        ({"bread": ["toast", "soup"], "soup": ["toast"],
          "toast": ["honey toast"]},
         [[("bread", "toast"), ("bread", "soup"), ("soup", "toast")],
          [("toast", "honey toast")]]),
    ])
    def test_one_scorer_call_per_generation(self, truth, existing,
                                            candidates, calls):
        oracle = OracleScorer(truth)
        seen = []

        def recording(pairs):
            seen.append(list(pairs))
            return oracle(pairs)

        expand_taxonomy(recording, existing, candidates)
        assert seen == calls

    def test_callable_provider_called_once_per_node(self, truth, existing):
        candidates = {"bread": ["toast"], "toast": ["honey toast"]}
        asked = []

        def provider(node):
            asked.append(node)
            return candidates.get(node, ())

        expand_taxonomy(OracleScorer(truth), existing, provider)
        assert asked == ["food", "bread", "soup", "toast", "honey toast"]


def per_node_expansion(scorer, existing, candidates_by_query, config):
    """Reference: one scorer call per frontier node, in queue order.

    The sequential loop that generation batching replays, with repeated
    candidates dropped.  Returns (attached edges, scored pairs, final
    edge set).
    """
    expanded = existing.copy()
    attached_edges, scored_pairs = [], {}
    queue = deque(node for level in existing.level_order() for node in level)
    queued = set(queue)
    while queue:
        node = queue.popleft()
        items = dict.fromkeys(candidates_by_query.get(node, ()))
        candidates = [c for c in items
                      if c != node
                      and not expanded.has_edge(node, c)
                      and not expanded.is_ancestor(c, node)]
        if not candidates:
            continue
        probs = np.asarray(scorer([(node, c) for c in candidates]),
                           dtype=np.float64)
        ranked = sorted(zip(candidates, probs), key=lambda x: (-x[1], x[0]))
        attached = 0
        for candidate, prob in ranked:
            scored_pairs[(node, candidate)] = float(prob)
            if prob < config.threshold:
                continue
            if attached >= config.max_children_per_node:
                break
            if expanded.is_ancestor(candidate, node):
                continue
            expanded.add_edge(node, candidate)
            attached_edges.append((node, candidate))
            attached += 1
            if candidate not in queued:
                queue.append(candidate)
                queued.add(candidate)
    if config.prune_transitive:
        expanded = transitive_reduction(expanded)
    return attached_edges, scored_pairs, expanded.edge_set()


def crc_scorer(pairs):
    """A batch-invariant scorer: each pair's probability is its crc32."""
    return np.array([zlib.crc32(f"{query}\0{item}".encode()) / 2 ** 32
                     for query, item in pairs])


@st.composite
def expansion_cases(draw):
    """A random DAG, a candidate map over its nodes and new concepts
    (self- and cycle-inducing candidates included), and a config."""
    n = draw(st.integers(1, 8))
    label = [f"n{i}" for i in draw(st.permutations(range(n)))]
    ranks = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ranks, ranks), max_size=2 * n))
    existing = Taxonomy(nodes=label, edges=[(label[a], label[b])
                                            for a, b in edges if a < b])
    concepts = st.sampled_from(label + ["x0", "x1", "x2", "x3"])
    candidates = draw(st.dictionaries(concepts, st.lists(concepts,
                                                         max_size=6)))
    config = ExpansionConfig(
        threshold=draw(st.sampled_from([0.0, 0.25, 0.5, 0.9])),
        max_children_per_node=draw(st.integers(1, 4)),
        prune_transitive=draw(st.booleans()))
    return existing, candidates, config


@settings(max_examples=300, deadline=None)
@given(expansion_cases())
def test_generation_batching_matches_per_node_loop_property(case):
    existing, candidates, config = case
    attached, scored, edges = per_node_expansion(crc_scorer, existing,
                                                 candidates, config)
    result = expand_taxonomy(crc_scorer, existing, candidates, config)
    assert result.attached_edges == attached
    assert result.scored_pairs == scored
    assert result.taxonomy.edge_set() == edges


@pytest.mark.parametrize("threshold,cap", [(0.28, 200), (0.0, 2)])
def test_generation_batching_matches_per_node_loop_fitted(
        tiny_fitted_pipeline, small_world, small_click_log, threshold, cap):
    """The same equality with the fitted engine as the scorer.

    Observed, not guaranteed: a pair's float32 score can move in the last
    bits with its batch-mates, and so could a threshold comparison.
    """
    config = ExpansionConfig(threshold=threshold, max_children_per_node=cap)
    candidates = candidate_map(small_click_log, small_world.vocabulary)
    scorer = tiny_fitted_pipeline.score_pairs
    existing = small_world.existing_taxonomy
    attached, scored, edges = per_node_expansion(scorer, existing,
                                                 candidates, config)
    result = expand_taxonomy(scorer, existing, candidates, config)
    assert attached and result.attached_edges == attached
    assert result.scored_pairs == pytest.approx(scored, abs=1e-6)
    assert result.taxonomy.edge_set() == edges
