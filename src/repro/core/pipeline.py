"""End-to-end taxonomy-expansion pipeline (paper Figure 1).

Wires every stage together:

1. build the heterogeneous click graph from the existing taxonomy and logs,
2. pretrain C-BERT on UGC with concept-level masking,
3. contrastively pretrain node features, build the structural encoder,
4. generate the adaptively self-supervised dataset,
5. train the hyponymy detector (relational ⊕ structural -> MLP),
6. expand the taxonomy top-down.

Every design choice exercised by the paper's ablations (Tables VI, VIII, IX)
is a field of :class:`PipelineConfig`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

from ..gnn import (
    ContrastiveConfig, StructuralConfig, StructuralEncoder,
    contrastive_pretrain,
)
from ..graph import ConceptMatcher, GraphConstructionResult, HeteroGraph, \
    build_heterograph, collect_concept_clicks
from ..plm import (
    BertConfig, DictSegmenter, MiniBert, PretrainConfig, RelationalEncoder,
    WordTokenizer, pretrain_mlm,
)
from ..synthetic.clicklogs import ClickLog
from ..taxonomy import ConceptVocabulary, Taxonomy
from .detector import DetectorConfig, HyponymyDetector
from .expansion import ExpansionConfig, ExpansionResult, expand_taxonomy
from .selfsup import SelfSupConfig, SelfSupDataset, generate_dataset

__all__ = ["PipelineConfig", "TaxonomyExpansionPipeline", "candidate_map"]


@dataclass(frozen=True)
class PipelineConfig:
    """All framework knobs in one place.

    Ablation switches (paper table in parentheses):

    * ``pretrain.strategy`` = "token"  -> "- Concept-level Masking" (VIII)
    * ``use_template=False``           -> "- Template" (VIII)
    * ``detector.finetune_plm=False``  -> "- Finetune" (VIII)
    * ``structural.use_edge_weights=False`` -> "- Edge Attribute" (VIII)
    * ``use_click_graph=False``        -> "- User Click Graph" (VIII)
    * ``use_contrastive=False``        -> "- Contrastive Learning" (VIII)
    * ``structural.use_position=False``-> "- Position Embedding" (VIII)
    * ``detector.use_relational/use_structural`` -> feature ablation (VI)
    * ``structural.num_hops/aggregator``, ``contrastive.negative_rate`` (IX)
    * ``random_features=True``         -> S_Random in Table VI
    """

    seed: int = 0
    bert_dim: int = 32
    bert_layers: int = 2
    bert_heads: int = 4
    bert_ffn: int = 64
    bert_max_len: int = 24
    pretrain: PretrainConfig = field(default_factory=lambda: PretrainConfig(
        steps=1200, batch_size=16, lr=3e-3, strategy="concept"))
    contrastive: ContrastiveConfig = field(
        default_factory=lambda: ContrastiveConfig(steps=100))
    structural: StructuralConfig = field(default_factory=StructuralConfig)
    selfsup: SelfSupConfig = field(default_factory=SelfSupConfig)
    detector: DetectorConfig = field(default_factory=lambda: DetectorConfig(
        epochs=20, batch_size=16, lr=3e-3, plm_lr=3e-4))
    expansion: ExpansionConfig = field(default_factory=ExpansionConfig)
    use_template: bool = True
    use_click_graph: bool = True
    use_contrastive: bool = True
    #: replace C-BERT node features with random vectors (S_Random)
    random_features: bool = False
    #: add self-supervised "q is a i" sentences from existing-taxonomy
    #: edges (train-side only) to the C-BERT pretraining corpus.  This is a
    #: scale substitution (DESIGN.md §2): web-scale BERT arrives knowing the
    #: "is a" construction; our from-scratch MiniBert must be taught it from
    #: the same self-supervision source the dataset generator uses.
    isa_pretraining: bool = True
    #: how many template sentences per usable taxonomy edge
    isa_sentences_per_edge: int = 3


def candidate_map(click_log: ClickLog, vocabulary: ConceptVocabulary
                  ) -> dict[str, list[str]]:
    """Query concept -> identified item concepts, over the whole log.

    Unlike graph construction (which only keeps existing-taxonomy queries),
    this map also covers queries that are *new* concepts, so the top-down
    traversal can keep expanding below freshly attached nodes.
    """
    matcher = ConceptMatcher(vocabulary)
    by_query: dict[str, set[str]] = defaultdict(set)
    for (query, item), _count in click_log.counts.items():
        concept = matcher(item)
        if concept is not None and concept != query:
            by_query[query].add(concept)
    return {query: sorted(items) for query, items in by_query.items()}


class TaxonomyExpansionPipeline:
    """Orchestrates training and inference for one domain world."""

    def __init__(self, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        # Populated by fit():
        self.tokenizer: WordTokenizer | None = None
        self.segmenter: DictSegmenter | None = None
        self.bert: MiniBert | None = None
        self.relational: RelationalEncoder | None = None
        self.structural: StructuralEncoder | None = None
        self.detector: HyponymyDetector | None = None
        self.graph_result: GraphConstructionResult | None = None
        self.dataset: SelfSupDataset | None = None
        self.visible_taxonomy = None
        self.pretrain_history: list[float] = []
        self.contrastive_history: list[float] = []

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, existing: Taxonomy, vocabulary: ConceptVocabulary,
            click_log: ClickLog, ugc: list[str]) -> "TaxonomyExpansionPipeline":
        """Run stages 1-5; returns self for chaining."""
        config = self.config

        # Stage 4 is pulled forward: the self-supervised dataset must exist
        # before graph construction and pretraining so that the val/test
        # positive edges can be hidden from every training-time input
        # (no leakage into evaluation).
        click_pairs = set(collect_concept_clicks(
            existing, vocabulary, click_log).concept_clicks)
        self.dataset = generate_dataset(existing, click_pairs, config.selfsup)
        held_out_edges = {s.pair for s in self.dataset.val + self.dataset.test
                          if s.label == 1}
        self.visible_taxonomy = existing.copy()
        for parent, child in held_out_edges:
            if self.visible_taxonomy.has_edge(parent, child):
                self.visible_taxonomy.remove_edge(parent, child)

        # Stage 1 — heterogeneous graph over the training-visible taxonomy.
        self.graph_result = build_heterograph(
            self.visible_taxonomy, vocabulary, click_log)
        graph = self.graph_result.graph
        if not config.use_click_graph:
            taxonomy_only = HeteroGraph()
            for node in graph.nodes:
                taxonomy_only.add_node(node)
            for source, target, etype, weight in graph.edges(
                    HeteroGraph.TAXONOMY):
                taxonomy_only.add_edge(source, target, etype, weight)
            graph = taxonomy_only

        # Stage 2 — C-BERT pretraining on UGC (+ optional isa curriculum).
        corpus = list(ugc)
        if config.isa_pretraining:
            usable = sorted(self.visible_taxonomy.edges())
            for parent, child in usable:
                corpus.extend([f"{parent} is a {child}"]
                              * config.isa_sentences_per_edge)
        concept_tokens = sorted({t for c in vocabulary for t in c.split()})
        self.tokenizer = WordTokenizer.from_corpus(
            corpus, extra_words=concept_tokens)
        self.segmenter = DictSegmenter(vocabulary)
        self.bert = MiniBert(BertConfig(
            vocab_size=self.tokenizer.vocab_size, dim=config.bert_dim,
            num_layers=config.bert_layers, num_heads=config.bert_heads,
            ffn_dim=config.bert_ffn, max_len=config.bert_max_len,
            seed=config.seed))
        self.pretrain_history = pretrain_mlm(
            self.bert, corpus, self.tokenizer, self.segmenter,
            config.pretrain)
        self.relational = RelationalEncoder(
            self.bert, self.tokenizer, use_template=config.use_template)

        # Stage 3 — node features + structural encoder.
        nodes = graph.nodes
        if config.random_features:
            rng = np.random.default_rng(config.seed)
            features = rng.normal(0.0, 0.1, size=(len(nodes), config.bert_dim))
        else:
            features = self.relational.concept_embedding_matrix(nodes)
        if config.use_contrastive:
            features, self.contrastive_history = contrastive_pretrain(
                graph, features, config.contrastive)
        self.structural = StructuralEncoder(graph, features,
                                            config.structural)

        # Stage 5 — detector training.
        self.detector = HyponymyDetector(self.relational, self.structural,
                                         config.detector)
        self.detector.fit(self.dataset.train, self.dataset.val)
        return self

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def score_pairs(self, pairs: list[tuple[str, str]]) -> np.ndarray:
        """Positive-class probabilities from the trained detector.

        Routed through the graph-free float32 inference engine (see
        :mod:`repro.infer`).
        """
        if self.detector is None:
            raise RuntimeError("pipeline not fitted")
        return self.detector.predict_proba(pairs)

    def compile_inference(self, force: bool = False):
        """Eagerly compile the detector's inference engine (see
        :meth:`~repro.core.HyponymyDetector.compile_inference`)."""
        if self.detector is None:
            raise RuntimeError("pipeline not fitted")
        return self.detector.compile_inference(force=force)

    def expand(self, existing: Taxonomy, click_log: ClickLog,
               vocabulary: ConceptVocabulary) -> ExpansionResult:
        """Stage 6 — top-down expansion of ``existing``."""
        candidates = candidate_map(click_log, vocabulary)
        return expand_taxonomy(self.score_pairs, existing, candidates,
                               self.config.expansion)

    def concept_embedding_matrix(self, concepts: list[str],
                                 pool: str = "cls") -> np.ndarray:
        """Frozen C-BERT concept embeddings, shape ``(len(concepts), dim)``.

        The embedding source for the distance/TaxoExpan/TMN/STEAM
        baselines.  Routed through the compiled engine's cached concept
        encoder; the float64 autograd encoder serves a pipeline whose
        detector is not fitted yet or has no relational encoder.
        """
        if self.relational is None:
            raise RuntimeError("pipeline not fitted")
        if self.detector is not None:
            engine = self.detector.compile_inference()
            if engine.bert is not None:
                return engine.concept_embedding_matrix(concepts, pool=pool)
        return self.relational.concept_embedding_matrix(concepts, pool=pool)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def with_overrides(self, **kwargs) -> "PipelineConfig":
        """A copy of the config with fields replaced (ablation helper)."""
        return replace(self.config, **kwargs)
