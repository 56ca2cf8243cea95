"""Artifact bundles: persist a *fitted* pipeline for the serving path.

Training and serving are decoupled processes (paper §I deploys the expanded
taxonomy online while training keeps consuming fresh behaviour data).  An
:class:`ArtifactBundle` snapshots everything inference needs — tokenizer
vocabulary, segmenter lexicon, C-BERT weights, structural-encoder state,
detector MLP, the full :class:`~repro.core.PipelineConfig`, plus the
taxonomy and concept vocabulary to serve — into one directory, and rebuilds
a pipeline whose ``score_pairs`` output matches the original bit-for-bit
(all arrays round-trip as float64 ``.npz``).

Bundle layout::

    manifest.json           format version, configs, tokenizer vocabulary
    bert.npz                MiniBert parameters (post-finetuning)
    structural.npz          StructuralEncoder parameters
    structural_arrays.npz   node features + weighted adjacency
    classifier.npz          detector MLP parameters
    taxonomy.json           taxonomy to serve (expanded or existing)
    vocabulary.json         clean concept vocabulary
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from ..core.detector import DetectorConfig, HyponymyDetector
from ..core.expansion import ExpansionConfig
from ..core.pipeline import PipelineConfig, TaxonomyExpansionPipeline
from ..core.selfsup import SelfSupConfig
from ..gnn import ContrastiveConfig, StructuralConfig, StructuralEncoder
from ..nn import load_module, save_module
from ..plm import (
    BertConfig, DictSegmenter, MiniBert, PretrainConfig, RelationalEncoder,
    WordTokenizer,
)
from ..taxonomy import (
    ConceptVocabulary, Taxonomy, load_taxonomy, save_taxonomy,
)

__all__ = ["ArtifactBundle", "SharedBundleView", "pipeline_config_to_dict",
           "pipeline_config_from_dict"]

FORMAT_VERSION = 1

MANIFEST = "manifest.json"
BERT_WEIGHTS = "bert.npz"
STRUCTURAL_WEIGHTS = "structural.npz"
STRUCTURAL_ARRAYS = "structural_arrays.npz"
CLASSIFIER_WEIGHTS = "classifier.npz"
TAXONOMY_FILE = "taxonomy.json"
VOCABULARY_FILE = "vocabulary.json"

#: nested dataclass fields of PipelineConfig, in reconstruction order
_NESTED_CONFIGS = {
    "pretrain": PretrainConfig,
    "contrastive": ContrastiveConfig,
    "structural": StructuralConfig,
    "selfsup": SelfSupConfig,
    "detector": DetectorConfig,
    "expansion": ExpansionConfig,
}


def pipeline_config_to_dict(config: PipelineConfig) -> dict:
    """A JSON-serialisable snapshot of a :class:`PipelineConfig`."""
    return asdict(config)


def _rebuild(cls, payload: dict):
    """Instantiate a config dataclass, restoring tuple-typed fields that
    JSON round-tripped as lists."""
    fields = {}
    for key, value in payload.items():
        if isinstance(value, list):
            value = tuple(value)
        fields[key] = value
    return cls(**fields)


def pipeline_config_from_dict(payload: dict) -> PipelineConfig:
    """Rebuild a :class:`PipelineConfig` from
    :func:`pipeline_config_to_dict` output."""
    fields = dict(payload)
    for name, cls in _NESTED_CONFIGS.items():
        fields[name] = _rebuild(cls, fields[name])
    return PipelineConfig(**fields)


@dataclass
class ArtifactBundle:
    """A fitted pipeline plus the taxonomy and vocabulary it serves.

    Create one with :meth:`export` (training side) or :meth:`load`
    (serving side); the two are exact inverses for scoring purposes.
    """

    pipeline: TaxonomyExpansionPipeline
    taxonomy: Taxonomy
    vocabulary: ConceptVocabulary
    directory: str | None = None

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    @classmethod
    def export(cls, pipeline: TaxonomyExpansionPipeline, directory: str,
               taxonomy: Taxonomy | None = None,
               vocabulary: ConceptVocabulary | None = None
               ) -> "ArtifactBundle":
        """Write every serving artifact of ``pipeline`` to ``directory``.

        ``taxonomy`` defaults to the pipeline's training-visible taxonomy;
        pass the expanded one to serve post-expansion state.  ``vocabulary``
        defaults to the segmenter's lexicon.
        """
        if pipeline.detector is None or pipeline.bert is None:
            raise RuntimeError("cannot export an unfitted pipeline")
        if taxonomy is None:
            taxonomy = pipeline.visible_taxonomy
        if taxonomy is None:
            raise ValueError("no taxonomy to export")
        if vocabulary is None:
            vocabulary = pipeline.segmenter.vocabulary
        os.makedirs(directory, exist_ok=True)

        tokenizer = pipeline.tokenizer
        vocab_words = [tokenizer.id_to_token(i)
                       for i in range(tokenizer.vocab_size)]
        manifest = {
            "format_version": FORMAT_VERSION,
            "pipeline_config": pipeline_config_to_dict(pipeline.config),
            "bert_config": asdict(pipeline.bert.config),
            # Specials are re-prepended by WordTokenizer; store only the rest.
            "tokenizer_vocab": vocab_words[tokenizer.num_special:],
            "has_structural": pipeline.structural is not None,
        }
        with open(os.path.join(directory, MANIFEST), "w",
                  encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1)

        save_module(pipeline.bert, os.path.join(directory, BERT_WEIGHTS))
        save_module(pipeline.detector.classifier,
                    os.path.join(directory, CLASSIFIER_WEIGHTS))
        if pipeline.structural is not None:
            save_module(pipeline.structural,
                        os.path.join(directory, STRUCTURAL_WEIGHTS))
            arrays = pipeline.structural.export_arrays()
            np.savez(os.path.join(directory, STRUCTURAL_ARRAYS),
                     nodes=np.asarray(arrays["nodes"], dtype=object),
                     features=arrays["features"],
                     adjacency=arrays["adjacency"])
        save_taxonomy(taxonomy, os.path.join(directory, TAXONOMY_FILE))
        with open(os.path.join(directory, VOCABULARY_FILE), "w",
                  encoding="utf-8") as handle:
            json.dump({"concepts": vocabulary.concepts()}, handle, indent=1)
        return cls(pipeline=pipeline, taxonomy=taxonomy,
                   vocabulary=vocabulary, directory=directory)

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, directory: str) -> "ArtifactBundle":
        """Rebuild a serving-ready pipeline from an exported bundle."""
        with open(os.path.join(directory, MANIFEST),
                  encoding="utf-8") as handle:
            manifest = json.load(handle)
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported bundle format version: {version!r}")
        config = pipeline_config_from_dict(manifest["pipeline_config"])

        tokenizer = WordTokenizer(manifest["tokenizer_vocab"])
        bert = MiniBert(BertConfig(**manifest["bert_config"]))
        load_module(bert, os.path.join(directory, BERT_WEIGHTS))
        bert.eval()
        relational = RelationalEncoder(bert, tokenizer,
                                       use_template=config.use_template)

        structural = None
        if manifest.get("has_structural"):
            with np.load(os.path.join(directory, STRUCTURAL_ARRAYS),
                         allow_pickle=True) as arrays:
                nodes = [str(node) for node in arrays["nodes"]]
                features = arrays["features"]
                adjacency = arrays["adjacency"]
            structural = StructuralEncoder.from_arrays(
                nodes, features, adjacency, config.structural)
            load_module(structural,
                        os.path.join(directory, STRUCTURAL_WEIGHTS))

        detector = HyponymyDetector(relational, structural, config.detector)
        load_module(detector.classifier,
                    os.path.join(directory, CLASSIFIER_WEIGHTS))

        with open(os.path.join(directory, VOCABULARY_FILE),
                  encoding="utf-8") as handle:
            vocabulary = ConceptVocabulary(
                json.load(handle)["concepts"])
        taxonomy = load_taxonomy(os.path.join(directory, TAXONOMY_FILE))

        pipeline = TaxonomyExpansionPipeline(config)
        pipeline.tokenizer = tokenizer
        pipeline.segmenter = DictSegmenter(vocabulary)
        pipeline.bert = bert
        pipeline.relational = relational
        pipeline.structural = structural
        pipeline.detector = detector
        pipeline.visible_taxonomy = taxonomy

        # Compile the graph-free inference engine at load time so the
        # first request never pays compilation cost.
        detector.compile_inference()
        return cls(pipeline=pipeline, taxonomy=taxonomy,
                   vocabulary=vocabulary, directory=directory)

    # ------------------------------------------------------------------
    # delegation
    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The bundled detector's compiled
        :class:`~repro.infer.InferenceEngine` (compiled on first use)."""
        return self.pipeline.compile_inference()

    def score_pairs(self, pairs: list[tuple[str, str]]) -> np.ndarray:
        """Positive-class probabilities from the bundled detector."""
        return self.pipeline.score_pairs(pairs)


class SharedBundleView:
    """A worker-side bundle served entirely from shared-memory segments.

    The zero-copy counterpart of :meth:`ArtifactBundle.load` for pool
    workers: instead of re-reading weights from disk and compiling its own
    engine, the worker attaches the parent's published segments
    (:func:`repro.serving.shm.attach_manifest`) and rebuilds an
    :class:`~repro.infer.InferenceEngine` whose weight arrays are read-only
    views over the shared buffers — scores are bit-identical to a
    privately loaded bundle because the views *are* the parent engine's
    arrays.  Exposes the same ``score_pairs`` / ``engine`` surface the
    worker loop uses, so the private :class:`ArtifactBundle` fallback
    stays a drop-in swap.
    """

    mode = "shared"

    def __init__(self, engine, view, directory: str | None = None):
        self.engine = engine
        self.view = view
        self.directory = directory

    @classmethod
    def attach(cls, manifest: dict,
               directory: str | None = None) -> "SharedBundleView":
        """Attach a published manifest and build the view-backed engine.

        Raises when any segment is missing or incompatible — the worker
        loop treats that as "fall back to ``ArtifactBundle.load``".
        """
        from ..infer.engine import InferenceEngine
        from .shm import attach_manifest
        view = attach_manifest(manifest)
        try:
            engine = InferenceEngine.attach_shared(view.meta, view.arrays)
        except BaseException:
            view.close()
            raise
        return cls(engine, view, directory=directory)

    def score_pairs(self, pairs: list[tuple[str, str]]) -> np.ndarray:
        """Positive-class probabilities from the attached engine."""
        return self.engine.score_pairs(pairs)

    def close(self) -> None:
        """Unmap the attached segments (best-effort, idempotent)."""
        self.view.close()
