"""Hyponymy detector (paper §III-B): fuses relational and structural
representations and classifies candidate edges.

The edge representation is ``e = [r_{q,i} ⊕ s_{q,i}]`` (Eq. 14); either
component can be disabled for the Table VI feature ablation.  ``finetune_plm``
controls whether gradients flow into C-BERT during edge training (the
"- Finetune" row of Table VIII).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..gnn import StructuralEncoder
from ..nn import Adam, Tensor, clip_grad_norm, cross_entropy, no_grad
from ..plm import RelationalEncoder
from .classifier import EdgeClassifier
from .selfsup import LabeledPair

__all__ = ["DetectorConfig", "HyponymyDetector"]


@dataclass(frozen=True)
class DetectorConfig:
    """Training and composition knobs for the detector."""

    use_relational: bool = True
    use_structural: bool = True
    finetune_plm: bool = True
    epochs: int = 5
    batch_size: int = 32
    lr: float = 2e-3
    #: learning rate applied to the PLM when finetuning (smaller than the
    #: head lr, the usual BERT-finetuning recipe)
    plm_lr: float = 2e-4
    weight_decay: float = 1e-4
    hidden_dim: int = 32
    grad_clip: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if not (self.use_relational or self.use_structural):
            raise ValueError("at least one representation must be enabled")


class HyponymyDetector:
    """Trainable edge classifier over (relational ⊕ structural) features."""

    def __init__(self, relational: RelationalEncoder | None,
                 structural: StructuralEncoder | None,
                 config: DetectorConfig | None = None):
        self.config = config or DetectorConfig()
        if self.config.use_relational and relational is None:
            raise ValueError("relational encoder required by config")
        if self.config.use_structural and structural is None:
            raise ValueError("structural encoder required by config")
        self.relational = relational if self.config.use_relational else None
        self.structural = structural if self.config.use_structural else None

        in_dim = 0
        if self.relational is not None:
            in_dim += self.relational.dim
        if self.structural is not None:
            in_dim += self.structural.out_dim
        rng = np.random.default_rng(self.config.seed)
        self.classifier = EdgeClassifier(in_dim, self.config.hidden_dim,
                                         rng=rng)
        self.history: list[float] = []
        # Node embeddings are fixed between weight updates; cache them
        # across the autograd oracle's calls (validation scores every
        # epoch's whole split).
        self._node_cache = None
        self._engine = None
        self._engine_lock = threading.Lock()

    # ------------------------------------------------------------------
    # feature assembly
    # ------------------------------------------------------------------
    def edge_features(self, pairs: list[tuple[str, str]],
                      node_embeddings: Tensor | None = None) -> Tensor:
        """Eq. 14 edge representations for a batch of pairs."""
        parts: list[Tensor] = []
        if self.relational is not None:
            rel = self.relational.encode_pairs(pairs)
            if not self.config.finetune_plm:
                rel = rel.detach()
            parts.append(rel)
        if self.structural is not None:
            parts.append(self.structural.pair_representation(
                pairs, node_embeddings))
        if len(parts) == 1:
            return parts[0]
        return Tensor.concatenate(parts, axis=1)

    def _optimizers(self) -> list[Adam]:
        head_params = list(self.classifier.parameters())
        if self.structural is not None:
            head_params += self.structural.parameters()
        optimizers = [Adam(head_params, lr=self.config.lr,
                           weight_decay=self.config.weight_decay)]
        if self.relational is not None and self.config.finetune_plm:
            optimizers.append(Adam(self.relational.model.parameters(),
                                   lr=self.config.plm_lr,
                                   weight_decay=self.config.weight_decay))
        return optimizers

    # ------------------------------------------------------------------
    # training / inference
    # ------------------------------------------------------------------
    def _snapshot(self) -> dict:
        state = {"classifier": self.classifier.state_dict()}
        if self.structural is not None:
            state["structural"] = self.structural.state_dict()
        if self.relational is not None and self.config.finetune_plm:
            state["plm"] = self.relational.model.state_dict()
        return state

    def _restore(self, state: dict) -> None:
        self.classifier.load_state_dict(state["classifier"])
        if "structural" in state:
            self.structural.load_state_dict(state["structural"])
        if "plm" in state:
            self.relational.model.load_state_dict(state["plm"])

    def _val_accuracy(self, val: list[LabeledPair]) -> float:
        self._node_cache = None  # parameters just changed this epoch
        pairs = [s.pair for s in val]
        labels = np.array([s.label for s in val])
        # Model selection always uses the float64 autograd oracle: weights
        # change every epoch (compiling an engine per epoch is waste) and
        # the chosen epoch must not depend on the serving dtype.
        predictions = (self._predict_autograd(pairs) >= 0.5).astype(np.int64)
        return float((predictions == labels).mean())

    def fit(self, train: list[LabeledPair],
            val: list[LabeledPair] | None = None) -> list[float]:
        """Train on labelled pairs; returns per-epoch mean loss history.

        When a validation split is given, the epoch with the best validation
        accuracy is restored at the end (standard model selection).
        """
        if not train:
            raise ValueError("empty training set")
        self._node_cache = None
        self._engine = None  # weights are about to change
        rng = np.random.default_rng(self.config.seed)
        optimizers = self._optimizers()
        best_val, best_state = -1.0, None
        if self.relational is not None:
            self.relational.model.train()
        for _ in range(self.config.epochs):
            order = rng.permutation(len(train))
            epoch_losses: list[float] = []
            for start in range(0, len(train), self.config.batch_size):
                batch = [train[i] for i in order[start:start
                                                 + self.config.batch_size]]
                pairs = [s.pair for s in batch]
                labels = np.array([s.label for s in batch], dtype=np.int64)
                for optimizer in optimizers:
                    optimizer.zero_grad()
                logits = self.classifier(self.edge_features(pairs))
                loss = cross_entropy(logits, labels)
                loss.backward()
                for optimizer in optimizers:
                    clip_grad_norm(optimizer.parameters,
                                   self.config.grad_clip)
                    optimizer.step()
                epoch_losses.append(loss.item())
            self.history.append(float(np.mean(epoch_losses)))
            if val:
                score = self._val_accuracy(val)
                if score > best_val:
                    best_val, best_state = score, self._snapshot()
        if best_state is not None:
            self._restore(best_state)
        self._node_cache = None
        self._engine = None  # stale snapshot of pre-training weights
        if self.relational is not None:
            self.relational.model.eval()
        return self.history

    # ------------------------------------------------------------------
    # inference-engine integration
    # ------------------------------------------------------------------
    def compile_inference(self, force: bool = False):
        """The fitted detector as a graph-free float32 engine (cached).

        ``fit`` invalidates the cached engine automatically; pass
        ``force=True`` after any other in-place weight mutation.
        """
        with self._engine_lock:
            if self._engine is None or force:
                from ..infer import InferenceEngine
                self._engine = InferenceEngine(self)
            return self._engine

    @property
    def inference_engine(self):
        """The compiled engine, or ``None`` if not compiled yet."""
        return self._engine

    def predict_proba(self, pairs: list[tuple[str, str]]) -> np.ndarray:
        """Positive-class probabilities for candidate pairs.

        Scored by the compiled float32 engine (:meth:`compile_inference`),
        which bounds peak memory by its own ``max_batch``.  Scores agree
        with the float64 autograd oracle (:meth:`_predict_autograd`)
        within the engine's documented tolerance, with identical
        rankings.
        """
        return self.compile_inference().score_pairs(
            [(str(q), str(i)) for q, i in pairs])

    def _predict_autograd(self, pairs: list[tuple[str, str]],
                          batch_size: int = 128) -> np.ndarray:
        """The original float64 autograd scoring path (parity oracle)."""
        if not pairs:
            return np.zeros(0)
        probs: list[np.ndarray] = []
        with no_grad():
            if self.structural is None:
                node_embeddings = None
            else:
                if self._node_cache is None:
                    self._node_cache = \
                        self.structural.node_embeddings().detach()
                node_embeddings = self._node_cache
            for start in range(0, len(pairs), batch_size):
                chunk = pairs[start:start + batch_size]
                features = self.edge_features(chunk, node_embeddings)
                probs.append(
                    self.classifier.positive_probability(features).data)
        return np.concatenate(probs)

    def predict(self, pairs: list[tuple[str, str]],
                threshold: float = 0.5) -> np.ndarray:
        """Binary decisions at ``threshold``."""
        return (self.predict_proba(pairs) >= threshold).astype(np.int64)
