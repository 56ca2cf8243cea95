"""Graph-free inference kernels: the scoring hot path without autograd.

Under ``no_grad`` the :class:`~repro.nn.Tensor` engine still pays for graph
bookkeeping, float64 arithmetic, and one Python object per intermediate.
For online serving none of that is needed — weights are frozen and only the
forward values matter.  This module executes the same mathematics as the
module tree in :mod:`repro.nn.layers` / :mod:`repro.nn.attention` as fused
pure-numpy kernels over contiguous float32 arrays:

* :func:`linear` — GEMM + bias into a reusable output buffer,
* :func:`gelu_` / :func:`layer_norm_` — in-place elementwise stages,
* :func:`multi_head_attention` — single-pass attention with one packed
  QKV projection and softmax computed in place on the score buffer,
* :class:`CompiledBert` — a :class:`~repro.plm.MiniBert` exported once
  into flat weight arrays and executed with zero ``Tensor`` allocation,
* :class:`CompiledClassifier` — the detector MLP head as two GEMMs,
* :class:`CompiledPropagation` — K hops of GCN/SAGE/GAT message passing
  as CSR gather/segment-reduce kernels (:func:`gcn_propagate_rows` and
  friends), executable over any *subset* of node rows so the engine can
  recompute only a dirty frontier after an incremental graph update.

The float64 autograd path remains the training substrate and the parity
oracle; ``tests/test_inference_engine.py`` asserts per-layer and
end-to-end agreement within :data:`SCORE_TOLERANCE`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SCORE_TOLERANCE", "Workspace", "linear", "gelu_", "layer_norm_",
    "softmax_", "stable_sigmoid", "multi_head_attention",
    "CompiledBert", "CompiledClassifier", "CompiledPropagation",
    "gcn_propagate_rows", "sage_propagate_rows", "gat_propagate_rows",
]

#: documented max abs deviation of fast-path probabilities from the
#: float64 autograd oracle (float32 rounding through a 2-layer encoder
#: plus the MLP head stays well under this)
SCORE_TOLERANCE = 1e-4

_MASK_BIAS = np.float32(-1e9)


class Workspace:
    """Named scratch buffers reused across forward calls.

    Buckets in the serving path repeat the same ``(batch, seq)`` shapes
    constantly; keeping one buffer per kernel site avoids re-allocating
    the large intermediates (QKV, attention scores, FFN hidden) on every
    call.  A buffer is re-allocated only when its shape or dtype changes.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple, dtype=np.float32) -> np.ndarray:
        buffer = self._buffers.get(name)
        if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
            buffer = np.empty(shape, dtype=dtype)
            self._buffers[name] = buffer
        return buffer

    def clear(self) -> None:
        self._buffers.clear()

    @property
    def nbytes(self) -> int:
        """Bytes held by every scratch buffer."""
        return sum(buffer.nbytes for buffer in self._buffers.values())


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
           out: np.ndarray | None = None) -> np.ndarray:
    """``x @ weight + bias`` written into ``out`` when provided.

    Leading axes are flattened so the whole batch runs as ONE GEMM —
    ``np.matmul`` on a stacked 3D input would otherwise dispatch one
    small GEMM per batch row, which dominates at serving batch shapes.
    """
    if x.ndim > 2:
        lead = x.shape[:-1]
        flat_out = None if out is None else out.reshape(-1, weight.shape[1])
        flat = np.matmul(x.reshape(-1, x.shape[-1]), weight, out=flat_out)
        out = flat.reshape(*lead, weight.shape[1])
    else:
        out = np.matmul(x, weight, out=out)
    if bias is not None:
        out += bias
    return out


#: cached all-ones vectors backing the GEMV-style row reductions below
_ONES_CACHE: dict[tuple[int, np.dtype], np.ndarray] = {}


def _ones(n: int, dtype) -> np.ndarray:
    key = (n, np.dtype(dtype))
    vec = _ONES_CACHE.get(key)
    if vec is None:
        vec = np.ones(n, dtype=dtype)
        _ONES_CACHE[key] = vec
    return vec


def _row_sum(flat: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum over axis 1 as a BLAS GEMV.

    numpy's generic reduction machinery is an order of magnitude slower
    than a matrix-vector product when rows are short (attention rows are
    ``seq`` long, layernorm rows ``dim`` long).
    """
    return np.matmul(flat, _ones(flat.shape[1], flat.dtype), out=out)


def _row_max(flat: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Max over axis 1 via a column sweep (no BLAS max exists).

    ``width - 1`` full-height ``np.maximum`` passes beat one tiny-axis
    ``ndarray.max`` by >10x at attention shapes; bit-identical result.
    """
    np.copyto(out, flat[:, 0])
    for column in range(1, flat.shape[1]):
        np.maximum(out, flat[:, column], out=out)
    return out


def gelu_(x: np.ndarray, workspace: "Workspace | None" = None,
          site: str = "gelu") -> np.ndarray:
    """In-place tanh-approximation GELU (matches ``Tensor.gelu``)."""
    dtype = x.dtype.type
    if workspace is None:
        inner = np.empty_like(x)
    else:
        inner = workspace.get(f"{site}.inner", x.shape, x.dtype)
    np.square(x, out=inner)
    inner *= x
    inner *= dtype(0.044715)
    inner += x
    inner *= dtype(np.sqrt(2.0 / np.pi))
    np.tanh(inner, out=inner)
    inner += dtype(1.0)
    x *= inner
    x *= dtype(0.5)
    return x


def layer_norm_(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                eps: float, workspace: "Workspace | None" = None,
                site: str = "ln") -> np.ndarray:
    """In-place layer normalisation over the last axis."""
    if not x.flags.c_contiguous:
        # Generic fallback: reductions through the numpy axis machinery.
        x -= x.mean(axis=-1, keepdims=True)
        var = np.mean(np.square(x), axis=-1, keepdims=True)
        var += eps
        np.sqrt(var, out=var)
        x /= var
        x *= gamma
        x += beta
        return x
    dim = x.shape[-1]
    flat = x.reshape(-1, dim)
    dtype = x.dtype.type
    if workspace is None:
        stat = np.empty(flat.shape[0], dtype=x.dtype)
        squares = np.empty_like(flat)
    else:
        stat = workspace.get(f"{site}.stat", (flat.shape[0],), x.dtype)
        squares = workspace.get(f"{site}.squares", flat.shape, x.dtype)
    inv_dim = dtype(1.0 / dim)
    _row_sum(flat, stat)
    stat *= inv_dim
    flat -= stat[:, None]
    np.square(flat, out=squares)
    _row_sum(squares, stat)
    stat *= inv_dim
    stat += dtype(eps)
    np.sqrt(stat, out=stat)
    flat /= stat[:, None]
    flat *= gamma
    flat += beta
    return x


def softmax_(scores: np.ndarray, workspace: "Workspace | None" = None,
             site: str = "softmax") -> np.ndarray:
    """In-place softmax over the last axis."""
    if not scores.flags.c_contiguous:
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        return scores
    width = scores.shape[-1]
    flat = scores.reshape(-1, width)
    if workspace is None:
        stat = np.empty(flat.shape[0], dtype=scores.dtype)
    else:
        stat = workspace.get(f"{site}.stat", (flat.shape[0],), scores.dtype)
    _row_max(flat, stat)
    flat -= stat[:, None]
    np.exp(flat, out=flat)
    _row_sum(flat, stat)
    flat /= stat[:, None]
    return scores


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Clipped sigmoid matching ``Tensor.sigmoid`` numerics."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def multi_head_attention(x: np.ndarray, w_qkv: np.ndarray,
                         b_qkv: np.ndarray, w_out: np.ndarray,
                         b_out: np.ndarray, num_heads: int,
                         mask_bias: np.ndarray | None,
                         workspace: Workspace, site: str,
                         scale: float | None = None) -> np.ndarray:
    """Single-pass multi-head self-attention.

    The three projections are packed into one ``(dim, 3*dim)`` GEMM;
    scores are masked and softmaxed in place on a workspace buffer.
    ``mask_bias`` is ``(batch, seq)`` additive bias (0 for real tokens,
    ``-1e9`` for padding keys).  ``scale=None`` means the ``1/sqrt(d_h)``
    factor is already folded into the query projection weights (what
    :class:`CompiledBert` exports); pass it explicitly for raw weights.
    """
    batch, seq, dim = x.shape
    head_dim = dim // num_heads
    qkv = linear(x, w_qkv, b_qkv,
                 out=workspace.get(f"{site}.qkv", (batch, seq, 3 * dim)))
    heads = qkv.reshape(batch, seq, 3, num_heads, head_dim)
    q = heads[:, :, 0].transpose(0, 2, 1, 3)
    k = heads[:, :, 1].transpose(0, 2, 1, 3)
    v = heads[:, :, 2].transpose(0, 2, 1, 3)

    scores = np.matmul(
        q, k.transpose(0, 1, 3, 2),
        out=workspace.get(f"{site}.scores", (batch, num_heads, seq, seq)))
    if scale is not None:
        scores *= np.asarray(scale, dtype=scores.dtype)
    if mask_bias is not None:
        scores += mask_bias[:, None, None, :]
    softmax_(scores, workspace, f"{site}.softmax")

    context = np.matmul(
        scores, v,
        out=workspace.get(f"{site}.context",
                          (batch, num_heads, seq, head_dim)))
    merged = np.ascontiguousarray(context.transpose(0, 2, 1, 3)) \
        .reshape(batch, seq, dim)
    return linear(merged, w_out, b_out,
                  out=workspace.get(f"{site}.out", (batch, seq, dim)))


def _flat(array: np.ndarray, dtype) -> np.ndarray:
    """A contiguous copy of an autograd parameter in the engine dtype."""
    return np.ascontiguousarray(np.asarray(array), dtype=dtype)


class _CompiledEncoderLayer:
    """Weights of one transformer block, exported for kernel execution."""

    __slots__ = ("w_qkv", "b_qkv", "w_attn_out", "b_attn_out",
                 "norm1_gamma", "norm1_beta", "norm1_eps",
                 "w_ffn1", "b_ffn1", "w_ffn2", "b_ffn2",
                 "norm2_gamma", "norm2_beta", "norm2_eps")

    #: array-valued slots, exported verbatim into shared-memory segments
    ARRAY_FIELDS = ("w_qkv", "b_qkv", "w_attn_out", "b_attn_out",
                    "norm1_gamma", "norm1_beta",
                    "w_ffn1", "b_ffn1", "w_ffn2", "b_ffn2",
                    "norm2_gamma", "norm2_beta")
    #: scalar slots, carried in the (picklable) manifest meta instead
    SCALAR_FIELDS = ("norm1_eps", "norm2_eps")

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict) -> "_CompiledEncoderLayer":
        """Rebuild a layer over externally owned (e.g. shared) arrays."""
        layer = object.__new__(cls)
        for name in cls.ARRAY_FIELDS:
            setattr(layer, name, arrays[name])
        for name in cls.SCALAR_FIELDS:
            setattr(layer, name, float(meta[name]))
        return layer

    def export_arrays(self) -> tuple[dict, dict]:
        """Split the layer into (scalar meta, array fields)."""
        meta = {name: getattr(self, name) for name in self.SCALAR_FIELDS}
        arrays = {name: getattr(self, name) for name in self.ARRAY_FIELDS}
        return meta, arrays

    def __init__(self, layer, dtype):
        attention = layer.attention
        # The 1/sqrt(head_dim) score scale is folded into the query
        # projection at export time, removing one full pass over the
        # (batch, heads, seq, seq) score tensor per layer per call.
        scale = 1.0 / np.sqrt(attention.head_dim)
        self.w_qkv = np.ascontiguousarray(np.concatenate(
            [attention.query.weight.data * scale, attention.key.weight.data,
             attention.value.weight.data], axis=1), dtype=dtype)
        self.b_qkv = np.ascontiguousarray(np.concatenate(
            [attention.query.bias.data * scale, attention.key.bias.data,
             attention.value.bias.data]), dtype=dtype)
        self.w_attn_out = _flat(attention.out.weight.data, dtype)
        self.b_attn_out = _flat(attention.out.bias.data, dtype)
        self.norm1_gamma = _flat(layer.norm1.gamma.data, dtype)
        self.norm1_beta = _flat(layer.norm1.beta.data, dtype)
        self.norm1_eps = float(layer.norm1.eps)
        ffn_in, _, ffn_out = layer.ffn.modules
        self.w_ffn1 = _flat(ffn_in.weight.data, dtype)
        self.b_ffn1 = _flat(ffn_in.bias.data, dtype)
        self.w_ffn2 = _flat(ffn_out.weight.data, dtype)
        self.b_ffn2 = _flat(ffn_out.bias.data, dtype)
        self.norm2_gamma = _flat(layer.norm2.gamma.data, dtype)
        self.norm2_beta = _flat(layer.norm2.beta.data, dtype)
        self.norm2_eps = float(layer.norm2.eps)


class CompiledBert:
    """A frozen :class:`~repro.plm.MiniBert` as flat arrays + kernels.

    Built once via :meth:`~repro.plm.MiniBert.compile_inference`; every
    ``encode`` call afterwards runs pure numpy with reusable scratch
    buffers and allocates no autograd objects.  Dropout is inference-mode
    (identity) by construction.
    """

    def __init__(self, model, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self.dim = int(model.config.dim)
        self.num_heads = int(model.config.num_heads)
        self.max_len = int(model.config.max_len)
        self.token_embedding = _flat(model.token_embedding.weight.data, dtype)
        self.position_embedding = _flat(
            model.position_embedding.weight.data, dtype)
        self.segment_embedding = _flat(
            model.segment_embedding.weight.data, dtype)
        self.emb_gamma = _flat(model.embedding_norm.gamma.data, dtype)
        self.emb_beta = _flat(model.embedding_norm.beta.data, dtype)
        self.emb_eps = float(model.embedding_norm.eps)
        self.layers = [_CompiledEncoderLayer(layer, dtype)
                       for layer in model.encoder.layers]
        self.workspace = Workspace()

    #: top-level embedding arrays exported for zero-copy attach
    ARRAY_FIELDS = ("token_embedding", "position_embedding",
                    "segment_embedding", "emb_gamma", "emb_beta")

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict) -> "CompiledBert":
        """Rebuild an encoder over externally owned (e.g. shared) arrays.

        ``meta``/``arrays`` are what :meth:`export_arrays` produced; the
        arrays may be read-only shared-memory views — ``encode`` never
        writes to weights, only to its private :class:`Workspace`.
        """
        model = object.__new__(cls)
        model.dtype = np.dtype(meta["dtype"])
        model.dim = int(meta["dim"])
        model.num_heads = int(meta["num_heads"])
        model.max_len = int(meta["max_len"])
        model.emb_eps = float(meta["emb_eps"])
        for name in cls.ARRAY_FIELDS:
            setattr(model, name, arrays[name])
        model.layers = [
            _CompiledEncoderLayer.from_arrays(
                layer_meta,
                {name: arrays[f"layer{i}.{name}"]
                 for name in _CompiledEncoderLayer.ARRAY_FIELDS})
            for i, layer_meta in enumerate(meta["layers"])
        ]
        model.workspace = Workspace()
        return model

    def export_arrays(self) -> tuple[dict, dict]:
        """Flatten the encoder into (picklable meta, flat array dict).

        The inverse of :meth:`from_arrays`; per-layer arrays are keyed
        ``layer{i}.{field}``.
        """
        meta = {
            "dtype": self.dtype.str, "dim": self.dim,
            "num_heads": self.num_heads, "max_len": self.max_len,
            "emb_eps": self.emb_eps, "layers": [],
        }
        arrays = {name: getattr(self, name) for name in self.ARRAY_FIELDS}
        for i, layer in enumerate(self.layers):
            layer_meta, layer_arrays = layer.export_arrays()
            meta["layers"].append(layer_meta)
            for name, array in layer_arrays.items():
                arrays[f"layer{i}.{name}"] = array
        return meta, arrays

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    def encode(self, ids: np.ndarray,
               attention_mask: np.ndarray | None = None,
               segment_ids: np.ndarray | None = None) -> np.ndarray:
        """ids ``(batch, seq)`` -> hidden states ``(batch, seq, dim)``."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 2:
            raise ValueError("ids must be (batch, seq)")
        batch, seq = ids.shape
        if seq > self.max_len:
            raise ValueError(f"sequence length {seq} exceeds max_len "
                             f"{self.max_len}")
        workspace = self.workspace
        hidden = workspace.get("hidden", (batch, seq, self.dim), self.dtype)
        np.take(self.token_embedding, ids, axis=0, out=hidden)
        hidden += self.position_embedding[:seq]
        if segment_ids is not None:
            segment_ids = np.asarray(segment_ids, dtype=np.int64)
            if segment_ids.shape != ids.shape:
                raise ValueError("segment_ids must match ids shape")
            hidden += self.segment_embedding[segment_ids]
        layer_norm_(hidden, self.emb_gamma, self.emb_beta, self.emb_eps,
                    workspace, "emb.ln")

        if attention_mask is None:
            mask_bias = None
        else:
            mask = np.asarray(attention_mask, dtype=self.dtype)
            if mask.shape != (batch, seq):
                raise ValueError("attention_mask must be (batch, seq)")
            mask_bias = workspace.get("mask_bias", (batch, seq), self.dtype)
            np.subtract(np.float32(1.0), mask, out=mask_bias)
            mask_bias *= _MASK_BIAS

        # Each layer is done with its scratch buffers before the next
        # one starts, so every layer shares one set of them.
        for layer in self.layers:
            attended = multi_head_attention(
                hidden, layer.w_qkv, layer.b_qkv, layer.w_attn_out,
                layer.b_attn_out, self.num_heads, mask_bias, workspace,
                site="attn")
            hidden += attended
            layer_norm_(hidden, layer.norm1_gamma, layer.norm1_beta,
                        layer.norm1_eps, workspace, "ln1")
            ffn = linear(hidden, layer.w_ffn1, layer.b_ffn1,
                         out=workspace.get(
                             "ffn", (batch, seq, layer.w_ffn1.shape[1]),
                             self.dtype))
            gelu_(ffn, workspace, "gelu")
            projected = linear(ffn, layer.w_ffn2, layer.b_ffn2,
                               out=workspace.get("proj",
                                                 (batch, seq, self.dim),
                                                 self.dtype))
            hidden += projected
            layer_norm_(hidden, layer.norm2_gamma, layer.norm2_beta,
                        layer.norm2_eps, workspace, "ln2")
        return hidden

    def cls_representation(self, ids: np.ndarray,
                           attention_mask: np.ndarray | None = None,
                           segment_ids: np.ndarray | None = None
                           ) -> np.ndarray:
        """Final-layer ``[CLS]`` vectors, shape ``(batch, dim)`` (copy).

        The copy detaches the result from the shared hidden-state
        workspace buffer, which the next ``encode`` call overwrites.
        """
        hidden = self.encode(ids, attention_mask, segment_ids)
        return hidden[:, 0, :].copy()


class CompiledClassifier:
    """The :class:`~repro.core.classifier.EdgeClassifier` head as GEMMs.

    ``positive_probability`` exploits that a two-way softmax reduces to
    ``sigmoid(logit_1 - logit_0)``, so no exponential normalisation pass
    is needed.
    """

    def __init__(self, classifier, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self.w_hidden = _flat(classifier.hidden.weight.data, dtype)
        self.b_hidden = _flat(classifier.hidden.bias.data, dtype)
        self.w_out = _flat(classifier.output.weight.data, dtype)
        self.b_out = _flat(classifier.output.bias.data, dtype)

    #: array fields exported for zero-copy attach
    ARRAY_FIELDS = ("w_hidden", "b_hidden", "w_out", "b_out")

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict) -> "CompiledClassifier":
        """Rebuild the head over externally owned (e.g. shared) arrays."""
        head = object.__new__(cls)
        head.dtype = np.dtype(meta["dtype"])
        for name in cls.ARRAY_FIELDS:
            setattr(head, name, arrays[name])
        return head

    def export_arrays(self) -> tuple[dict, dict]:
        """Flatten the head into (picklable meta, array dict)."""
        meta = {"dtype": self.dtype.str}
        arrays = {name: getattr(self, name) for name in self.ARRAY_FIELDS}
        return meta, arrays

    def logits(self, features: np.ndarray) -> np.ndarray:
        hidden = linear(features, self.w_hidden, self.b_hidden)
        hidden = stable_sigmoid(hidden)
        return linear(hidden, self.w_out, self.b_out)

    def positive_probability(self, features: np.ndarray) -> np.ndarray:
        """Hyponymy-class probabilities, shape ``(batch,)``."""
        logits = self.logits(features)
        return stable_sigmoid(logits[:, 1] - logits[:, 0])


# ----------------------------------------------------------------------
# GNN propagation kernels (CSR gather + segment reduce)
# ----------------------------------------------------------------------
def _activate_(x: np.ndarray, activation: str) -> np.ndarray:
    """In-place relu/tanh/none, matching the autograd GNN layers."""
    if activation == "relu":
        np.maximum(x, 0.0, out=x)
    elif activation == "tanh":
        np.tanh(x, out=x)
    return x


def _project_gathered(hidden_prev: np.ndarray, cols: np.ndarray,
                      weight: np.ndarray, bias: np.ndarray | None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Project only the *distinct* gathered nodes, then fan back out.

    Frontier recomputes gather a tiny fraction of the graph; projecting
    the unique source rows once (instead of every node, or every CSR
    entry) is what makes a dirty-frontier pass cheap.  Returns
    ``(projected_unique, inverse)`` so callers index projections as
    ``projected_unique[inverse]``.
    """
    unique, inverse = np.unique(cols, return_inverse=True)
    return linear(hidden_prev[unique], weight, bias), inverse


def gcn_propagate_rows(hidden_prev: np.ndarray, cols: np.ndarray,
                       offsets: np.ndarray, weights: np.ndarray,
                       degrees: np.ndarray, counts: np.ndarray,
                       weight: np.ndarray, bias: np.ndarray | None,
                       activation: str = "relu") -> np.ndarray:
    """One weighted-GCN hop for a row subset: ``rho(Â H W)`` rows.

    ``cols``/``offsets``/``counts`` describe a CSR slice whose entries
    *include* the self-loop, so every row is non-empty (``reduceat`` is
    only well-defined then); ``weights`` are the raw edge attributes and
    ``degrees`` the per-row raw weight sums, reproducing the autograd
    path's row normalisation ``D^-1 A``.
    """
    projected, inverse = _project_gathered(hidden_prev, cols, weight, bias)
    norm = (weights / np.repeat(degrees, counts)).astype(
        hidden_prev.dtype, copy=False)
    contrib = projected[inverse]
    contrib *= norm[:, None]
    out = np.add.reduceat(contrib, offsets, axis=0)
    return _activate_(out, activation)


def sage_propagate_rows(hidden_prev: np.ndarray, rows: np.ndarray,
                        cols: np.ndarray, offsets: np.ndarray,
                        counts: np.ndarray, w_self: np.ndarray,
                        b_self: np.ndarray | None, w_neigh: np.ndarray,
                        b_neigh: np.ndarray | None,
                        activation: str = "relu") -> np.ndarray:
    """One GraphSAGE-mean hop for a row subset.

    ``cols`` must *exclude* the self-loop (the self path is the separate
    ``W_self`` term) and is treated as binary.  Rows with no neighbours
    get a zero mean, so — exactly like the autograd path's all-zero
    ``mean_op`` row — their neighbour term reduces to ``b_neigh``.
    """
    out = linear(hidden_prev[rows], w_self, b_self)
    mean = np.zeros((len(rows), hidden_prev.shape[1]),
                    dtype=hidden_prev.dtype)
    nonempty = np.flatnonzero(counts)
    if nonempty.size:
        sums = np.add.reduceat(hidden_prev[cols], offsets[nonempty], axis=0)
        mean[nonempty] = sums / counts[nonempty, None].astype(
            hidden_prev.dtype)
    out += linear(mean, w_neigh, b_neigh)
    return _activate_(out, activation)


def gat_propagate_rows(hidden_prev: np.ndarray, rows: np.ndarray,
                       cols: np.ndarray, offsets: np.ndarray,
                       counts: np.ndarray, weight: np.ndarray,
                       bias: np.ndarray | None, attn_src: np.ndarray,
                       attn_dst: np.ndarray, negative_slope: float,
                       activation: str = "relu") -> np.ndarray:
    """One dense-equivalent GAT hop for a row subset.

    Attention is computed over each row's CSR entries only (self-loop
    included, edges treated as binary).  This matches the autograd
    layer's masked dense softmax because masked logits carry a ``-1e9``
    bias whose exponential underflows to exactly zero — the dense and
    sparse distributions are identical up to summation order.
    """
    unique, inverse = np.unique(cols, return_inverse=True)
    projected = linear(hidden_prev[unique], weight, bias)
    # rows ⊆ cols (self-loops), so every target row is in `unique`.
    src = projected @ attn_src
    dst = projected @ attn_dst
    row_positions = np.searchsorted(unique, np.asarray(rows,
                                                      dtype=np.int64))
    logits = np.repeat(src[row_positions], counts) + dst[inverse]
    negative = logits < 0.0
    logits[negative] *= np.asarray(negative_slope, dtype=logits.dtype)
    # Per-row (segment) softmax.
    logits -= np.repeat(np.maximum.reduceat(logits, offsets), counts)
    np.exp(logits, out=logits)
    logits /= np.repeat(np.add.reduceat(logits, offsets), counts)
    contrib = projected[inverse]
    contrib *= logits[:, None]
    out = np.add.reduceat(contrib, offsets, axis=0)
    return _activate_(out, activation)


class _CompiledGNNLayer:
    """Weights of one propagation hop, exported for kernel execution."""

    __slots__ = ("kind", "activation", "weight", "bias", "w_self", "b_self",
                 "w_neigh", "b_neigh", "attn_src", "attn_dst",
                 "negative_slope", "out_dim")

    #: array-valued slots per layer kind, exported for zero-copy attach
    KIND_ARRAYS = {
        "gat": ("weight", "bias", "attn_src", "attn_dst"),
        "sage": ("w_self", "b_self", "w_neigh", "b_neigh"),
        "gcn": ("weight", "bias"),
    }

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict) -> "_CompiledGNNLayer":
        """Rebuild one hop over externally owned (e.g. shared) arrays."""
        layer = object.__new__(cls)
        layer.kind = meta["kind"]
        layer.activation = meta["activation"]
        for name in cls.KIND_ARRAYS[layer.kind]:
            setattr(layer, name, arrays[name])
        if layer.kind == "gat":
            layer.negative_slope = float(meta["negative_slope"])
        first = cls.KIND_ARRAYS[layer.kind][0]
        layer.out_dim = getattr(layer, first).shape[1]
        return layer

    def export_arrays(self) -> tuple[dict, dict]:
        """Split the hop into (scalar meta, array fields)."""
        meta = {"kind": self.kind, "activation": self.activation}
        if self.kind == "gat":
            meta["negative_slope"] = self.negative_slope
        arrays = {name: getattr(self, name)
                  for name in self.KIND_ARRAYS[self.kind]}
        return meta, arrays

    def __init__(self, layer, dtype):
        self.activation = layer.activation
        if hasattr(layer, "attn_src"):          # GATLayer
            self.kind = "gat"
            self.weight = _flat(layer.linear.weight.data, dtype)
            self.bias = _flat(layer.linear.bias.data, dtype)
            self.attn_src = _flat(layer.attn_src.data, dtype)
            self.attn_dst = _flat(layer.attn_dst.data, dtype)
            self.negative_slope = float(layer.negative_slope)
            self.out_dim = self.weight.shape[1]
        elif hasattr(layer, "self_linear"):     # SAGELayer
            self.kind = "sage"
            self.w_self = _flat(layer.self_linear.weight.data, dtype)
            self.b_self = _flat(layer.self_linear.bias.data, dtype)
            self.w_neigh = _flat(layer.neighbor_linear.weight.data, dtype)
            self.b_neigh = _flat(layer.neighbor_linear.bias.data, dtype)
            self.out_dim = self.w_self.shape[1]
        else:                                   # GCNLayer
            self.kind = "gcn"
            self.weight = _flat(layer.linear.weight.data, dtype)
            self.bias = _flat(layer.linear.bias.data, dtype)
            self.out_dim = self.weight.shape[1]


class CompiledPropagation:
    """K hops of GNN message passing over CSR slices, sans autograd.

    Compiled from the layer list of a
    :class:`~repro.gnn.StructuralEncoder` (the layer type is sniffed per
    hop, so mixed stacks would compile too).  Each hop executes through
    the row-subset kernels above, so a caller may propagate the full
    node set *or* any dirty subset — the engine's incremental
    recompute-on-ingest path relies on the latter.
    """

    def __init__(self, layers, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self.layers = [_CompiledGNNLayer(layer, self.dtype)
                       for layer in layers]

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict) -> "CompiledPropagation":
        """Rebuild the stack over externally owned (e.g. shared) arrays.

        ``meta``/``arrays`` are what :meth:`export_arrays` produced; the
        arrays may be read-only shared-memory views — the propagation
        kernels only read weights and allocate fresh outputs.
        """
        stack = object.__new__(cls)
        stack.dtype = np.dtype(meta["dtype"])
        stack.layers = [
            _CompiledGNNLayer.from_arrays(
                layer_meta,
                {name: arrays[f"layer{i}.{name}"]
                 for name in _CompiledGNNLayer.KIND_ARRAYS[layer_meta["kind"]]})
            for i, layer_meta in enumerate(meta["layers"])
        ]
        return stack

    def export_arrays(self) -> tuple[dict, dict]:
        """Flatten the stack into (picklable meta, flat array dict).

        The inverse of :meth:`from_arrays`; per-hop arrays are keyed
        ``layer{i}.{field}``.
        """
        meta = {"dtype": self.dtype.str, "layers": []}
        arrays: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            layer_meta, layer_arrays = layer.export_arrays()
            meta["layers"].append(layer_meta)
            for name, array in layer_arrays.items():
                arrays[f"layer{i}.{name}"] = array
        return meta, arrays

    @property
    def num_hops(self) -> int:
        return len(self.layers)

    def includes_self(self, k: int) -> bool:
        """Whether hop ``k`` gathers the self-loop entry (SAGE models the
        self contribution as a separate linear path instead)."""
        return self.layers[k].kind != "sage"

    def propagate_rows(self, k: int, hidden_prev: np.ndarray,
                       rows: np.ndarray, cols: np.ndarray,
                       offsets: np.ndarray, counts: np.ndarray,
                       weights: np.ndarray,
                       degrees: np.ndarray | None) -> np.ndarray:
        """Hop ``k`` outputs for ``rows``; CSR slice per
        :meth:`includes_self`."""
        layer = self.layers[k]
        if layer.kind == "gcn":
            return gcn_propagate_rows(
                hidden_prev, cols, offsets, weights, degrees, counts,
                layer.weight, layer.bias, layer.activation)
        if layer.kind == "sage":
            return sage_propagate_rows(
                hidden_prev, rows, cols, offsets, counts, layer.w_self,
                layer.b_self, layer.w_neigh, layer.b_neigh,
                layer.activation)
        return gat_propagate_rows(
            hidden_prev, rows, cols, offsets, counts, layer.weight,
            layer.bias, layer.attn_src, layer.attn_dst,
            layer.negative_slope, layer.activation)
