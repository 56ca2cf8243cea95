"""Parity suite: the graph-free inference engine vs the autograd oracle.

Per-layer kernels, the compiled encoder, and the end-to-end scoring path
must agree with the float64 ``Tensor`` implementation within the engine's
documented tolerance, with identical rankings wherever scores are not
float32-tied.  Also covers the vectorized input-assembly satellites
(``pad_batch``, segment ids) against per-row reference loops.
"""

from __future__ import annotations

import gc
import os
import tracemalloc

import numpy as np
import pytest

import repro
from repro.infer import InferenceEngine
from repro.nn import (
    LayerNorm, MultiHeadSelfAttention, SCORE_TOLERANCE, Tensor, no_grad,
)
from repro.nn.inference import (
    Workspace, gelu_, layer_norm_, linear, multi_head_attention, softmax_,
)
from repro.plm import BertConfig, MiniBert, RelationalEncoder, WordTokenizer
from repro.plm.relational import segments_from_boundaries

KERNEL_TOL = 1e-5


@pytest.fixture()
def toy_model():
    tok = WordTokenizer([f"w{i}" for i in range(40)] + ["is", "a"])
    model = MiniBert(BertConfig(vocab_size=tok.vocab_size, dim=24,
                                num_layers=2, num_heads=3, ffn_dim=48,
                                max_len=16, seed=11))
    model.eval()
    return tok, model


class TestKernels:
    def test_linear_matches_tensor(self, rng):
        x = rng.standard_normal((5, 7, 8)).astype(np.float32)
        w = rng.standard_normal((8, 6)).astype(np.float32)
        b = rng.standard_normal(6).astype(np.float32)
        ref = Tensor(x.astype(np.float64)) @ Tensor(w.astype(np.float64)) \
            + Tensor(b.astype(np.float64))
        got = linear(x, w, b)
        assert np.abs(got - ref.data).max() < KERNEL_TOL

    def test_linear_out_buffer(self, rng):
        x = rng.standard_normal((4, 8)).astype(np.float32)
        w = rng.standard_normal((8, 3)).astype(np.float32)
        out = np.empty((4, 3), dtype=np.float32)
        result = linear(x, w, None, out=out)
        assert result is out
        assert np.allclose(out, x @ w)

    def test_gelu_matches_tensor(self, rng):
        x = rng.standard_normal((6, 10)).astype(np.float32)
        ref = Tensor(x.astype(np.float64)).gelu().data
        got = gelu_(x.copy())
        assert np.abs(got - ref).max() < KERNEL_TOL

    def test_gelu_workspace_reuse(self, rng):
        ws = Workspace()
        x = rng.standard_normal((6, 10)).astype(np.float32)
        first = gelu_(x.copy(), ws, "g")
        second = gelu_(x.copy(), ws, "g")
        np.testing.assert_array_equal(first, second)

    def test_layer_norm_matches_module(self, rng):
        norm = LayerNorm(12)
        x = rng.standard_normal((5, 9, 12))
        ref = norm(Tensor(x)).data
        got = layer_norm_(x.astype(np.float32).copy(),
                          norm.gamma.data.astype(np.float32),
                          norm.beta.data.astype(np.float32), norm.eps)
        assert np.abs(got - ref).max() < KERNEL_TOL

    def test_layer_norm_non_contiguous_fallback(self, rng):
        norm = LayerNorm(8)
        base = rng.standard_normal((8, 5)).astype(np.float32)
        x = base.T  # non-contiguous view, shape (5, 8)
        assert not x.flags.c_contiguous
        ref = norm(Tensor(np.asarray(x, dtype=np.float64))).data
        got = layer_norm_(x, norm.gamma.data.astype(np.float32),
                          norm.beta.data.astype(np.float32), norm.eps)
        assert np.abs(got - ref).max() < KERNEL_TOL

    def test_softmax_matches_tensor(self, rng):
        x = rng.standard_normal((3, 4, 7)).astype(np.float32) * 5
        ref = Tensor(x.astype(np.float64)).softmax(axis=-1).data
        got = softmax_(x.copy())
        assert np.abs(got - ref).max() < KERNEL_TOL
        assert np.allclose(got.sum(axis=-1), 1.0, atol=1e-5)

    def test_attention_matches_module(self, rng):
        module = MultiHeadSelfAttention(dim=12, num_heads=3, rng=rng)
        module.eval()
        x = rng.standard_normal((4, 6, 12))
        mask = np.ones((4, 6))
        mask[:, 4:] = 0.0
        with no_grad():
            ref = module(Tensor(x), mask).data
        w_qkv = np.concatenate([module.query.weight.data,
                                module.key.weight.data,
                                module.value.weight.data],
                               axis=1).astype(np.float32)
        b_qkv = np.concatenate([module.query.bias.data,
                                module.key.bias.data,
                                module.value.bias.data]).astype(np.float32)
        bias = ((1.0 - mask) * -1e9).astype(np.float32)
        got = multi_head_attention(
            x.astype(np.float32), w_qkv, b_qkv,
            module.out.weight.data.astype(np.float32),
            module.out.bias.data.astype(np.float32),
            num_heads=3, mask_bias=bias, workspace=Workspace(), site="t",
            scale=1.0 / np.sqrt(module.head_dim))
        assert np.abs(got - ref).max() < KERNEL_TOL


class TestCompiledBert:
    def test_encode_parity_with_mask_and_segments(self, toy_model, rng):
        tok, model = toy_model
        compiled = model.compile_inference()
        ids = rng.integers(0, tok.vocab_size, size=(6, 10))
        mask = (rng.random((6, 10)) < 0.7).astype(np.float64)
        mask[:, 0] = 1.0
        segments = (rng.random((6, 10)) < 0.5).astype(np.int64)
        with no_grad():
            ref = model.encode(ids, mask, segments).data
        got = compiled.encode(ids, mask, segments)
        assert got.dtype == np.float32
        assert np.abs(got - ref).max() < KERNEL_TOL

    def test_encode_parity_without_mask(self, toy_model, rng):
        tok, model = toy_model
        compiled = model.compile_inference()
        ids = rng.integers(0, tok.vocab_size, size=(3, 8))
        with no_grad():
            ref = model.encode(ids).data
        got = compiled.encode(ids)
        assert np.abs(got - ref).max() < KERNEL_TOL

    def test_cls_representation_is_detached_copy(self, toy_model, rng):
        tok, model = toy_model
        compiled = model.compile_inference()
        ids = rng.integers(0, tok.vocab_size, size=(2, 6))
        first = compiled.cls_representation(ids)
        snapshot = first.copy()
        other = rng.integers(0, tok.vocab_size, size=(2, 6))
        compiled.encode(other)  # overwrites the shared workspace buffer
        np.testing.assert_array_equal(first, snapshot)

    def test_padding_width_invariance(self, toy_model, rng):
        """Extra padding must not change real-token outputs."""
        tok, model = toy_model
        compiled = model.compile_inference()
        ids = rng.integers(5, tok.vocab_size, size=(3, 6))
        narrow = compiled.cls_representation(
            ids, np.ones((3, 6)), np.zeros((3, 6), dtype=np.int64))
        wide_ids = np.full((3, 12), tok.pad_id, dtype=np.int64)
        wide_ids[:, :6] = ids
        mask = np.zeros((3, 12))
        mask[:, :6] = 1.0
        wide = compiled.cls_representation(
            wide_ids, mask, np.zeros((3, 12), dtype=np.int64))
        assert np.abs(narrow - wide).max() < KERNEL_TOL

    def test_rejects_bad_shapes(self, toy_model):
        _tok, model = toy_model
        compiled = model.compile_inference()
        with pytest.raises(ValueError):
            compiled.encode(np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError):
            compiled.encode(np.zeros((1, model.config.max_len + 1),
                                     dtype=np.int64))

    def test_layers_share_one_scratch_set(self, toy_model, rng):
        """Workspace bytes after one call do not grow with depth."""
        tok, _model = toy_model
        ids = rng.integers(0, tok.vocab_size, size=(5, 12))
        mask = np.ones((5, 12))
        mask[:, 9:] = 0.0
        held = []
        for num_layers in (1, 3):
            model = MiniBert(BertConfig(
                vocab_size=tok.vocab_size, dim=24, num_layers=num_layers,
                num_heads=3, ffn_dim=48, max_len=16, seed=11))
            model.eval()
            compiled = model.compile_inference()
            compiled.encode(ids, mask)
            held.append(compiled.workspace.nbytes)
        assert held[0] > 0
        assert held[1] == held[0]


class TestVectorizedAssembly:
    def test_pad_batch_matches_reference_loop(self, rng):
        tok = WordTokenizer([f"w{i}" for i in range(30)])
        sequences = [list(rng.integers(0, 30, size=rng.integers(1, 9)))
                     for _ in range(17)]
        for max_len in (None, 5):
            ids, mask = tok.pad_batch(sequences, max_len=max_len)
            width = max(len(s) for s in sequences)
            if max_len is not None:
                width = min(width, max_len)
            ref_ids = np.full((len(sequences), width), tok.pad_id,
                              dtype=np.int64)
            ref_mask = np.zeros((len(sequences), width))
            for row, seq in enumerate(sequences):
                seq = seq[:width]
                ref_ids[row, :len(seq)] = seq
                ref_mask[row, :len(seq)] = 1.0
            np.testing.assert_array_equal(ids, ref_ids)
            np.testing.assert_array_equal(mask, ref_mask)

    def test_segments_from_boundaries_matches_loop(self, rng):
        lengths = rng.integers(1, 12, size=20)
        boundaries = np.array([rng.integers(0, l + 1) for l in lengths])
        width = int(lengths.max()) + 2
        got = segments_from_boundaries(boundaries, lengths, width)
        ref = np.zeros((20, width), dtype=np.int64)
        for row in range(20):
            seg = [0] * boundaries[row] \
                + [1] * (lengths[row] - boundaries[row])
            ref[row, :len(seg)] = seg
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("use_template", [True, False])
    def test_encode_pairs_segments_match_pair_ids(self, toy_model,
                                                  use_template):
        tok, model = toy_model
        encoder = RelationalEncoder(model, tok, use_template=use_template)
        pairs = [("w1 w2", "w3"), ("w4", "w5 w6 w7 w8 w9 w10 w11 w12 w13"),
                 ("w2", "w2")]
        with no_grad():
            reps = encoder.encode_pairs(pairs)
        assert reps.shape == (3, model.config.dim)
        # The vectorized segment rectangle must equal the per-row fill.
        encoded = [encoder.pair_ids(q, i) for q, i in pairs]
        ids, _mask = tok.pad_batch([ids for ids, _ in encoded])
        ref = np.zeros_like(ids)
        for row, (_, seg) in enumerate(encoded):
            ref[row, :len(seg)] = seg
        got = segments_from_boundaries(
            np.array([len(s) - sum(s) for _, s in encoded]),
            np.array([len(s) for _, s in encoded]), ids.shape[1])
        np.testing.assert_array_equal(got, ref)


def ranking_stable(reference: np.ndarray, fast: np.ndarray,
                   tol: float) -> bool:
    """Orders must match except across float32-tied adjacent scores."""
    order = np.argsort(-reference, kind="stable")
    fast_sorted = fast[order]
    violations = np.diff(fast_sorted) > 2 * tol
    return not violations.any()


class TestEngineEndToEnd:
    @pytest.fixture()
    def scored_pairs(self, tiny_fitted_pipeline, small_world):
        pool = {s.pair for s in tiny_fitted_pipeline.dataset.all_pairs}
        pool.update(sorted(small_world.existing_taxonomy.edges())[:20])
        return sorted(pool)[:80]

    def test_scores_match_autograd_oracle(self, tiny_fitted_pipeline,
                                          scored_pairs):
        detector = tiny_fitted_pipeline.detector
        reference = detector._predict_autograd(scored_pairs)
        engine = detector.compile_inference()
        fast = engine.score_pairs(scored_pairs)
        assert fast.dtype == np.float64
        assert np.abs(reference - fast).max() < SCORE_TOLERANCE
        assert ranking_stable(reference, fast, SCORE_TOLERANCE)

    def test_topk_identical(self, tiny_fitted_pipeline, scored_pairs):
        detector = tiny_fitted_pipeline.detector
        reference = detector._predict_autograd(scored_pairs)
        fast = detector.compile_inference().score_pairs(scored_pairs)
        k = 10
        top_ref = np.argsort(-reference, kind="stable")[:k]
        top_fast = np.argsort(-fast, kind="stable")[:k]
        np.testing.assert_array_equal(top_ref, top_fast)

    def test_deterministic_across_calls(self, tiny_fitted_pipeline,
                                        scored_pairs):
        engine = tiny_fitted_pipeline.detector.compile_inference()
        np.testing.assert_array_equal(engine.score_pairs(scored_pairs),
                                      engine.score_pairs(scored_pairs))

    def test_concurrent_scoring_is_serialised(self, tiny_fitted_pipeline,
                                              scored_pairs):
        """Shared scratch buffers must not corrupt concurrent callers."""
        import threading

        engine = tiny_fitted_pipeline.detector.compile_inference()
        expected = engine.score_pairs(scored_pairs)
        mismatches: list[int] = []

        def worker():
            for _ in range(5):
                got = engine.score_pairs(scored_pairs)
                if not np.array_equal(got, expected):
                    mismatches.append(1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not mismatches

    def test_batch_size_invariance(self, tiny_fitted_pipeline,
                                   scored_pairs):
        """Bucketing/chunking must not shift scores beyond tolerance."""
        detector = tiny_fitted_pipeline.detector
        engine = detector.compile_inference()
        whole = engine.score_pairs(scored_pairs)
        small = InferenceEngine(detector, max_batch=7)
        chunked = small.score_pairs(scored_pairs)
        assert np.abs(whole - chunked).max() < SCORE_TOLERANCE

    def test_unknown_concepts_zero_structural_fallback(
            self, tiny_fitted_pipeline):
        pairs = [("martian fruit", "asteroid jam")]
        engine = tiny_fitted_pipeline.detector.compile_inference()
        reference = tiny_fitted_pipeline.detector._predict_autograd(pairs)
        assert np.abs(engine.score_pairs(pairs)
                      - reference).max() < SCORE_TOLERANCE

    def test_empty_pairs(self, tiny_fitted_pipeline):
        engine = tiny_fitted_pipeline.detector.compile_inference()
        assert engine.score_pairs([]).shape == (0,)

    def test_pair_token_ids_match_relational(self, tiny_fitted_pipeline):
        relational = tiny_fitted_pipeline.relational
        engine = tiny_fitted_pipeline.detector.compile_inference()
        long_concept = " ".join(["fruit"] * 40)  # forces truncation
        pairs = [("fruit", "apple"), (long_concept, "apple"),
                 ("fruit", long_concept)]
        for query, item in pairs:
            ref_ids, ref_segments = relational.pair_ids(query, item)
            ids, boundary = engine.pair_token_ids(query, item)
            assert ids == ref_ids
            assert boundary == len(ref_segments) - sum(ref_segments)

    def test_never_repeated_pairs_retain_no_memory(self,
                                                   tiny_fitted_pipeline,
                                                   small_world):
        """The engine keeps per-concept state only, never per-pair state.

        Two equal rounds of distinct pairs over one fixed concept set:
        the first fills the per-concept caches, so whatever the second
        round retains is per-pair.  Both rounds end on the same closing
        batch, so the scratch workspace has the same shapes at both
        snapshots.
        """
        engine = InferenceEngine(tiny_fitted_pipeline.detector)
        concepts = sorted(small_world.vocabulary)
        concepts += [f"unseen concept {i}" for i in range(100 - len(concepts))]
        width = 30  # offsets per round: 30 x 100 = 3,000 pairs

        def round_pairs(first_offset):
            return [(concepts[i], concepts[(i + offset) % len(concepts)])
                    for offset in range(first_offset, first_offset + width)
                    for i in range(len(concepts))]

        rounds = [round_pairs(1), round_pairs(1 + width)]
        assert not set(rounds[0]) & set(rounds[1])
        closing = rounds[0][:64]
        source = tracemalloc.Filter(
            True, os.path.join(os.path.dirname(repro.__file__), "*"))

        def retained(pairs):
            for start in range(0, len(pairs), 256):
                engine.score_pairs(pairs[start:start + 256])
            engine.score_pairs(closing)
            gc.collect()
            snapshot = tracemalloc.take_snapshot().filter_traces([source])
            return sum(stat.size for stat in snapshot.statistics("filename"))

        tracemalloc.start()
        try:
            first = retained(rounds[0])
            second = retained(rounds[1])
        finally:
            tracemalloc.stop()
        assert second - first < 16 * len(rounds[1]), (first, second)

    def test_stats_accumulate(self, tiny_fitted_pipeline, scored_pairs):
        engine = InferenceEngine(tiny_fitted_pipeline.detector)
        engine.score_pairs(scored_pairs[:10])
        engine.score_pairs(scored_pairs[:5])
        assert engine.stats.batches == 2
        assert engine.stats.pairs_scored == 15
        assert engine.stats.sequences_encoded == 15
        assert engine.stats.dtype == "float32"
        assert engine.stats.as_dict()["pairs_scored"] == 15

    def test_concept_embedding_cache(self, tiny_fitted_pipeline):
        relational = tiny_fitted_pipeline.relational
        engine = InferenceEngine(tiny_fitted_pipeline.detector)
        concepts = ["fruit", "apple", "fruit", "banana", "apple"]
        got = engine.encode_concepts(concepts)
        with no_grad():
            ref = relational.encode_concepts(concepts).data
        assert np.abs(got - ref).max() < SCORE_TOLERANCE
        # First call encodes each unique concept exactly once...
        assert engine.stats.concepts_encoded == 3
        # ...and repeat calls are pure cache hits.
        engine.encode_concepts(["fruit", "apple"])
        assert engine.stats.concepts_encoded == 3
        assert engine.stats.concept_cache_hits == 2

    def test_concept_mean_pool_parity(self, tiny_fitted_pipeline):
        relational = tiny_fitted_pipeline.relational
        engine = InferenceEngine(tiny_fitted_pipeline.detector)
        concepts = ["fruit", "green apple"]
        got = engine.encode_concepts(concepts, pool="mean")
        with no_grad():
            ref = relational.encode_concepts(concepts, pool="mean").data
        assert np.abs(got - ref).max() < SCORE_TOLERANCE

    def test_structural_gather_matches_autograd(self, tiny_fitted_pipeline):
        detector = tiny_fitted_pipeline.detector
        structural = detector.structural
        engine = InferenceEngine(detector)
        nodes = structural.export_arrays()["nodes"]
        pairs = [(nodes[0], nodes[1]), (nodes[2], "unknown concept"),
                 ("unknown concept", nodes[0])]
        with no_grad():
            ref = structural.pair_representation(pairs).data
        out = np.empty((len(pairs), structural.out_dim), dtype=np.float32)
        engine._structural_features(pairs, out)
        assert np.abs(out - ref).max() < SCORE_TOLERANCE


class TestModeSelection:
    def test_predict_proba_dispatches_to_engine(self, tiny_fitted_pipeline):
        detector = tiny_fitted_pipeline.detector
        probs = detector.predict_proba([("fruit", "apple")])
        assert detector.inference_engine is not None
        engine_probs = detector.inference_engine.score_pairs(
            [("fruit", "apple")])
        np.testing.assert_array_equal(probs, engine_probs)
