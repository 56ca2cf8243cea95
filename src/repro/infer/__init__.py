"""Inference-engine glue: the graph-free serving path over a fitted model.

:class:`InferenceEngine` compiles a fitted
:class:`~repro.core.HyponymyDetector` into pure-numpy float32 kernels
(:mod:`repro.nn.inference`) and serves ``score_pairs`` without touching
the autograd substrate.  ``predict_proba`` and every serving path score
through it; the float64 ``Tensor`` path stays callable as
``HyponymyDetector._predict_autograd``, the training substrate's model
selection and the parity oracle.
"""

from .engine import EngineStats, InferenceEngine
from .graph import CsrSlice, DynamicGraph

__all__ = ["CsrSlice", "DynamicGraph", "EngineStats", "InferenceEngine"]
