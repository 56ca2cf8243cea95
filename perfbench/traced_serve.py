"""``repro serve`` with monotonic-ns spans around each serving layer.

Usage::

    python3 perfbench/traced_serve.py --spans OUT.json -- serve --artifacts DIR ...

Wraps the public functions the benchmark's per-layer metrics are made
of (the ``TRACED`` table), then runs the unmodified ``repro`` command
line in this process.  Spans stay in memory and are written to
``--spans`` when the server exits after its SIGTERM drain.  Nothing in
``src/`` changes: the wrappers are installed on the classes and the
route table from outside, so an untraced ``repro serve`` runs exactly
the code a deployment runs.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from spans import SpanRecorder  # noqa: E402


def _pairs_arg(args) -> int:
    return len(args[1])


#: (module, class, method, span name, work count) — one row per wrapper
TRACED = [
    ("repro.serving.service", "TaxonomyService", "score",
     "service.score", None),
    ("repro.serving.service", "TaxonomyService", "suggest",
     "service.suggest", None),
    ("repro.serving.service", "TaxonomyService", "ingest",
     "service.ingest", None),
    ("repro.serving.scorer", "BatchingScorer", "score_pairs",
     "scorer.call", _pairs_arg),
    ("repro.serving.scorer", "BatchingScorer", "invalidate_pairs_touching",
     "scorer.invalidate", None),
    ("repro.serving.cluster", "ShardedScorerPool", "score_pairs",
     "pool.call", _pairs_arg),
    ("repro.infer.engine", "InferenceEngine", "score_pairs",
     "engine.call", _pairs_arg),
    ("repro.infer.engine", "InferenceEngine", "apply_attachments",
     "engine.recompute", None),
    ("repro.nn.inference", "CompiledBert", "encode",
     "bert.encode", None),
    ("repro.nn.inference", "CompiledClassifier", "positive_probability",
     "classifier.call", None),
    ("repro.retrieval.refresh", "CandidateRetriever", "neighbors",
     "retrieval.neighbors", None),
    ("repro.retrieval.refresh", "CandidateRetriever", "extend",
     "retrieval.extend", None),
    ("repro.core.incremental", "IncrementalExpander", "ingest",
     "expander.ingest", None),
    ("repro.serving.journal", "IngestJournal", "append",
     "journal.append", None),
    ("repro.serving.journal", "IngestJournal", "flush",
     "journal.flush", None),
]

#: request models whose ``parse`` is the ``schemas.parse`` span
PARSED_REQUESTS = ("ScoreRequest", "SuggestRequest", "IngestRequest")

#: /v1 route handlers timed as ``routes.<name>``
ROUTE_HANDLERS = ("score", "suggest", "ingest")


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced function, route handler and request parser."""
    for module_name, class_name, method, span, count in TRACED:
        cls = getattr(importlib.import_module(module_name), class_name)
        setattr(cls, method, recorder.wrap(span, getattr(cls, method),
                                           count))
    schemas = importlib.import_module("repro.api.schemas")
    parse = schemas.SchemaModel.parse.__func__
    for name in PARSED_REQUESTS:
        setattr(getattr(schemas, name), "parse",
                classmethod(recorder.wrap("schemas.parse", parse)))
    routes = importlib.import_module("repro.serving.routes")
    for name in ROUTE_HANDLERS:
        routes.V1_HANDLERS[name] = recorder.wrap(
            f"routes.{name}", routes.V1_HANDLERS[name])


def main(argv=None) -> int:
    """Install the spans, run the ``repro`` CLI, write the spans out."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True,
                        help="JSON file the spans are written to at exit")
    parser.add_argument("cli", nargs=argparse.REMAINDER,
                        help="-- then the repro command line")
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as repro_main
    try:
        return repro_main(cli_args)
    finally:
        recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
