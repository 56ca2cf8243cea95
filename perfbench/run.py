"""Serving benchmark: drive a real ``repro serve`` over HTTP.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload score_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --describe

A run fits the model on first use (once per checkout, fixed model
seed), writes the seed's workload inputs, then launches ``repro serve``
in its own process ``LAUNCHES`` times.  Each
launch is timed until it answered its warm-up requests (set-up), then
serves an equal share of the ``--seconds`` of traffic, driven from this
single client process over at most ``nproc`` keep-alive connections.
A launch during which the hypervisor stole more than ``STEAL_LIMIT`` of
the CPU is redone, ``MAX_REDOS`` times per pass at most.  Afterwards
every response is checked: served scores against an in-process engine,
repeats of hot pairs for identity, suggest ranking, the scorer's cache
hit ratio against what the workload claims, and each ``grow`` launch's
final edge set against an in-process replay of the same batches.

``BENCHMARK.json`` at the root names the gated workloads (``--workload
all`` runs them) and the metrics of the result line with their units.
``--trace 0`` reports the end-to-end metrics of that plain run.
``--trace 1`` adds a second pass under ``traced_serve.py`` and reports
the per-layer metrics from its spans; the traced-minus-untraced
difference of every end-to-end metric is printed as tracing overhead.

Every metric is printed by name and unit with the host block; the last
line of output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  Exit status: 0 when every output check
passed, 1 on any mismatch, 2 when the benchmark could not run.
Scratch files (bundles, journals, spans, logs, full results) live in
``.bench_build/perfbench`` under the root.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import shutil
import statistics
import sys
import time

from fixtures import ROOT, SRC, edge_digest, run_helper
from host import (
    CpuSampler, static_host, tree_cpu_seconds, tree_pss_mb, wait_for_quiet,
)
from loadgen import Connection
from reference import END_TO_END, PER_LAYER, WORKLOADS as REFERENCE
from server import Server
from spans import load_spans, nested_count, percentile, summarize
from workloads import WORKLOADS

WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
#: server launches per pass; each serves an equal segment of the timed
#: phase
LAUNCHES = 5
#: equal windows of a segment, by due time, that ``p50_ms`` takes one
#: median over each
WINDOWS_PER_LAUNCH = 4
#: seconds a pass may spend, before its launches, waiting for the
#: hypervisor to stop stealing CPU (bounded so a run stays short)
QUIET_WAIT_S = 10.0
#: steal share of a launch's timed segment above which it is redone
STEAL_LIMIT = 0.05
#: launches a pass may redo for steal; later noisy launches are kept
#: and counted
MAX_REDOS = 2
#: served pairs re-scored in-process after the timed phase
CHECK_SAMPLE_PAIRS = 4096
HITS = "repro_scorer_cache_hits_total"
REQUESTED = "repro_scorer_pairs_requested_total"
UNITS = {name: spec[0] for name, spec in END_TO_END.items()}
UNITS.update({row[0]: row[1] for row in PER_LAYER})


def load_benchmark() -> dict:
    """``BENCHMARK.json``: the gated workloads and metrics, with units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def ensure_fixture(seed: int) -> tuple[str, str, dict]:
    """The bundle (fitted once), the seed's directory and its inputs."""
    bundle = os.path.join(WORK_DIR, "bundle")
    if not os.path.exists(os.path.join(bundle, "manifest.json")):
        run_helper("fit", "--out", bundle)
    seed_dir = os.path.join(WORK_DIR, f"seed-{seed}")
    path = os.path.join(seed_dir, "inputs.json")
    if not os.path.exists(path):
        run_helper("inputs", "--seed", str(seed), "--out", seed_dir)
    with open(path, encoding="utf-8") as handle:
        return bundle, seed_dir, json.load(handle)


# ----------------------------------------------------------------------
# one pass: set-up launches, the timed phase, the output checks
# ----------------------------------------------------------------------
async def _warmup(workload, port: int) -> None:
    conn = Connection("127.0.0.1", port)
    try:
        await workload.warmup(conn)
    finally:
        conn.close()


async def _measure(workload, server: Server, seconds: float) -> dict:
    """One launch's timed segment: traffic, counters, CPU and PSS."""
    conns = [Connection("127.0.0.1", server.port)
             for _ in range(workload.clients)]
    await workload.prewarm(conns[0])
    for conn in conns:
        await conn.open()  # prewarm may have opened the first already
    before = server.metrics()
    cpu_before = tree_cpu_seconds(server.pid)
    sampler = CpuSampler().start()
    start = time.monotonic_ns()
    results = await workload.timed(conns, seconds)
    end = time.monotonic_ns()
    sample = sampler.stop()
    cpu_after = tree_cpu_seconds(server.pid)
    pss = tree_pss_mb(server.pid)
    after = server.metrics()
    taxonomy = (server.get_json("/v1/taxonomy") if workload.name == "grow"
                else None)
    for conn in conns:
        conn.close()
    parent = cpu_after.get(server.pid, 0.0) - cpu_before.get(server.pid, 0.0)
    workers = sum(cpu_after[pid] - cpu_before.get(pid, 0.0)
                  for pid in cpu_after if pid != server.pid)
    return {"results": results, "start": start, "end": end,
            "host_sample": sample, "parent_cpu_s": parent,
            "worker_cpu_s": workers, "pss_mb": pss,
            "counters": {name: after[name] - before.get(name, 0.0)
                         for name in after},
            "taxonomy": taxonomy}


def run_pass(name: str, bundle: str, seed_dir: str, inputs: dict,
             seed: int, seconds: float, traced: bool, nproc: int) -> dict:
    """Launch, measure and check one plain or traced pass.

    The pass launches the server ``LAUNCHES`` times; each
    launch is timed to readiness (set-up), then serves one equal segment
    of the ``seconds`` of traffic and stops.  Spreading the timed phase
    over launches averages out what differs from one server process to
    the next (where the scheduler puts its threads, memory layout).
    Before each launch the pass waits, ``QUIET_WAIT_S`` at most in all,
    for the host's CPU steal to subside; a launch whose segment still
    saw more than ``STEAL_LIMIT`` is redone, ``MAX_REDOS`` at most.
    Metrics come from the kept launches; every launch's responses are
    checked.
    """
    workload = WORKLOADS[name](inputs, seed, nproc)
    run_dir = os.path.join(WORK_DIR, f"run-{name}-"
                           f"{'traced' if traced else 'plain'}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    segments, rows, waited, redos = [], [], 0.0, 0
    while sum(seg["kept"] for seg in segments) < LAUNCHES:
        launch = len(segments)
        waited += wait_for_quiet(max(0.0, QUIET_WAIT_S - waited))
        spans_path = (os.path.join(run_dir, f"spans-{launch}.json")
                      if traced else None)
        server = Server(bundle, workload.server_flags(run_dir, launch),
                        os.path.join(run_dir, f"server-{launch}.log"),
                        spans_path)
        try:
            server.wait_ready()
            asyncio.run(_warmup(workload, server.port))
            setup = time.monotonic() - server.launched
            segment = asyncio.run(_measure(workload, server,
                                           seconds / LAUNCHES))
        finally:
            exit_code = server.stop()
        noisy = segment["host_sample"]["steal_share"] > STEAL_LIMIT
        segment.update(setup=setup, exit_code=exit_code, noisy=noisy,
                       kept=not noisy or redos >= MAX_REDOS)
        redos += not segment["kept"]
        if traced:
            segment["spans"] = load_spans(spans_path)
        # response checks per launch: hot-pair identity holds within
        # one server's cache
        rows.extend(workload.check(segment["results"]))
        segments.append(segment)
    kept = [seg for seg in segments if seg["kept"]]
    measured = {
        "launched": segments,
        "segments": kept,
        "results": [r for seg in kept for r in seg["results"]],
        "windows": [(seg["start"], seg["end"]) for seg in kept],
        "spans": [span for seg in kept for span in seg.get("spans", ())],
        "quiet_wait_s": waited,
        "redone": redos,
        "noisy_kept": sum(seg["noisy"] for seg in kept),
    }
    _reference_checks(workload, measured, rows, bundle, seed_dir, run_dir)
    shutil.rmtree(run_dir, ignore_errors=True)
    return measured


def _reference_checks(workload, measured: dict, rows: list, bundle: str,
                      seed_dir: str, run_dir: str) -> None:
    """Checks against references, after every launch stopped.

    Served scores are compared with an ``InferenceEngine`` on the same
    bundle (a seeded sample of at most ``CHECK_SAMPLE_PAIRS``), the
    scorer's cache hit ratio with the workload's claim, and each
    ``grow`` launch's final edge set with an in-process replay of the
    batches that launch ingested.  Redone launches are checked too.
    """
    launched = measured["launched"]
    checks = failed_checks = 0
    notes = list(workload.failures)
    if rows:
        path = os.path.join(run_dir, "served.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(workload.rng.sample(
                rows, min(len(rows), CHECK_SAMPLE_PAIRS)), handle)
        verdict = run_helper("check-scores", "--bundle", bundle,
                             "--pairs", path)
        checks += verdict["checked"]
        failed_checks += verdict["mismatches"]
        measured["score_check"] = verdict
        if verdict["mismatches"]:
            notes.append(f"{verdict['mismatches']} served scores differ from "
                         f"the engine by more than {verdict['tolerance']}")
    if workload.hit_ratio_range is not None:
        low, high = workload.hit_ratio_range
        ratio = _ratio(_delta(launched, HITS), _delta(launched, REQUESTED))
        checks += 1
        if not low <= ratio <= high:
            failed_checks += 1
            notes.append(f"scorer cache hit ratio {ratio:.4f} is outside "
                         f"[{low}, {high}]")
    if workload.name == "grow":
        # batch 0 is each launch's warm-up
        prefixes = [1 + sum(r.ok and r.kind == "ingest"
                            for r in seg["results"])
                    for seg in launched]
        verdict = run_helper(
            "grow-reference", "--bundle", bundle,
            "--inputs", os.path.join(seed_dir, "inputs.json"),
            "--batches", ",".join(map(str, prefixes)),
            "--cache", os.path.join(seed_dir, "grow-reference.json"))
        for seg, batches in zip(launched, prefixes):
            checks += 1
            if edge_digest(seg["taxonomy"]["edges"]) != \
                    verdict["digests"][str(batches)]:
                failed_checks += 1
                notes.append(f"taxonomy after {batches} batches differs "
                             f"from the in-process replay")
        measured["taxonomy_prefixes"] = prefixes
    for seg in launched:
        if seg["exit_code"] != 0:
            notes.append(f"server exited with {seg['exit_code']}")
            failed_checks += 1
    results = [r for seg in launched for r in seg["results"]]
    bad_requests = sum(not r.ok for r in results) + workload.mismatches
    measured["attempted"] = len(results) + checks
    measured["failed"] = bad_requests + failed_checks
    measured["mismatches"] = workload.mismatches + failed_checks
    measured["shed"] = sum(r.status == 429 for r in results)
    measured["notes"] = notes


# ----------------------------------------------------------------------
# metric reduction
# ----------------------------------------------------------------------
def _delta(segments: list, name: str) -> float:
    """Counter delta over timed segments, summed across label sets."""
    return sum(value for seg in segments
               for key, value in seg["counters"].items()
               if key.split("{", 1)[0] == name)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def window_medians(reads, start: int, end: int,
                   windows: int = WINDOWS_PER_LAUNCH) -> list[float]:
    """Median latency of the reads due in each equal window of a segment.

    Windows without a read are skipped.  Speed on this kind of host
    comes in phases of a few seconds (CPU steal, and on ``score_bulk``
    the worker pool's BLAS threads contending for the cores), so a
    median over a whole segment jumps to whichever phase had the
    majority; the mean of short-window medians moves with the share.
    """
    width = max(end - start, 1) / windows
    groups: list[list[float]] = [[] for _ in range(windows)]
    for result in reads:
        index = int((result.due - start) / width)
        groups[min(max(index, 0), windows - 1)].append(result.latency_ms)
    return [percentile(group, 50) for group in groups if group]


def launch_metrics(workload, seg: dict) -> dict:
    """The per-launch values the pass metrics are made of."""
    ok = [r for r in seg["results"] if r.ok]
    reads = [r for r in ok if r.kind == workload.read_kind]
    units = [r for r in ok if workload.cpu_per_kind in (None, r.kind)]
    return {
        "setup_s": seg["setup"],
        "p50_ms": statistics.fmean(
            window_medians(reads, seg["start"], seg["end"]) or [math.nan]),
        "throughput_rps": len(reads) / ((seg["end"] - seg["start"]) / 1e9),
        "cpu_ms_per_req": 1000.0 * (seg["parent_cpu_s"] + seg["worker_cpu_s"])
        / max(len(units), 1),
        "mem_pss_mb": seg["pss_mb"],
        "steal_share": seg["host_sample"]["steal_share"],
    }


def end_to_end(name: str, measured: dict) -> dict:
    """Every end-to-end metric of one pass, with its sample facts.

    ``p50_ms`` (itself a mean of window medians), ``throughput_rps`` and
    ``cpu_ms_per_req`` are the mean of the per-launch values,
    ``setup_s`` and ``mem_pss_mb`` their median; ``p99_ms`` is taken
    over every kept launch's reads at once.
    """
    workload = WORKLOADS[name]
    results = measured["results"]
    ok = [r for r in results if r.ok]
    reads = [r for r in ok if r.kind == workload.read_kind]
    segments = measured["segments"]
    launches = [launch_metrics(workload, seg) for seg in segments]

    def over_launches(metric, reduce=statistics.fmean):
        return reduce(launch[metric] for launch in launches)

    window = sum(end - start for start, end in measured["windows"]) / 1e9
    parent = sum(seg["parent_cpu_s"] for seg in segments)
    workers = sum(seg["worker_cpu_s"] for seg in segments)
    metrics = {
        "setup_s": over_launches("setup_s", statistics.median),
        "p50_ms": over_launches("p50_ms"),
        "p99_ms": percentile([r.latency_ms for r in reads], 99),
        "throughput_rps": over_launches("throughput_rps"),
        "cpu_ms_per_req": over_launches("cpu_ms_per_req"),
        "mem_pss_mb": over_launches("mem_pss_mb", statistics.median),
        "error_ratio": _ratio(measured["failed"], measured["attempted"]),
    }
    facts = {"reads": len(reads), "requests": len(results),
             "window_s": window,
             "pool.parent_cpu_ms_per_req": 1000.0 * parent / max(len(ok), 1),
             "pool.worker_cpu_ms_per_req":
                 1000.0 * workers / max(len(ok), 1),
             "scorer.hit_ratio": _ratio(_delta(segments, HITS),
                                        _delta(segments, REQUESTED))}
    if workload.loop == "open":
        facts["lateness_p99_ms"] = percentile(
            [(r.sent - r.due) / 1e6 for r in results], 99)
    else:
        facts["clients"] = workload.clients
    ingests = [r for r in ok if r.kind == "ingest"]
    if ingests:
        # each launch's write sequence, from its first send to its last
        # response
        wall = 0.0
        for seg in segments:
            own = [r for r in seg["results"] if r.ok and r.kind == "ingest"]
            if own:
                wall += (own[-1].done - own[0].sent) / 1e9
        records = sum(len(r.request["records"]) for r in ingests)
        metrics["ingest_records_per_s"] = records / wall
        metrics["ingest_p50_ms"] = percentile(
            [r.latency_ms for r in ingests], 50)
        facts["ingests"] = len(ingests)
        facts["suggests_per_ingest"] = len(reads) / len(ingests)
    for key in segments[0]["host_sample"]:
        facts[key] = statistics.fmean(seg["host_sample"][key]
                                      for seg in segments)
    facts["quiet_wait_s"] = measured["quiet_wait_s"]
    facts["launches_redone"] = measured["redone"]
    facts["noisy_launches_kept"] = measured["noisy_kept"]
    return {"metrics": metrics, "facts": facts, "launches": launches}


def per_layer(name: str, measured: dict, facts: dict) -> dict:
    """Per-layer metrics of a traced pass: ``{name: (value, calls)}``.

    ``facts`` are the pass's end-to-end facts (the pool CPU split and
    the cache hit ratio).
    """
    spans = measured["spans"]
    windows = measured["windows"]
    segments = measured["segments"]
    read = WORKLOADS[name].read_kind

    def layer(span, children=(), same_thread=False):
        return summarize(spans, span, windows, children, same_thread)

    reads = [r for r in measured["results"] if r.ok and r.kind == read]
    route = layer(f"routes.{read}", (f"service.{read}", "schemas.parse"),
                  same_thread=True)
    client_ms = statistics.fmean(r.service_ms for r in reads) if reads \
        else 0.0
    parse = layer("schemas.parse")
    scorer = layer("scorer.call", ("engine.call", "pool.call"))
    engine = layer("engine.call", ("bert.encode", "classifier.call"),
                   same_thread=True)
    model_calls = _delta(segments, "repro_scorer_model_calls_total")
    batches = _delta(segments, "repro_scorer_batches_total")
    out = {
        "async_http.front_ms": (client_ms - route["wall_ms"], len(reads)),
        "async_http.shed": (measured["shed"], len(measured["results"])),
        "schemas.parse_ms": (parse["wall_ms"], parse["calls"]),
        "routes.self_ms": (route["self_ms"], route["calls"]),
        "scorer.call_ms": (scorer["wall_ms"], scorer["calls"]),
        "scorer.self_ms": (scorer["self_ms"], scorer["calls"]),
        "scorer.hit_ratio": (facts["scorer.hit_ratio"], scorer["calls"]),
        "scorer.pairs_per_call": (_ratio(
            _delta(segments, "repro_scorer_pairs_scored_total"),
            model_calls), model_calls),
        "scorer.requests_per_batch": (_ratio(
            _delta(segments, "repro_scorer_coalesced_requests_total"),
            batches), batches),
        "engine.call_ms": (engine["wall_ms"], engine["calls"]),
        "engine.pairs_per_s": (_ratio(engine["count"],
                                      engine["busy_ms"] / 1e3),
                               engine["calls"]),
        "engine.other_ms": (engine["self_ms"], engine["calls"]),
    }
    for metric, span in (("bert.encode_ms", "bert.encode"),
                         ("classifier_ms", "classifier.call"),
                         ("pool.call_ms", "pool.call"),
                         ("scorer.invalidate_ms", "scorer.invalidate"),
                         ("engine.recompute_ms", "engine.recompute"),
                         ("retrieval.neighbors_ms", "retrieval.neighbors"),
                         ("retrieval.extend_ms", "retrieval.extend"),
                         ("journal.append_ms", "journal.append"),
                         ("journal.flush_ms", "journal.flush")):
        summary = layer(span)
        out[metric] = (summary["wall_ms"], summary["calls"])
    suggest = layer("service.suggest", ("retrieval.neighbors", "scorer.call"),
                    same_thread=True)
    ingest = layer("service.ingest", ("expander.ingest", "journal.flush"))
    expander = layer("expander.ingest", ("scorer.call",), same_thread=True)
    expander_pairs = nested_count(
        [span for span in spans if span[0] == "expander.ingest"
         and any(start <= span[1] <= end for start, end in windows)],
        [span for span in spans if span[0] == "scorer.call"])
    out.update({
        "service.suggest_self_ms": (suggest["self_ms"], suggest["calls"]),
        "service.ingest_wait_ms": (ingest["self_ms"], ingest["calls"]),
        "engine.rows_recomputed": (
            _delta(segments, "repro_engine_rows_recomputed_total"),
            out["engine.recompute_ms"][1]),
        "expander.ingest_ms": (expander["wall_ms"], expander["calls"]),
        "expander.self_ms": (expander["self_ms"], expander["calls"]),
        "expander.pairs_per_batch": (
            _ratio(expander_pairs, expander["calls"]), expander["calls"]),
        "pool.respawns": (_delta(segments,
                                 "repro_pool_worker_restarts_total"), 0),
    })
    for metric in ("pool.parent_cpu_ms_per_req",
                   "pool.worker_cpu_ms_per_req"):
        out[metric] = (facts[metric], facts["reads"])
    return out


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _line(name: str, value, note: str = "") -> None:
    unit = UNITS.get(name, "")
    shown = f"{value:.4f}" if isinstance(value, float) else str(value)
    print(f"  {name:<30} {shown:>14} {unit:<10} {note}".rstrip())


def _print_pass(label: str, block: dict, notes: list) -> None:
    """Every end-to-end metric and fact of one pass, then each launch."""
    facts = block["facts"]
    print(f" {label} pass: {facts['requests']} requests, {facts['reads']} "
          f"reads in {facts['window_s']:.2f}s over {len(block['launches'])} "
          f"launches")
    for metric, value in block["metrics"].items():
        _line(metric, value, f"n={facts['reads']}"
              if metric in ("p50_ms", "p99_ms") else "")
    for fact, value in facts.items():
        if fact not in ("reads", "requests", "window_s"):
            _line(fact, value)
    for index, launch in enumerate(block["launches"]):
        print(f"  launch {index}: " + ", ".join(
            f"{metric}={value:.4f}" for metric, value in launch.items()))
    for note in notes[:10]:
        print(f"  CHECK FAILED: {note}")


def _print_layers(name: str, layers: dict, measured: dict,
                  requests: int) -> None:
    """Per-layer metrics that apply (or have calls), and busy time."""
    print(" per-layer (traced pass): mean per call, with calls")
    for row in PER_LAYER:
        value, calls = layers[row[0]]
        if row[5] == "all" or name in row[5] or calls:
            _line(row[0], value, f"calls={calls:g}")
    print(" busy time per request (traced pass)")
    for span_name in sorted({span[0] for span in measured["spans"]}):
        busy = summarize(measured["spans"], span_name,
                         measured["windows"])["busy_ms"]
        print(f"  {span_name:<30} {busy / max(requests, 1):>14.4f} ms")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 host: dict, bench: dict) -> dict:
    """One workload: its passes, printed metrics and JSON result.

    The result line carries the end-to-end metrics of ``bench`` (or,
    with ``trace``, its per-layer metrics) in the units it gives.
    """
    spec = REFERENCE[name]
    bundle, seed_dir, inputs = ensure_fixture(seed)
    print(f"workload {name} (seed {seed}, {seconds:g}s)")
    print(f"  traffic: {spec['traffic']}")
    print(f"  loop: {spec['loop']}; server: {spec['server_flags']}")
    passes = {"plain": run_pass(name, bundle, seed_dir, inputs, seed,
                                seconds, False, host["nproc"])}
    if trace:
        passes["traced"] = run_pass(name, bundle, seed_dir, inputs, seed,
                                    seconds, True, host["nproc"])
    reduced = {label: end_to_end(name, measured)
               for label, measured in passes.items()}
    for label, measured in passes.items():
        _print_pass(label, reduced[label], measured["notes"])
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "host": host, "reference": spec, "passes": reduced}
    plain = reduced["plain"]["metrics"]
    values = dict(plain)
    listed = bench["end_to_end"]
    if trace:
        traced = reduced["traced"]
        layers = per_layer(name, passes["traced"], traced["facts"])
        _print_layers(name, layers, passes["traced"],
                      traced["facts"]["requests"])
        overhead = {metric: traced["metrics"][metric] - plain[metric]
                    for metric in plain if metric in traced["metrics"]}
        print(" tracing overhead (traced minus plain)")
        for metric, value in overhead.items():
            _line(metric, value)
        values = {metric: value for metric, (value, _calls)
                  in layers.items()}
        listed = bench["per_layer"]
        report["per_layer"] = {metric: {"value": value, "calls": calls}
                               for metric, (value, calls) in layers.items()}
        report["overhead"] = overhead
    metrics = {metric["name"]: {"value": values[metric["name"]],
                                "unit": metric["unit"]}
               for metric in listed}
    result = {"correct": all(m["mismatches"] == 0 for m in passes.values()),
              "attempted": sum(m["attempted"] for m in passes.values()),
              "failed": sum(m["failed"] for m in passes.values()),
              "metrics": metrics}
    report["result"] = result
    # the result line's keys are fixed; the host-noise count sits above it
    print(" ".join(f"{label}: {len(measured['segments'])} launches kept, "
                   f"{measured['redone']} redone for CPU steal over "
                   f"{STEAL_LIMIT}, {measured['noisy_kept']} kept over it;"
                   for label, measured in passes.items()))
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    with open(os.path.join(WORK_DIR, "results", f"{name}-seed{seed}-"
                           f"trace{int(trace)}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, default=str)
    return result


def describe(bench: dict) -> None:
    """Print the reference tables, marking what BENCHMARK.json gates."""
    why = {row["name"]: row["why"] for row in bench["workloads"]}
    gated = {row["name"] for row in bench["end_to_end"] + bench["per_layer"]}
    for name, spec in REFERENCE.items():
        print(f"{name}:{' [gated]' if name in why else ''}")
        if name in why:
            print(f"  why: {why[name]}")
        for key, value in spec.items():
            shown = ", ".join(value) if isinstance(value, tuple) else value
            print(f"  {key}: {shown}")
    print("end-to-end metrics:")
    for name, (unit, definition, where) in END_TO_END.items():
        mark = " [gated]" if name in gated else ""
        print(f"  {name} ({unit}){mark}: {definition} -- {where}")
    print("per-layer metrics:")
    for name, unit, layer, measured, moves, where in PER_LAYER:
        mark = " [gated]" if name in gated else ""
        print(f"  {name} ({unit}, {layer}){mark}: {measured}; should move "
              f"{moves}; applies to {where}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Serving benchmark over a real repro serve process.")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all",
                        help="one workload, or every one in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print the workload and metric reference")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    if args.describe:
        describe(bench)
        return 0
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    host = static_host()
    host.update(run_helper("host"))
    print("host: " + ", ".join(f"{key}={value}"
                               for key, value in host.items()))
    names = ([row["name"] for row in bench["workloads"]]
             if args.workload == "all" else [args.workload])
    correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds,
                              bool(args.trace), host, bench)
        correct = correct and result["correct"]
        print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as error:  # report and fail without a result line
        print(f"error: {error!r}", file=sys.stderr)
        sys.exit(2)
