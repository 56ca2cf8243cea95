"""Tests of the benchmark's own code: spans, self time, percentiles,
connections, per-pass reduction and output checks.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from loadgen import Connection, Result, send  # noqa: E402
from reference import END_TO_END, PER_LAYER  # noqa: E402
from reference import WORKLOADS as REFERENCE  # noqa: E402
from spans import (  # noqa: E402
    Coverage, SpanRecorder, load_spans, nested_count, percentile, self_times,
    summarize,
)
from workloads import WORKLOADS  # noqa: E402


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_percentile_interpolates_between_order_statistics():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4, 5], 50) == 3
    assert percentile([10, 20], 25) == 12.5
    assert percentile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 90) == \
        pytest.approx(9.1)


def test_percentile_extremes_and_degenerate_inputs():
    values = [3.0, 1.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 3.0
    assert percentile([7.0], 99) == 7.0
    assert math.isnan(percentile([], 50))
    with pytest.raises(ValueError):
        percentile(values, 101)


def test_percentile_matches_inclusive_quartiles():
    rng = random.Random(3)
    for size in (2, 5, 17, 100):
        values = [rng.expovariate(1.0) for _ in range(size)]
        low, mid, high = statistics.quantiles(values, n=4,
                                              method="inclusive")
        assert percentile(values, 25) == pytest.approx(low)
        assert percentile(values, 50) == pytest.approx(mid)
        assert percentile(values, 75) == pytest.approx(high)


# ----------------------------------------------------------------------
# interval coverage and self time
# ----------------------------------------------------------------------
def _brute_covered(intervals, start, end):
    return sum(1 for tick in range(start, end)
               if any(low <= tick < high for low, high in intervals))


def test_coverage_merges_overlapping_and_touching_intervals():
    coverage = Coverage([(0, 10), (5, 15), (15, 20), (30, 40)])
    assert coverage.covered(0, 50) == 30
    assert coverage.covered(12, 32) == 10
    assert coverage.covered(20, 30) == 0
    assert coverage.covered(35, 35) == 0
    assert Coverage([]).covered(0, 10) == 0


def test_coverage_matches_brute_force():
    rng = random.Random(7)
    for _ in range(200):
        intervals = []
        for _ in range(rng.randint(0, 6)):
            low = rng.randint(0, 60)
            intervals.append((low, low + rng.randint(0, 20)))
        coverage = Coverage(intervals)
        start = rng.randint(0, 70)
        end = start + rng.randint(0, 30)
        assert coverage.covered(start, end) == \
            _brute_covered(intervals, start, end)


def test_self_time_counts_children_on_any_thread_once():
    parent = ("scorer.call", 0, 100, 1, 8)
    children = [("engine.call", 10, 40, 2, 8),   # worker thread
                ("engine.call", 30, 60, 2, 8),   # overlaps the first
                ("engine.call", 90, 130, 3, 8)]  # runs past the parent
    assert self_times([parent], children) == [100 - 50 - 10]


def test_self_time_same_thread_ignores_other_threads():
    parents = [("routes.score", 0, 100, 1, 0),
               ("routes.score", 0, 100, 2, 0)]
    children = [("service.score", 10, 90, 1, 0),
                ("service.score", 20, 30, 2, 0)]
    assert self_times(parents, children, same_thread=True) == [20, 90]
    assert self_times(parents, children) == [20, 20]


def test_nested_count_takes_children_inside_a_parent_on_its_thread():
    parents = [("expander.ingest", 0, 100, 7, 0),
               ("expander.ingest", 200, 300, 7, 0)]
    children = [("scorer.call", 10, 20, 7, 3),     # inside the first
                ("scorer.call", 250, 250, 7, 2),   # zero-length, inside
                ("scorer.call", 10, 20, 8, 5),     # another thread
                ("scorer.call", 150, 160, 7, 4)]   # between parents
    assert nested_count(parents, children) == 5
    assert nested_count([], children) == 0


def test_summarize_windows_parents_but_not_children():
    spans = [("engine.call", 0, 40, 2, 4),        # child before window
             ("scorer.call", 20, 60, 1, 4),       # in window
             ("scorer.call", 200, 260, 1, 6),     # in window, no child
             ("scorer.call", 500, 510, 1, 1)]     # after window
    summary = summarize(spans, "scorer.call", [(10, 100), (150, 300)],
                        children=("engine.call",))
    assert summary["calls"] == 2
    assert summary["wall_ms"] == pytest.approx((40 + 60) / 2 / 1e6)
    assert summary["self_ms"] == pytest.approx((20 + 60) / 2 / 1e6)
    assert summary["busy_ms"] == pytest.approx(100 / 1e6)
    assert summary["count"] == 10
    assert summarize(spans, "pool.call")["calls"] == 0


def test_recorder_records_raising_calls_and_round_trips(tmp_path):
    recorder = SpanRecorder()

    def fail(pairs):
        raise KeyError(pairs[0])

    wrapped = recorder.wrap("engine.call", fail, count=lambda args: len(
        args[0]))
    with pytest.raises(KeyError):
        wrapped([("a", "b"), ("c", "d")])
    assert recorder.wrap("x", len)("abc") == 3
    path = tmp_path / "spans.json"
    recorder.dump(str(path))
    spans = load_spans(str(path))
    assert [span[0] for span in spans] == ["engine.call", "x"]
    name, start, end, _thread, count = spans[0]
    assert end >= start and count == 2


# ----------------------------------------------------------------------
# the load generator's connections
# ----------------------------------------------------------------------
def test_prewarm_then_open_keeps_one_socket_per_connection():
    async def scenario():
        state = {"accepted": 0, "open": 0}

        async def handle(reader, writer):
            state["accepted"] += 1
            state["open"] += 1
            try:
                while True:
                    head = await reader.readuntil(b"\r\n\r\n")
                    length = int(head.lower().split(b"content-length:")[1]
                                 .split(b"\r\n")[0])
                    await reader.readexactly(length)
                    writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2"
                                 b"\r\n\r\n{}")
            except asyncio.IncompleteReadError:
                pass
            finally:
                state["open"] -= 1
                writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        conns = [Connection("127.0.0.1", port) for _ in range(2)]
        # the order of a timed segment: prewarm on the first, open all
        result = await send(conns[0], "score", "/v1/score", {"pairs": []})
        assert result.ok
        for conn in conns:
            await conn.open()
        await asyncio.sleep(0.05)
        counted = dict(state)
        for conn in conns:
            conn.close()
        await asyncio.sleep(0.05)
        server.close()
        await server.wait_closed()
        return counted, state

    counted, final = asyncio.run(scenario())
    assert counted == {"accepted": 2, "open": 2}
    assert final["open"] == 0


# ----------------------------------------------------------------------
# per-pass reduction and output checks
# ----------------------------------------------------------------------
def _result(kind, start_ms, latency_ms):
    start = int(start_ms * 1e6)
    return Result(kind, start, start, start + int(latency_ms * 1e6), 200,
                  {}, {})


def _segment(latencies, cpu_s, setup, hits=0.0, requested=1.0):
    results = [_result("score", 10.0 * index, latency)
               for index, latency in enumerate(latencies)]
    return {"results": results, "start": 0, "end": int(1e9),
            "parent_cpu_s": cpu_s, "worker_cpu_s": 0.0, "pss_mb": 50.0,
            "setup": setup, "host_sample": {"steal_share": 0.0},
            "counters": {run.HITS: hits, run.REQUESTED: requested},
            "exit_code": 0}


def test_end_to_end_averages_launches_instead_of_pooling_them():
    # a fast and a slow launch: the pooled median would jump to one
    # side, the mean of the launch medians sits between them
    segments = [_segment([10.0, 10.0, 10.0, 10.0], 0.04, 1.0),
                _segment([30.0, 30.0], 0.04, 3.0)]
    measured = {"segments": segments,
                "results": [r for seg in segments for r in seg["results"]],
                "windows": [(0, int(1e9))] * 2, "failed": 0, "attempted": 6,
                "quiet_wait_s": 0.0, "redone": 0, "noisy_kept": 0}
    block = run.end_to_end("score_hot", measured)
    assert block["metrics"]["p50_ms"] == pytest.approx(20.0)
    assert block["metrics"]["throughput_rps"] == pytest.approx(3.0)
    assert block["metrics"]["cpu_ms_per_req"] == pytest.approx(
        (10.0 + 20.0) / 2)
    assert block["metrics"]["setup_s"] == pytest.approx(2.0)
    assert block["facts"]["scorer.hit_ratio"] == 0.0


@pytest.mark.parametrize("hits, failed", [(1000.0, 0), (500.0, 1)])
def test_hit_ratio_claim_is_an_output_check(hits, failed):
    inputs = {"nodes": [f"n{i}" for i in range(40)],
              "concepts": [f"c{i}" for i in range(40)]}
    workload = WORKLOADS["score_hot"](inputs, 1, 2)
    measured = {"launched": [_segment([1.0], 0.0, 0.5, hits=hits,
                                      requested=1000.0)]}
    run._reference_checks(workload, measured, [], "", "", "")
    assert measured["failed"] == failed
    assert measured["attempted"] == 2
    assert any("hit ratio" in note for note in measured["notes"]) == \
        bool(failed)


# ----------------------------------------------------------------------
# BENCHMARK.json names only what the reference defines
# ----------------------------------------------------------------------
def test_every_gated_name_is_defined_in_the_reference():
    bench = run.load_benchmark()
    units = {name: spec[0] for name, spec in END_TO_END.items()}
    units.update({row[0]: row[1] for row in PER_LAYER})
    for row in bench["workloads"]:
        assert row["name"] in REFERENCE and row["name"] in WORKLOADS
    for row in bench["end_to_end"] + bench["per_layer"]:
        assert units[row["name"]] == row["unit"]
