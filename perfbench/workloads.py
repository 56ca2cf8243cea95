"""The workloads: seeded inputs, warm-up, timed traffic and checks.

Every workload draws its requests from ``random.Random(seed)`` over the
seed's fixture (taxonomy nodes, vocabulary, click-log batches), so the
same seed sends the same request sequence; the server only ever sees
the requests.  Each class says which server flags it adds, sends its
warm-up requests (one of each kind, counted in set-up time), runs the
timed phase and checks every response it got.
"""

from __future__ import annotations

import asyncio
import random
import time

from loadgen import closed_loop, open_loop, send

__all__ = ["WORKLOADS"]

PAIRS_PER_REQUEST = 8
BULK_PAIRS_PER_REQUEST = 256
HOT_SET_PAIRS = 1024
#: Poisson arrival rate of ``score_cold`` (about a third of the
#: closed-loop capacity on a 2-vCPU host)
COLD_RATE_RPS = 120.0
SUGGEST_K = 10


class DistinctPairs:
    """Seeded (taxonomy node, vocabulary concept) pairs, never repeated."""

    def __init__(self, rng: random.Random, nodes: list, concepts: list):
        self._rng = rng
        self._nodes = nodes
        self._concepts = concepts
        self._seen: set = set()

    def take(self, count: int) -> list:
        out = []
        while len(out) < count:
            pair = (self._rng.choice(self._nodes),
                    self._rng.choice(self._concepts))
            if pair[0] != pair[1] and pair not in self._seen:
                self._seen.add(pair)
                out.append(pair)
        return out


def _score_body(pairs) -> dict:
    return {"pairs": [list(pair) for pair in pairs]}


def _check_score(result, failures: list) -> bool:
    """Response shape of one score request; False (and why) on mismatch."""
    payload = result.payload or {}
    sent = result.request["pairs"]
    probs = payload.get("probabilities") or []
    if payload.get("pairs") != sent or len(probs) != len(sent) \
            or not all(0.0 <= p <= 1.0 for p in probs):
        failures.append(f"score response does not match its request: "
                        f"{str(payload)[:200]}")
        return False
    return True


class Workload:
    """Shared plumbing: the seeded RNG, connections and result lists."""

    name = ""
    read_kind = ""
    loop = "closed"
    clients = 2
    #: (low, high) bounds of the scorer's cache hit ratio over a pass,
    #: checked against the /v1/metrics deltas; None leaves it unchecked
    hit_ratio_range = None
    #: request kind ``cpu_ms_per_req`` divides by; None counts every one
    cpu_per_kind = None

    def __init__(self, inputs: dict, seed: int, nproc: int):
        self.rng = random.Random(seed)
        self.nproc = nproc
        self.pairs = DistinctPairs(self.rng, inputs["nodes"],
                                   inputs["concepts"])
        self.failures: list[str] = []
        self.mismatches = 0

    def server_flags(self, work_dir: str, launch: int) -> list:
        return []

    async def warmup(self, conn) -> None:
        raise NotImplementedError

    async def prewarm(self, conn) -> None:
        """Untimed preparation after set-up (the hot cache)."""

    async def timed(self, conns, seconds: float) -> list:
        raise NotImplementedError

    def check(self, results) -> list:
        """Served (parent, child, score) rows for the engine reference."""
        return []

    def _warm_result(self, result) -> None:
        if not result.ok:
            raise RuntimeError(f"warm-up {result.kind} answered "
                               f"{result.status}: {result.payload}")


async def _closed(conns, seconds, make) -> list:
    """Every connection sends ``make()`` requests back to back."""
    deadline = time.monotonic() + seconds
    batches = await asyncio.gather(*(
        closed_loop(conn, make, lambda: time.monotonic() >= deadline)
        for conn in conns))
    return [result for batch in batches for result in batch]


class ScoreCold(Workload):
    """Open-loop Poisson score traffic, every pair new to every cache."""

    name = "score_cold"
    read_kind = "score"
    loop = "open"
    hit_ratio_range = (0.0, 0.01)

    async def warmup(self, conn) -> None:
        self._warm_result(await send(
            conn, "score", "/v1/score",
            _score_body(self.pairs.take(PAIRS_PER_REQUEST))))

    async def timed(self, conns, seconds):
        # a Poisson process conditioned on its count: rate x seconds
        # arrivals at uniform random times, so every run offers the
        # same load
        count = round(COLD_RATE_RPS * seconds)
        offsets = sorted(self.rng.uniform(0.0, seconds) for _ in range(count))
        bodies = [_score_body(self.pairs.take(PAIRS_PER_REQUEST))
                  for _ in offsets]
        start = time.monotonic_ns() + 2_000_000
        return await open_loop(conns, [
            (start + int(offset * 1e9), "score", "/v1/score", body)
            for offset, body in zip(offsets, bodies)])

    def check(self, results):
        rows = []
        for result in results:
            if result.ok and _check_score(result, self.failures):
                rows.extend([parent, child, prob] for (parent, child), prob
                            in zip(result.request["pairs"],
                                   result.payload["probabilities"]))
            elif result.ok:
                self.mismatches += 1
        return rows


class ScoreHot(Workload):
    """Closed-loop score traffic over a 1,024-pair pre-warmed set."""

    name = "score_hot"
    read_kind = "score"
    hit_ratio_range = (0.99, 1.0)

    def __init__(self, inputs, seed, nproc):
        super().__init__(inputs, seed, nproc)
        self.hot = self.pairs.take(HOT_SET_PAIRS)
        self.seen: dict = {}

    async def warmup(self, conn) -> None:
        self._warm_result(await send(
            conn, "score", "/v1/score",
            _score_body(self.hot[:PAIRS_PER_REQUEST])))

    async def prewarm(self, conn) -> None:
        self.seen = {}  # identity is checked within one server's cache
        for start in range(0, HOT_SET_PAIRS, 64):
            result = await send(conn, "score", "/v1/score",
                                 _score_body(self.hot[start:start + 64]))
            self._warm_result(result)
            self._remember(result)

    def _remember(self, result) -> None:
        if not _check_score(result, self.failures):
            self.mismatches += 1
            return
        changed = [pair for pair, prob in zip(result.request["pairs"],
                                              result.payload["probabilities"])
                   if self.seen.setdefault(tuple(pair), prob) != prob]
        if changed:
            self.mismatches += 1
            self.failures.append(f"hot pairs {changed} answered other "
                                 f"values than their first response")

    async def timed(self, conns, seconds):
        def make():
            return ("score", "/v1/score", _score_body(
                self.rng.sample(self.hot, PAIRS_PER_REQUEST)))
        return await _closed(conns, seconds, make)

    def check(self, results):
        for result in results:
            if result.ok:
                self._remember(result)
        return []


class ScoreBulk(ScoreCold):
    """Closed-loop 256-pair score requests against ``--workers nproc``."""

    name = "score_bulk"
    loop = "closed"

    def server_flags(self, work_dir, launch):
        return ["--workers", str(self.nproc)]

    async def warmup(self, conn) -> None:
        self._warm_result(await send(
            conn, "score", "/v1/score",
            _score_body(self.pairs.take(BULK_PAIRS_PER_REQUEST))))

    async def timed(self, conns, seconds):
        def make():
            return ("score", "/v1/score", _score_body(
                self.pairs.take(BULK_PAIRS_PER_REQUEST)))
        return await _closed(conns, seconds, make)


class Grow(Workload):
    """Synchronous journaled ingest beside closed-loop suggests."""

    name = "grow"
    read_kind = "suggest"
    # the writer and the reader race, so the mix of the two kinds is not
    # a unit; the write batches are, with the suggests' CPU riding along
    cpu_per_kind = "ingest"

    def __init__(self, inputs, seed, nproc):
        super().__init__(inputs, seed, nproc)
        self.batches = inputs["batches"]
        self.queries = inputs["suggest_queries"]

    def server_flags(self, work_dir, launch):
        return ["--journal-dir", f"{work_dir}/journal-{launch}"]

    def _ingest(self, index: int) -> tuple:
        return ("ingest", "/v1/ingest",
                {"records": self.batches[index], "sync": True})

    def _suggest(self) -> tuple:
        return ("suggest", "/v1/suggest",
                {"query": self.rng.choice(self.queries), "k": SUGGEST_K})

    async def warmup(self, conn) -> None:
        # batch 0 of the sequence, then the suggest that builds the
        # candidate index; both count as set-up
        self._warm_result(await send(conn, *self._ingest(0)))
        self._warm_result(await send(conn, *self._suggest()))

    async def timed(self, conns, seconds):
        deadline = time.monotonic() + seconds
        writes = iter(range(1, len(self.batches)))

        def next_write():
            index = next(writes, None)
            return None if index is None else self._ingest(index)

        writer = asyncio.ensure_future(closed_loop(
            conns[0], next_write, lambda: time.monotonic() >= deadline))
        # suggests run for as long as the writes do
        suggests = await closed_loop(conns[1], self._suggest, writer.done)
        return await writer + suggests

    def check(self, results):
        for result in results:
            if not result.ok:
                continue
            payload = result.payload or {}
            if result.kind == "ingest":
                if not payload.get("accepted") or "report" not in payload:
                    self.mismatches += 1
                    self.failures.append(f"ingest not applied: {payload}")
                continue
            probs = [c.get("probability") for c
                     in payload.get("candidates", ())]
            if len(probs) != SUGGEST_K or probs != sorted(probs,
                                                          reverse=True):
                self.mismatches += 1
                self.failures.append(
                    f"suggest for {result.request['query']!r} returned "
                    f"{len(probs)} candidates, sorted="
                    f"{probs == sorted(probs, reverse=True)}")
        return []


WORKLOADS = {cls.name: cls for cls in (ScoreCold, ScoreHot, ScoreBulk, Grow)}
