"""Hot-reload and scorer-resilience tests.

Covers the zero-downtime artifact swap (service level and over HTTP,
including under concurrent scoring load), the smoke-test guard that
keeps a bad bundle out, ``repro serve``'s SIGHUP reload and SIGTERM
drain, the engine drain hook, and BatchingScorer batch failures (a
failed batch fails exactly its own requests and strands no queued one).
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serving import (
    ArtifactBundle, AsyncServerThread, BatchingScorer, TaxonomyService,
)


@pytest.fixture(scope="module")
def bundles(tiny_fitted_pipeline, small_world, tmp_path_factory):
    """Two bundle directories: v1 as fitted, v2 with shifted weights."""
    v1 = str(tmp_path_factory.mktemp("reload_v1"))
    ArtifactBundle.export(tiny_fitted_pipeline, v1,
                          taxonomy=small_world.existing_taxonomy,
                          vocabulary=small_world.vocabulary)
    v2 = str(tmp_path_factory.mktemp("reload_v2"))
    shifted = ArtifactBundle.load(v1).pipeline
    for parameter in shifted.detector.classifier.parameters():
        parameter.data = parameter.data + 0.05
    shifted.detector.compile_inference(force=True)
    ArtifactBundle.export(shifted, v2,
                          taxonomy=small_world.existing_taxonomy,
                          vocabulary=small_world.vocabulary)
    return v1, v2


@pytest.fixture(scope="module")
def scoring_pairs(tiny_fitted_pipeline):
    return [list(s.pair)
            for s in tiny_fitted_pipeline.dataset.all_pairs][:16]


class TestServiceReload:
    def test_swap_changes_scores_and_clears_cache(self, bundles,
                                                  scoring_pairs):
        v1, v2 = bundles
        service = TaxonomyService(ArtifactBundle.load(v1))
        try:
            before = service.score(scoring_pairs)["probabilities"]
            assert service.scorer.cache_len() > 0
            outcome = service.reload(v2)
            assert outcome["reloaded"]
            assert outcome["probe_pairs"] > 0
            assert outcome["old_engine_drained"]
            after = service.score(scoring_pairs)["probabilities"]
            expected = ArtifactBundle.load(v2).score_pairs(
                [tuple(pair) for pair in scoring_pairs])
            assert np.max(np.abs(np.asarray(after)
                                 - np.asarray(before))) > 1e-4
            np.testing.assert_allclose(after, expected, atol=1e-8, rtol=0)
            assert service.health()["reloads"] == 1
            assert "repro_reloads_total 1" in service.metrics_text()
        finally:
            service.stop()

    def test_reload_preserves_live_taxonomy(self, bundles, scoring_pairs):
        v1, v2 = bundles
        service = TaxonomyService(ArtifactBundle.load(v1))
        try:
            service.expand({"fruit": ["reload survivor"]})
            edges_before = service.taxonomy_state()["stats"]["edges"]
            service.reload(v2)
            assert service.taxonomy_state()["stats"]["edges"] == \
                edges_before
        finally:
            service.stop()

    def test_default_directory_rereads_current_bundle(self, bundles):
        v1, _v2 = bundles
        service = TaxonomyService(ArtifactBundle.load(v1))
        try:
            assert service.reload()["directory"] == v1
        finally:
            service.stop()

    def test_bad_bundle_keeps_old_model(self, bundles, scoring_pairs,
                                        tmp_path):
        v1, _v2 = bundles
        service = TaxonomyService(ArtifactBundle.load(v1))
        try:
            before = service.score(scoring_pairs)["probabilities"]
            with pytest.raises(Exception):
                service.reload(str(tmp_path / "no_such_bundle"))
            after = service.score(scoring_pairs)["probabilities"]
            assert after == before
            assert service.health()["reloads"] == 0
        finally:
            service.stop()

    def test_reload_under_concurrent_load(self, bundles, scoring_pairs):
        """No request may fail or see a non-probability mid-swap."""
        v1, v2 = bundles
        service = TaxonomyService(ArtifactBundle.load(v1))
        service.start()
        errors: list = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                try:
                    probs = service.score(scoring_pairs)["probabilities"]
                    if not all(0.0 <= p <= 1.0 for p in probs):
                        errors.append(f"bad probability: {probs}")
                except Exception as error:
                    errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.1)
            for directory in (v2, v1, v2):
                service.reload(directory)
                time.sleep(0.05)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            service.stop()
        assert not errors, errors[:3]
        assert service.health()["reloads"] == 3


class TestHTTPReload:
    @pytest.fixture()
    def server(self, bundles):
        v1, _v2 = bundles
        service = TaxonomyService(ArtifactBundle.load(v1))
        service.start()
        harness = AsyncServerThread(service)
        harness.start()
        yield harness
        harness.stop()
        service.stop()

    def request(self, server, path, payload=None):
        host, port = server.address
        data = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(
            f"http://{host}:{port}{path}", data=data,
            headers={"Content-Type": "application/json"} if data else {})
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_admin_reload_endpoint(self, server, bundles, scoring_pairs):
        _v1, v2 = bundles
        _s, before = self.request(server, "/score",
                                  {"pairs": scoring_pairs})
        status, outcome = self.request(server, "/admin/reload",
                                       {"artifacts": v2})
        assert status == 200 and outcome["reloaded"]
        _s, after = self.request(server, "/score",
                                 {"pairs": scoring_pairs})
        assert after["probabilities"] != before["probabilities"]

    def test_admin_reload_failure_is_500(self, server):
        status, payload = self.request(
            server, "/admin/reload", {"artifacts": "/no/such/bundle"})
        assert status == 500
        assert "error" in payload


class TestServeSignals:
    """``repro serve``'s own handlers: SIGHUP reloads, SIGTERM drains."""

    @pytest.mark.skipif(not hasattr(signal, "SIGHUP"),
                        reason="platform has no SIGHUP")
    def test_sighup_reloads_then_sigterm_exits_zero(self, bundles):
        v1, _v2 = bundles
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH="src" + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        with subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--artifacts", v1, "--port", "0", "--quiet"],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                cwd=os.path.dirname(os.path.dirname(__file__)), env=env,
                text=True) as process:
            # a server that never announces itself is killed, which ends
            # the stdout read below with EOF instead of hanging the suite
            watchdog = threading.Timer(120.0, process.kill)
            watchdog.start()
            try:
                port = None
                for line in process.stdout:
                    if "repro serving on http://" in line:
                        port = int(line.split("http://", 1)[1]
                                   .split(maxsplit=1)[0].rsplit(":", 1)[1])
                        break
                assert port, "server did not announce a port"
                health_url = f"http://127.0.0.1:{port}/v1/healthz"
                process.send_signal(signal.SIGHUP)
                deadline = time.monotonic() + 30
                while True:
                    with urllib.request.urlopen(health_url,
                                                timeout=30) as response:
                        reloads = json.loads(response.read())["reloads"]
                    if reloads or time.monotonic() > deadline:
                        break
                    time.sleep(0.05)
                assert reloads == 1
                process.send_signal(signal.SIGTERM)
                assert process.wait(timeout=30) == 0
            finally:
                watchdog.cancel()
                if process.poll() is None:
                    process.kill()


class TestEngineDrain:
    def test_idle_engine_drains_immediately(self, tiny_fitted_pipeline):
        engine = tiny_fitted_pipeline.detector.compile_inference()
        assert engine.drain(timeout=1.0)

    def test_busy_engine_blocks_until_done(self, tiny_fitted_pipeline):
        engine = tiny_fitted_pipeline.detector.compile_inference()
        release = threading.Event()
        holding = threading.Event()

        def hold():
            with engine._lock:
                holding.set()
                release.wait(10.0)

        thread = threading.Thread(target=hold)
        thread.start()
        holding.wait(10.0)
        assert not engine.drain(timeout=0.05)
        release.set()
        thread.join(10.0)
        assert engine.drain(timeout=5.0)


class TestSwapEpochFence:
    """An in-flight batch must not repopulate the cache post-swap."""

    def test_mid_batch_swap_keeps_cache_clean(self):
        entered = threading.Event()
        release = threading.Event()

        def slow_old_model(pairs):
            entered.set()
            release.wait(10.0)
            return np.full(len(pairs), 0.1)

        scorer = BatchingScorer(slow_old_model, cache_size=64)
        result: dict = {}

        def score():
            result["probs"] = scorer.score_pairs([("a", "b")])

        thread = threading.Thread(target=score)
        thread.start()
        entered.wait(10.0)  # old-model batch is in flight
        scorer.swap_scorer(lambda pairs: np.full(len(pairs), 0.9))
        release.set()
        thread.join(10.0)
        # The in-flight caller got the old model's answer (drain)...
        np.testing.assert_allclose(result["probs"], [0.1])
        # ...but the cache was not repolluted: a fresh request scores
        # through the new model instead of serving 0.1 from cache.
        assert scorer.cache_len() == 0
        np.testing.assert_allclose(scorer.score_pairs([("a", "b")]),
                                   [0.9])


def _fail_second_batch(error):
    """Four 2-pair requests through a scorer whose second call raises.

    Request 0 leads and is held inside the backend while 1, 2 and 3
    queue in that order; with ``max_batch=4``, requests 1 and 2 form the
    second (failing) batch and request 3 waits for a third.  Returns the
    scorer, each request's result or exception, the thread of each
    caller, and the thread of each backend call in call order.
    """
    entered, release = threading.Event(), threading.Event()
    calls, backend_threads = [], []

    def backend(pairs):
        calls.append(list(pairs))
        backend_threads.append(threading.current_thread())
        if len(calls) == 1:
            entered.set()
            assert release.wait(10.0)
        if len(calls) == 2:
            raise error
        return np.full(len(pairs), 0.25)

    scorer = BatchingScorer(backend, max_batch=4, cache_size=0)
    requests = [[(f"p{i}", "a"), (f"p{i}", "b")] for i in range(4)]
    outcomes, callers = {}, {}

    def request(i):
        callers[i] = threading.current_thread()
        try:
            outcomes[i] = scorer.score_pairs(requests[i])
        except BaseException as failure:
            outcomes[i] = failure

    clients = [threading.Thread(target=request, args=(i,))
               for i in range(4)]
    clients[0].start()
    assert entered.wait(10.0)  # the leader is held inside the backend
    for i in (1, 2, 3):
        clients[i].start()
        deadline = time.monotonic() + 10.0
        while scorer.stats_snapshot().requests < i + 1:
            assert time.monotonic() < deadline
            time.sleep(0.001)
    release.set()
    for client in clients:
        client.join(10.0)
        assert not client.is_alive()  # no caller is stranded
    assert calls == [requests[0], requests[1] + requests[2], requests[3]]
    return scorer, outcomes, callers, backend_threads


class TestScorerWorkerDeath:
    """A fatal error in a scoring batch must not strand any caller."""

    def test_queued_requests_get_the_fatal_error(self):
        fatal = KeyboardInterrupt("backend died")
        scorer, outcomes, _, _ = _fail_second_batch(fatal)
        # both requests coalesced into the failing batch see its error...
        assert outcomes[1] is fatal and outcomes[2] is fatal
        # ...and the requests in the other batches do not
        for i in (0, 3):
            np.testing.assert_allclose(outcomes[i], [0.25, 0.25])
        stats = scorer.stats_snapshot()
        assert (stats.model_calls, stats.coalesced_requests) == (2, 2)

    def test_degrades_to_synchronous_after_death(self):
        scorer, _, _, backend_threads = _fail_second_batch(
            KeyboardInterrupt("backend died"))
        # a queued-size request and a batch-filling one both still score,
        # each on the thread that asked
        np.testing.assert_allclose(scorer.score_pairs([("x", "y")]), [0.25])
        full = [(f"q{i}", "z") for i in range(4)]
        np.testing.assert_allclose(scorer.score_pairs(full), [0.25] * 4)
        assert backend_threads[3:] == [threading.current_thread()] * 2

    def test_scoring_exception_does_not_kill_worker(self):
        scorer, outcomes, callers, backend_threads = _fail_second_batch(
            ValueError("transient scoring failure"))
        assert isinstance(outcomes[1], ValueError)
        # the request queued behind the failed batch led the next one
        assert backend_threads[2] is callers[3]
        np.testing.assert_allclose(outcomes[3], [0.25, 0.25])
        np.testing.assert_allclose(scorer.score_pairs([("x", "y")]), [0.25])
        assert scorer.stats_snapshot().model_calls == 3
