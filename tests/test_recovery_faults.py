"""Crash/fault-injection tests for the snapshot + compaction layer.

Every failure mode the recovery contract promises to survive — or to
refuse to paper over — gets a test here:

* a crash mid-snapshot-write (atomic-rename discipline) leaves the
  previous valid snapshot in charge, silently;
* a truncated or CRC-corrupt newest snapshot falls back to an older
  snapshot plus a longer journal tail, with a warning;
* a snapshot whose journal tail was already compacted away fails
  loudly instead of silently serving a hole in history;
* journal compaction never deletes a segment the latest valid snapshot
  does not cover.

The module closes with a hypothesis property test: for random
interleavings of ingest / snapshot / crash / restart, the recovered
``/taxonomy`` state and engine structural epoch are always identical to
an uninterrupted run of the same ingests.
"""

import os
import shutil
import tempfile
import warnings

import pytest

from repro.serving import (
    ArtifactBundle, IngestJournal, ServiceConfig, SnapshotCorruptionWarning,
    SnapshotStore, TaxonomyService,
)

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # CI image installs no test extras beyond pytest
    HAVE_HYPOTHESIS = False


@pytest.fixture(scope="module")
def bundle_dir(tiny_fitted_pipeline, small_world, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("recovery_bundle"))
    ArtifactBundle.export(tiny_fitted_pipeline, directory,
                          taxonomy=small_world.existing_taxonomy,
                          vocabulary=small_world.vocabulary)
    return directory


@pytest.fixture(scope="module")
def batches(small_click_log):
    """Deterministic click-record batches, four records each."""
    records = [[q, i, c] for (q, i), c in
               sorted(small_click_log.counts.items())]
    return [records[k:k + 4] for k in range(0, min(len(records), 40), 4)]


def make_service(bundle_dir, journal_dir, snapshot_dir, *, keep=2,
                 max_segment_bytes=200):
    """A journal+snapshot-backed service with aggressive rotation, so
    compaction has sealed segments to work on."""
    return TaxonomyService(
        ArtifactBundle.load(bundle_dir), ServiceConfig(),
        journal=IngestJournal(journal_dir, fsync_every=1,
                              max_segment_bytes=max_segment_bytes),
        snapshots=SnapshotStore(snapshot_dir, keep=keep))


def taxonomy_fingerprint(service):
    state = service.taxonomy_state()
    return state["stats"], sorted(tuple(e) for e in state["edges"])


def engine_epoch(service):
    return service.bundle.engine.structural_epoch


class TestMidWriteCrash:
    def test_torn_tmp_leaves_older_snapshot_in_charge(self, bundle_dir,
                                                      batches, tmp_path):
        journal_dir, snap_dir = str(tmp_path / "j"), str(tmp_path / "s")
        service = make_service(bundle_dir, journal_dir, snap_dir)
        service.start()
        service.ingest(batches[0], sync=True)
        service.ingest(batches[1], sync=True)
        outcome = service.snapshot()
        service.ingest(batches[2], sync=True)
        expected = taxonomy_fingerprint(service)
        expected_epoch = engine_epoch(service)
        del service  # kill -9: no stop(), no close()

        # Simulate dying mid-write of the *next* snapshot: the atomic
        # rename never happened, so only a torn ``.tmp`` exists.
        torn = os.path.join(
            snap_dir, "snapshot-9999999999999999.json.tmp")
        with open(torn, "wb") as handle:
            handle.write(b'{"format_version": 1, "seq": 99, "state": {')

        restarted = make_service(bundle_dir, journal_dir, snap_dir)
        with warnings.catch_warnings():
            # The torn tmp must not even register as a corrupt snapshot.
            warnings.simplefilter("error", SnapshotCorruptionWarning)
            summary = restarted.recover()
        assert summary["snapshot"] == outcome["snapshot"]
        assert summary["ingest"] == 1  # only the post-snapshot batch
        assert taxonomy_fingerprint(restarted) == expected
        assert engine_epoch(restarted) == expected_epoch
        # The next successful write sweeps the torn tmp.
        restarted.snapshot()
        assert not os.path.exists(torn)
        restarted.stop()


class TestCorruptSnapshotFallback:
    @pytest.mark.parametrize("corruption", ["truncate", "bitflip"])
    def test_falls_back_to_previous_snapshot_with_longer_tail(
            self, bundle_dir, batches, tmp_path, corruption):
        journal_dir = str(tmp_path / "j")
        snap_dir = str(tmp_path / "s")
        service = make_service(bundle_dir, journal_dir, snap_dir)
        service.start()
        service.ingest(batches[0], sync=True)
        first = service.snapshot()
        service.ingest(batches[1], sync=True)
        service.ingest(batches[2], sync=True)
        # compact=False keeps the journal tail back to the first
        # snapshot alive, so the fallback has something to replay.
        second = service.snapshot(compact=False)
        expected = taxonomy_fingerprint(service)
        expected_epoch = engine_epoch(service)
        del service

        newest = os.path.join(snap_dir, second["snapshot"])
        blob = open(newest, "rb").read()
        if corruption == "truncate":
            open(newest, "wb").write(blob[:len(blob) // 2])
        else:
            flipped = bytearray(blob)
            flipped[len(flipped) // 2] ^= 0x40
            open(newest, "wb").write(bytes(flipped))

        restarted = make_service(bundle_dir, journal_dir, snap_dir)
        with pytest.warns(SnapshotCorruptionWarning,
                          match="older snapshot"):
            summary = restarted.recover()
        assert summary["snapshot"] == first["snapshot"]
        assert summary["snapshot_seq"] == first["seq"]
        assert summary["ingest"] == 2  # the longer tail replays both
        assert taxonomy_fingerprint(restarted) == expected
        assert engine_epoch(restarted) == expected_epoch
        assert restarted.snapshots.stats.corrupt_skipped >= 1
        restarted.stop()

    def test_all_snapshots_corrupt_replays_full_journal(self, bundle_dir,
                                                        batches, tmp_path):
        journal_dir, snap_dir = str(tmp_path / "j"), str(tmp_path / "s")
        service = make_service(bundle_dir, journal_dir, snap_dir)
        service.start()
        service.ingest(batches[0], sync=True)
        outcome = service.snapshot(compact=False)
        expected = taxonomy_fingerprint(service)
        del service
        path = os.path.join(snap_dir, outcome["snapshot"])
        open(path, "wb").write(b"not a snapshot")

        restarted = make_service(bundle_dir, journal_dir, snap_dir)
        with pytest.warns(SnapshotCorruptionWarning):
            summary = restarted.recover()
        assert summary["snapshot"] is None
        assert summary["ingest"] == 1  # full-history replay
        assert taxonomy_fingerprint(restarted) == expected
        restarted.stop()


class TestMissingTailFailsLoudly:
    def test_corrupt_newest_plus_compacted_tail_raises(self, bundle_dir,
                                                       batches, tmp_path):
        journal_dir, snap_dir = str(tmp_path / "j"), str(tmp_path / "s")
        service = make_service(bundle_dir, journal_dir, snap_dir)
        service.start()
        service.ingest(batches[0], sync=True)
        service.ingest(batches[1], sync=True)
        first = service.snapshot()
        service.ingest(batches[2], sync=True)
        service.ingest(batches[3], sync=True)
        # This snapshot compacts segments *past* the first snapshot's
        # sequence — the older snapshot's tail is now gone.
        second = service.snapshot()
        del service

        newest = os.path.join(snap_dir, second["snapshot"])
        blob = open(newest, "rb").read()
        open(newest, "wb").write(blob[:len(blob) - 20])

        restarted = make_service(bundle_dir, journal_dir, snap_dir)
        assert restarted.journal.compacted_through > first["seq"], \
            "precondition: compaction must have advanced past snapshot 1"
        with pytest.warns(SnapshotCorruptionWarning):
            with pytest.raises(RuntimeError, match="compacted away"):
                restarted.recover()
        restarted.stop()

    def test_deleted_tail_segment_raises(self, bundle_dir, batches,
                                         tmp_path):
        journal_dir, snap_dir = str(tmp_path / "j"), str(tmp_path / "s")
        service = make_service(bundle_dir, journal_dir, snap_dir)
        service.start()
        service.ingest(batches[0], sync=True)
        service.snapshot()
        service.ingest(batches[1], sync=True)
        service.ingest(batches[2], sync=True)
        del service

        # A disk fault (or an over-eager operator) removes the segment
        # holding the records right after the snapshot: the surviving
        # tail no longer reaches back to the snapshot being restored.
        journal = IngestJournal(journal_dir)
        segs = journal.segments()
        journal.close()
        assert len(segs) >= 2, "need a removable non-final tail segment"
        os.remove(segs[0])

        restarted = make_service(bundle_dir, journal_dir, snap_dir)
        with pytest.raises(RuntimeError, match="missing"):
            restarted.recover()
        restarted.stop()


class TestCompactionSafety:
    def test_compaction_never_deletes_uncovered_segments(self, bundle_dir,
                                                         batches,
                                                         tmp_path):
        journal_dir, snap_dir = str(tmp_path / "j"), str(tmp_path / "s")
        service = make_service(bundle_dir, journal_dir, snap_dir)
        service.start()
        for batch in batches[:3]:
            service.ingest(batch, sync=True)
        outcome = service.snapshot()
        service.ingest(batches[3], sync=True)
        service.ingest(batches[4], sync=True)
        # Every record past the snapshot's covered sequence must still
        # be on disk, in order, regardless of what compaction removed.
        tail = [r.seq for r in
                service.journal.replay(after_seq=outcome["seq"])]
        last = service.journal.next_seq - 1
        assert tail == list(range(outcome["seq"] + 1, last + 1))
        service.stop()

    def test_journal_compact_preserves_every_uncovered_record(
            self, tmp_path):
        journal = IngestJournal(str(tmp_path), max_segment_bytes=150)
        for i in range(10):
            journal.append("ingest", {"records": [["q", f"item {i}", 1]]})
        journal.compact(4)
        survivors = [r.seq for r in journal.replay()]
        # Nothing past the covered bound may vanish, and whatever stays
        # is a contiguous run ending at the newest record.
        assert set(range(5, 10)) <= set(survivors)
        assert survivors == list(range(survivors[0], 10))
        journal.close()

    def test_journal_compact_spares_the_active_segment(self, tmp_path):
        # One big segment: still the active write target, so even a
        # bound covering all of it must not delete it.
        journal = IngestJournal(str(tmp_path))
        for i in range(10):
            journal.append("ingest", {"records": [["q", f"item {i}", 1]]})
        outcome = journal.compact(9)
        assert outcome["removed"] == []
        assert [r.seq for r in journal.replay()] == list(range(10))
        journal.close()


def _run_reference(bundle_dir, ingest_batches):
    """The uninterrupted run: same ingests, no journal, no faults."""
    service = TaxonomyService(ArtifactBundle.load(bundle_dir),
                              ServiceConfig())
    service.start()
    for batch in ingest_batches:
        service.ingest(batch, sync=True)
    fingerprint = taxonomy_fingerprint(service)
    epoch = engine_epoch(service)
    service.stop()
    return fingerprint, epoch


if HAVE_HYPOTHESIS:

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(ops=st.lists(st.sampled_from(["ingest", "snapshot", "crash"]),
                        min_size=1, max_size=7))
    def test_random_interleavings_recover_exactly(ops, bundle_dir,
                                                  batches):
        """Property: any interleaving of ingest / snapshot / crash /
        restart recovers to exactly the uninterrupted run's state."""
        journal_dir = tempfile.mkdtemp(prefix="prop_journal_")
        snap_dir = tempfile.mkdtemp(prefix="prop_snap_")
        service = None
        try:
            service = make_service(bundle_dir, journal_dir, snap_dir)
            service.start()
            applied = []
            for op in ops:
                if op == "ingest":
                    batch = batches[len(applied) % len(batches)]
                    service.ingest(batch, sync=True)
                    applied.append(batch)
                elif op == "snapshot":
                    service.snapshot()
                else:  # crash + restart
                    del service
                    service = make_service(bundle_dir, journal_dir,
                                           snap_dir)
                    service.recover()
                    service.start()
            # Final crash + restart, then compare against the
            # uninterrupted reference run.
            del service
            service = make_service(bundle_dir, journal_dir, snap_dir)
            service.recover()
            expected, expected_epoch = _run_reference(bundle_dir, applied)
            assert taxonomy_fingerprint(service) == expected
            assert engine_epoch(service) == expected_epoch
        finally:
            if service is not None:
                service.stop()
            shutil.rmtree(journal_dir, ignore_errors=True)
            shutil.rmtree(snap_dir, ignore_errors=True)

else:

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_random_interleavings_recover_exactly():
        pass
