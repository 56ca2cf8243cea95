"""Streaming click-log ingestion driving incremental expansion.

The paper's deployment story is a taxonomy that grows "as user behavior
information grows day by day"; online, behaviour arrives as a stream of
click-log batches.  :class:`StreamingIngestor` decouples request handling
from model work: callers :meth:`submit` batches into a bounded queue
(backpressure — a full queue blocks or rejects) and a single worker thread
drains it through :meth:`IncrementalExpander.ingest
<repro.core.IncrementalExpander.ingest>`.  Each submission returns an
:class:`IngestTicket` whose :meth:`~IngestTicket.wait` yields that batch's
own :class:`~repro.core.IngestReport` (or re-raises its own failure), so
synchronous callers never observe another batch's outcome.

With a :class:`~repro.serving.IngestJournal` attached, every batch is
additionally written to the durable journal immediately before being
applied (write-ahead, same lock), which is what lets ``repro serve
--journal-dir`` rebuild the incremental-expansion state after a crash or
restart — see :mod:`repro.serving.journal`.
"""

from __future__ import annotations

import queue
import threading
import warnings
from collections import deque

from ..core.incremental import IncrementalExpander, IngestReport
from ..synthetic.clicklogs import ClickLog

__all__ = ["IngestTicket", "StreamingIngestor", "click_log_from_records",
           "click_log_to_records"]


def click_log_from_records(records: list,
                           provenance: dict | None = None) -> ClickLog:
    """Build a :class:`ClickLog` from wire-format records.

    Each record is ``[query, item]`` or ``[query, item, count]``; counts
    for repeated pairs accumulate.  ``provenance`` optionally maps item
    titles to their source concepts (analysis only).
    """
    log = ClickLog()
    for record in records:
        if len(record) == 2:
            (query, item), count = record, 1
        elif len(record) == 3:
            query, item, count = record
        else:
            raise ValueError(
                f"record must be [query, item(, count)]: {record!r}")
        count = int(count)
        if count < 1:
            raise ValueError(f"count must be >= 1: {record!r}")
        log.counts[(str(query), str(item))] += count
    if provenance:
        for item, concept in provenance.items():
            log.provenance.setdefault(str(item), concept)
    return log


def click_log_to_records(log: ClickLog) -> tuple[list, dict]:
    """Wire-format ``(records, provenance)`` for a :class:`ClickLog`.

    Inverse of :func:`click_log_from_records` (records are sorted so the
    encoding — and therefore the journal — is deterministic for a given
    batch).
    """
    records = [[query, item, int(count)]
               for (query, item), count in sorted(log.counts.items())]
    return records, dict(sorted(log.provenance.items()))


class IngestTicket:
    """Handle for one submitted batch: wait for *its* report or error."""

    __slots__ = ("batch", "_event", "report", "error")

    def __init__(self, batch: ClickLog):
        self.batch = batch
        self._event = threading.Event()
        self.report: IngestReport | None = None
        self.error: BaseException | None = None

    @property
    def done(self) -> bool:
        """True once the batch has been ingested (or failed)."""
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> IngestReport:
        """Block until this batch is processed; returns its report.

        Re-raises the batch's own ingestion error, or :class:`TimeoutError`
        if the batch is not processed within ``timeout`` seconds.
        """
        if not self._event.wait(timeout):
            raise TimeoutError("ingest batch not processed in time")
        if self.error is not None:
            raise self.error
        assert self.report is not None
        return self.report


class StreamingIngestor:
    """Queue click-log batches and expand the taxonomy from a worker.

    Parameters
    ----------
    expander:
        The incremental expander to drive (owns the evolving taxonomy).
    max_queue:
        Bound on unprocessed batches; submissions beyond it block (or are
        rejected with ``block=False``) — the backpressure signal.
    lock:
        Optional lock serialising expander access with other writers
        (the service layer shares one across ``/expand`` and ingestion).
    max_history:
        How many recent reports and errors to retain for introspection;
        counters keep exact totals regardless, so a long-running service
        stays bounded in memory.
    journal:
        Optional :class:`~repro.serving.IngestJournal`.  Each batch is
        journaled (write-ahead) under the expander lock immediately
        before it is applied, so journal order equals apply order and a
        replay from an empty expander reconstructs the same state.
    on_attach:
        Optional callback receiving each batch's attached ``(parent,
        child)`` edges, invoked under the expander lock immediately
        after the batch applies (so callback order equals apply order).
        The service layer uses this to push structural deltas into the
        compiled inference engine(s) before the batch is acknowledged.
        A raising callback is warned about, not treated as a batch
        failure — the taxonomy mutation has already committed.
    """

    def __init__(self, expander: IncrementalExpander, max_queue: int = 16,
                 lock: threading.Lock | None = None,
                 max_history: int = 256, journal=None, on_attach=None):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if max_history < 1:
            raise ValueError("max_history must be >= 1")
        self.expander = expander
        self.journal = journal
        self.on_attach = on_attach
        self._queue: queue.Queue[IngestTicket | None] = \
            queue.Queue(maxsize=max_queue)
        self._expander_lock = lock or threading.Lock()
        self._state = threading.Condition()
        self._reports: deque[IngestReport] = deque(maxlen=max_history)  # guarded-by: self._state
        self._errors: deque[BaseException] = deque(maxlen=max_history)  # guarded-by: self._state
        self._submitted = 0  # guarded-by: self._state
        self._processed = 0  # guarded-by: self._state
        self._failed = 0  # guarded-by: self._state
        self._worker: threading.Thread | None = None  # guarded-by: self._state
        self._stopping = False  # guarded-by: self._state

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "StreamingIngestor":
        """Launch the ingestion worker; idempotent."""
        with self._state:
            if self._worker is not None and self._worker.is_alive():
                return self
            self._stopping = False
            self._worker = threading.Thread(
                target=self._run, name="streaming-ingestor", daemon=True)
            self._worker.start()
        return self

    def stop(self, timeout: float | None = 10.0) -> None:
        """Finish queued batches, then stop the worker; idempotent."""
        with self._state:
            worker = self._worker
            if worker is None:
                return
            self._stopping = True
        self._queue.put(None)  # sentinel wakes the worker
        worker.join(timeout)
        with self._state:
            self._worker = None

    @property
    def running(self) -> bool:
        """True while the ingestion worker is alive."""
        worker = self._worker
        return worker is not None and worker.is_alive()

    def __enter__(self) -> "StreamingIngestor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # submission / draining
    # ------------------------------------------------------------------
    def submit(self, batch: ClickLog, block: bool = True,
               timeout: float | None = None) -> IngestTicket | None:
        """Queue one batch; returns its ticket, or None when rejected
        by backpressure.

        Without a running worker the batch is processed inline
        (synchronous degradation); the returned ticket is already
        resolved.
        """
        if not isinstance(batch, ClickLog):
            raise TypeError("submit expects a ClickLog")
        ticket = IngestTicket(batch)
        with self._state:
            if self._stopping:
                raise RuntimeError("ingestor is stopping")
            running = self.running
            self._submitted += 1
        if not running:
            self._ingest(ticket)
            return ticket
        try:
            self._queue.put(ticket, block=block, timeout=timeout)
        except queue.Full:
            with self._state:
                self._submitted -= 1
            return None
        return ticket

    def flush(self, timeout: float | None = 10.0) -> bool:
        """Wait until every submitted batch is processed."""
        with self._state:
            return self._state.wait_for(
                lambda: self._processed + self._failed >= self._submitted,
                timeout)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def reports(self) -> list[IngestReport]:
        """The ``max_history`` most recent reports, oldest first (copy)."""
        with self._state:
            return list(self._reports)

    @property
    def errors(self) -> list[BaseException]:
        """The ``max_history`` most recent errors, oldest first (copy)."""
        with self._state:
            return list(self._errors)

    @property
    def pending(self) -> int:
        """Submitted batches not yet processed."""
        with self._state:
            return self._submitted - self._processed - self._failed

    @property
    def processed(self) -> int:
        """Batches successfully ingested (exact total)."""
        with self._state:
            return self._processed

    @property
    def failed(self) -> int:
        """Batches whose ingestion raised (exact total)."""
        with self._state:
            return self._failed

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _ingest(self, ticket: IngestTicket) -> None:
        try:
            with self._expander_lock:
                if self.journal is not None:
                    records, provenance = click_log_to_records(ticket.batch)
                    self.journal.append("ingest", {
                        "records": records, "provenance": provenance})
                report = self.expander.ingest(ticket.batch)
                if self.on_attach is not None and report.attached_edges:
                    try:
                        self.on_attach(report.attached_edges)
                    except Exception as error:
                        warnings.warn(
                            f"on_attach callback failed for batch "
                            f"{report.batch_index}: {error!r}; the batch "
                            f"itself applied", stacklevel=2)
        except BaseException as error:
            ticket.error = error
            with self._state:
                self._errors.append(error)
                self._failed += 1
                self._state.notify_all()
        else:
            ticket.report = report
            with self._state:
                self._reports.append(report)
                self._processed += 1
                self._state.notify_all()
        finally:
            ticket._event.set()

    def _run(self) -> None:
        while True:
            ticket = self._queue.get()
            if ticket is None:  # stop sentinel: drain leftovers, then exit
                while True:
                    try:
                        ticket = self._queue.get_nowait()
                    except queue.Empty:
                        return
                    if ticket is not None:
                        self._ingest(ticket)
            else:
                self._ingest(ticket)
