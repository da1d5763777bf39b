"""The dispatch loop: background workers that keep the engine saturated.

PR 3's ``TrainingService.drain()`` trained every queued job on the
caller's thread — correct, but a server for "heavy traffic from millions
of users" cannot make tenant number 1000 wait inside ``submit()`` while
tenant number 1's scan finishes. :class:`DispatchLoop` owns one or more
worker threads that pull batching windows off the scheduler's queue
(:meth:`SharedScanScheduler.claim_window` — quick, admission-lock only)
and dispatch them (:meth:`SharedScanScheduler.dispatch_window`), so:

* ``submit()`` returns a live :class:`~repro.service.registry.JobRecord`
  immediately — tenants block on ``record.wait()``, never on a scan;
* jobs that arrive while a flight is running pile up in the queue and
  share the *next* window's flight (the loop batches exactly like the
  synchronous drain did, it just does so continuously) — or, with the
  scheduler in elevator mode, board the *running* flight: submission
  routes them onto it and the driving worker admits them at the next
  chunk boundary, so boarders ride instead of polling;
* flights acquire their *table's* engine domain, not a global lock: two
  workers fly two scans on two distinct tables concurrently (windows
  are single-table by construction — ``claim_window`` picks a table
  whose domain is free), while flights on the same table serialize;
  worker concurrency additionally overlaps admission, parameter
  resolution, the bolt-on noise epilogue, and ledger commits with any
  running scan.

Every window that finishes fires the optional ``autosave`` hook — the
training service points it at its state snapshot, which is what makes a
long-lived server restartable (:meth:`TrainingService.save_state` /
``load_state``).

By the bitwise-determinism contract (scheduler module docstring), none
of this concurrency can change any job's released weights — the
interleaving tests lock worker dispatch to the synchronous reference at
``atol=0``.
"""

from __future__ import annotations

import contextlib
import threading
from collections import deque
from typing import Callable, Deque, Iterator, List, Optional

from repro.obs import metrics as obs_metrics
from repro.obs.trace import LIVE_ONLY_SPAN
from repro.service.registry import JobRecord
from repro.service.scheduler import SharedScanScheduler
from repro.utils.validation import check_positive_int

#: How long an idle worker sleeps between queue polls when nobody wakes
#: it explicitly (direct scheduler.submit calls don't notify the loop).
_IDLE_POLL_SECONDS = 0.02

#: Most recent dispatch errors kept in memory. A long-lived server's
#: error *log* must be bounded (the old append-only list grew forever);
#: the total count lives in the metrics registry instead.
_DISPATCH_ERROR_WINDOW = 256


class DispatchLoop:
    """Background worker threads draining a :class:`SharedScanScheduler`.

    Parameters
    ----------
    scheduler:
        The scheduler whose queue the workers pull from.
    workers:
        Worker thread count. Up to min(workers, distinct tables with
        queued work) scans run concurrently (per-table engine domains);
        workers beyond that buy overlap of the non-scan work (noise
        epilogues, ledger commits, autosaves) with running scans — and
        guarantee the queue is re-checked the moment a scan ends.
    autosave:
        Optional zero-argument callable fired after each dispatched
        window (and once at :meth:`stop`); exceptions are captured on
        :attr:`autosave_errors` rather than killing the worker.
    crash_hook:
        Fault-injection surface for the crash-consistency tests: called
        with a crash-point name (``"before_dispatch"`` — between the
        claim and the scan; ``"after_dispatch"`` — between the scan and
        the autosave) on every worker iteration. A hook that raises
        simulates a crash between the scheduler's atomic steps — the
        worker must contain it (jobs FAILED + refunded, engine domain
        released, loop continues); a hook that SIGKILLs the process is
        the real thing.
    """

    def __init__(
        self,
        scheduler: SharedScanScheduler,
        *,
        workers: int = 1,
        autosave: Optional[Callable[[], None]] = None,
        crash_hook: Optional[Callable[[str], None]] = None,
        metrics: Optional[obs_metrics.MetricsRegistry] = None,
    ) -> None:
        self.scheduler = scheduler
        self.workers = check_positive_int(workers, "workers")
        self.autosave = autosave
        self.crash_hook = crash_hook
        self.metrics = metrics if metrics is not None else obs_metrics.disabled()
        self._dispatch_errors_total = self.metrics.counter(
            "repro_worker_dispatch_errors_total",
            "Dispatch-loop errors across the loop's life (the in-memory "
            "log keeps only the most recent window).",
        )
        self.autosave_errors: List[str] = []
        #: Last-resort log: dispatch_window fails jobs rather than raise,
        #: so anything landing here (cleanup itself failed) is a bug —
        #: but the worker survives it and the window's jobs are forced
        #: terminal, because a silently dead worker strands every queued
        #: tenant behind it. Bounded: only the most recent
        #: ``_DISPATCH_ERROR_WINDOW`` entries stay resident (a long-lived
        #: server must not grow an error log without bound); the
        #: lifetime total is ``repro_worker_dispatch_errors_total``.
        self.dispatch_errors: Deque[str] = deque(maxlen=_DISPATCH_ERROR_WINDOW)
        #: Terminal records in completion order, across the loop's life.
        self.finished: List[JobRecord] = []
        self.windows_dispatched = 0
        self._threads: List[threading.Thread] = []
        self._state = threading.Condition()
        self._stopping = False
        self._inflight = 0
        # Per thread: is a holding_wakes block open, and was wake() called
        # in it.
        self._held = threading.local()

    def _log_dispatch_error(self, message: str) -> None:
        self.dispatch_errors.append(message)
        self._dispatch_errors_total.inc()

    # -- lifecycle ---------------------------------------------------------------

    @property
    def running(self) -> bool:
        return bool(self._threads)

    @property
    def stopping(self) -> bool:
        """A stop() is in progress (workers draining their last window)."""
        return self._stopping

    def start(self) -> "DispatchLoop":
        """Launch the worker threads (idempotent while running)."""
        with self._state:
            if self._threads:
                return self
            self._stopping = False
            self._threads = [
                threading.Thread(
                    target=self._worker,
                    name=f"repro-dispatch-{index}",
                    daemon=True,
                )
                for index in range(self.workers)
            ]
        for thread in self._threads:
            thread.start()
        return self

    def stop(self) -> None:
        """Stop the workers (in-flight windows finish; queued jobs stay
        queued for the next start/drain)."""
        with self._state:
            if not self._threads:
                return
            self._stopping = True
            self._state.notify_all()
        for thread in self._threads:
            thread.join()
        self._threads = []
        self._run_autosave()

    def wake(self) -> None:
        """Nudge idle workers (the service calls this when a submit or a
        cancel queued a job, and at drain). Inside :meth:`holding_wakes`
        on the calling thread, the nudge is sent when that block ends."""
        if getattr(self._held, "holding", False):
            self._held.pending = True
        else:
            self._wake_workers()

    @contextlib.contextmanager
    def holding_wakes(self) -> Iterator[None]:
        """Hold this thread's :meth:`wake` calls until the block ends,
        then send one nudge if any were made.

        The HTTP handler holds them for one request, so its response is
        written before a woken worker's scan can take the interpreter
        lock. The nudge is sent even if the block raises: a job admitted
        by a request that then failed still gets a worker at once.
        """
        held = self._held
        held.holding, held.pending = True, False
        try:
            yield
        finally:
            held.holding = False
            if held.pending:
                self._wake_workers()

    def _wake_workers(self) -> None:
        with self._state:
            self._state.notify_all()

    # -- quiescence --------------------------------------------------------------

    def quiescent(self) -> bool:
        """No queued jobs and no window being dispatched right now."""
        with self._state:
            return self._inflight == 0 and not len(self.scheduler.queue)

    def wait_quiescent(self, timeout: Optional[float] = None) -> bool:
        """Block until the queue is empty and nothing is in flight.

        Requires the loop to be running (otherwise a non-empty queue
        would wait forever by construction). Returns ``False`` on
        timeout — and also if the loop is stopped out from under the
        wait while work remains (``stop()`` wakes waiters rather than
        stranding them behind a queue no worker will ever empty).
        """
        if not self.running and not self.quiescent():
            raise RuntimeError(
                "wait_quiescent on a stopped DispatchLoop with queued jobs "
                "would never return; start() the loop first"
            )
        with self._state:
            self._state.wait_for(
                lambda: self._stopping
                or (self._inflight == 0 and not len(self.scheduler.queue)),
                timeout=timeout,
            )
            return self._inflight == 0 and not len(self.scheduler.queue)

    # -- the worker body ---------------------------------------------------------

    def _worker(self) -> None:
        while True:
            window: List = []
            claim_errors: List[BaseException] = []

            def claimed() -> bool:
                # The claim IS the wait predicate: runs under self._state,
                # so the moment a notify arrives — a dispatch freeing its
                # engine domain, a submit's wake() — the woken worker
                # claims in the same lock hold instead of falling into a
                # timed back-off first. The side effect is safe because
                # the condition lock serializes predicate evaluations.
                if self._stopping:
                    return True
                try:
                    window.extend(self.scheduler.claim_window())
                except Exception as error:
                    # A claim that raises must not kill the thread: a
                    # silently dead worker strands every queued tenant
                    # behind it. Surface the error and keep polling.
                    claim_errors.append(error)
                    return True
                return bool(window)

            with self._state:
                while not claimed():
                    # Timed fallback only: work submitted straight through
                    # the scheduler (no wake()) is still picked up within
                    # a poll interval.
                    self._state.wait(timeout=_IDLE_POLL_SECONDS)
                if self._stopping and not window:
                    return
                self._inflight += 1
            if claim_errors:
                error = claim_errors[0]
                self._log_dispatch_error(
                    f"claim_window: {type(error).__name__}: {error}"
                )
                with self._state:
                    self._inflight -= 1
                    self._state.notify_all()
                    # Back off before re-polling: if the claim keeps
                    # raising, a hot spin would starve everything else.
                    self._state.wait(timeout=_IDLE_POLL_SECONDS)
                continue
            finished = []
            try:
                try:
                    self._crash_point("before_dispatch")
                    finished = self.scheduler.dispatch_window(window)
                except Exception as error:  # cleanup-of-cleanup failed
                    self._log_dispatch_error(f"{type(error).__name__}: {error}")
                    try:
                        finished = self.scheduler.fail_jobs(window, error)
                    except Exception as cleanup_error:
                        self._log_dispatch_error(
                            f"fail_jobs: {type(cleanup_error).__name__}: "
                            f"{cleanup_error}"
                        )
                else:
                    try:
                        # After a successful dispatch the window's records
                        # are final — a crash here must neither undo them
                        # nor kill the worker.
                        self._crash_point("after_dispatch")
                    except Exception as error:
                        self._log_dispatch_error(
                            f"crash_hook(after_dispatch): "
                            f"{type(error).__name__}: {error}"
                        )
            finally:
                # Containment invariant: whatever escaped above, the
                # claimed engine domain comes free (idempotent — the
                # dispatch's own finally usually already did this), the
                # in-flight count balances, and the loop continues. A
                # worker survives anything short of the process dying.
                try:
                    self.scheduler.release_window(window)
                except Exception as release_error:  # pragma: no cover
                    self._log_dispatch_error(
                        f"release_window: {type(release_error).__name__}: "
                        f"{release_error}"
                    )
                with self._state:
                    self.finished.extend(finished)
                    self.windows_dispatched += 1
                    self._inflight -= 1
                    self._state.notify_all()
            self._run_autosave()
            if self.autosave is not None:
                # The window's records are terminal (traces closed at
                # release); the time between then and the autosave's
                # sync is how long their durability took — a trailing,
                # live-only span that no record payload carries.
                for record in finished:
                    record.trace.append(LIVE_ONLY_SPAN)

    def _crash_point(self, name: str) -> None:
        """Fire the fault-injection hook (no-op without one)."""
        if self.crash_hook is not None:
            self.crash_hook(name)

    def _run_autosave(self) -> None:
        if self.autosave is None:
            return
        try:
            self.autosave()
        except Exception as error:  # never kill a worker over a snapshot
            self.autosave_errors.append(f"{type(error).__name__}: {error}")
