"""In-memory span recording around calls into each layer's public functions.

The benchmark traces the program from the outside: :func:`install` swaps
each traced function for a wrapper that records a span (name, start, end,
parent span, job id, thread) while a :class:`Tracer` is enabled, and the
returned undo callable puts every original back. Nothing inside the
package under test is edited.

Calls made tens of thousands of times per second (heap page reads, the
per-segment gradient kernels) are *folded*: instead of one span per
call, the tracer keeps one aggregate per (parent span, name) with the
call count and the summed duration. The parent's self time still
subtracts them exactly, and memory stays bounded by the number of
non-folded spans.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_clock = time.perf_counter


class Tracer:
    """Spans kept in memory while :attr:`enabled`; written out by :meth:`dump`."""

    def __init__(self) -> None:
        self.enabled = False
        #: Finished spans: (span id, parent id, name, start, end, job id, thread).
        self.spans: List[Tuple[int, Optional[int], str, float, float, Optional[str], int]] = []
        #: Folded leaf calls: (parent id, name) -> [calls, seconds].
        self.folded: Dict[Tuple[Optional[int], str], List[float]] = defaultdict(
            lambda: [0, 0.0]
        )
        #: Bytes the write-ahead log and its snapshots wrote while enabled.
        self.wal_bytes = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fold_lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, function: Callable, args, kwargs, job_of=None):
        """Run ``function`` inside a span named ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = _clock()
        try:
            result = function(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
        job = job_of(args, kwargs, result) if job_of is not None else None
        self.spans.append(
            (span_id, parent, name, start, end, job, threading.get_ident())
        )
        return result

    def fold(self, name: str, function: Callable, args, kwargs):
        """Run ``function`` and charge its duration to the folded aggregate."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        start = _clock()
        try:
            return function(*args, **kwargs)
        finally:
            elapsed = _clock() - start
            with self._fold_lock:
                entry = self.folded[(parent, name)]
                entry[0] += 1
                entry[1] += elapsed

    def steps(self, name: str, iterator: Iterator) -> Iterator:
        """Wrap a generator so that each ``next()`` is one span."""
        while True:
            if not self.enabled:
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            else:
                sentinel = []
                item = self.call(name, next, (iterator, sentinel), {})
                if item is sentinel:
                    return
            yield item

    # -- analysis ---------------------------------------------------------------

    def by_name(self) -> Dict[str, dict]:
        """Per span name: calls, inclusive seconds, and self seconds.

        Self time is a span's duration minus the time its child spans
        (full and folded) cover; children run on the span's own thread
        and nest inside it, so they never overlap each other.
        """
        child_seconds: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _, _ in self.spans:
            if parent is not None:
                child_seconds[parent] += end - start
        for (parent, _), (_, seconds) in self.folded.items():
            if parent is not None:
                child_seconds[parent] += seconds
        table: Dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
        )
        for span_id, _, name, start, end, _, _ in self.spans:
            row = table[name]
            row["calls"] += 1
            row["seconds"] += end - start
            row["self_seconds"] += end - start - child_seconds.get(span_id, 0.0)
        for (_, name), (calls, seconds) in self.folded.items():
            row = table[name]
            row["calls"] += int(calls)
            row["seconds"] += seconds
            row["self_seconds"] += seconds
        return dict(table)

    def dump(self, path) -> None:
        """Write every span (and each folded aggregate) as one JSON line."""
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, job, thread in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "job": job,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )
            for (parent, name), (calls, seconds) in self.folded.items():
                handle.write(
                    json.dumps(
                        {
                            "parent": parent,
                            "name": name,
                            "calls": int(calls),
                            "seconds": seconds,
                        }
                    )
                    + "\n"
                )


def _job_arg(index: int, attribute: Optional[str] = None):
    """A ``job_of`` extractor reading positional argument ``index``."""

    def job_of(args, kwargs, result):
        value = args[index] if len(args) > index else None
        if attribute is not None and value is not None:
            value = getattr(value, attribute, None)
        return value if isinstance(value, str) else None

    return job_of


def _job_result(args, kwargs, result):
    return getattr(result, "job_id", None)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced layer entry point; returns the undo callable.

    Span names are ``<layer>.<operation>``; the metrics in ``run.py``
    are computed from them.
    """
    from repro.api.client import ServiceClient
    from repro.core import mechanisms
    from repro.optim.losses import Loss, MarginLoss
    from repro.rdbms.bismarck import BismarckSession
    from repro.rdbms.executor import ScanCursor, ShuffleOnce
    from repro.rdbms.storage import MaterializedHeapFile, SQLiteHeapFile
    from repro.rdbms.uda import SGDUDA, ElevatorMultiSGDUDA, MultiSGDUDA
    from repro.service import scheduler as scheduler_module
    from repro.service.ledger import PrivacyBudgetLedger
    from repro.service.registry import ModelRegistry
    from repro.service.scheduler import SharedScanScheduler
    from repro.service.server import TrainingService
    from repro.service.wal import WriteAheadLog

    undo: List[Callable[[], None]] = []

    def patch(owner, attribute: str, make_wrapper) -> None:
        original = owner.__dict__[attribute]
        setattr(owner, attribute, make_wrapper(original))
        undo.append(lambda: setattr(owner, attribute, original))

    def span(owner, attribute: str, name: str, job_of=None) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                return tracer.call(name, original, args, kwargs, job_of)

            return wrapper

        patch(owner, attribute, make)

    def fold(owner, attribute: str, name: str) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                return tracer.fold(name, original, args, kwargs)

            return wrapper

        patch(owner, attribute, make)

    def step_generator(owner, attribute: str, name: str) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                return tracer.steps(name, original(*args, **kwargs))

            return wrapper

        patch(owner, attribute, make)

    # api: the client verbs (round trips over the loopback socket).
    span(ServiceClient, "submit", "api.submit", _job_result)
    span(ServiceClient, "model", "api.fetch", _job_arg(1))
    # service: the facade verb, admission, dispatch, ledger, durability.
    span(TrainingService, "submit", "service.submit", _job_result)
    span(SharedScanScheduler, "submit", "scheduler.admit", _job_arg(1, "job_id"))
    span(SharedScanScheduler, "dispatch_window", "scheduler.dispatch")
    span(PrivacyBudgetLedger, "reserve", "ledger.reserve")
    span(PrivacyBudgetLedger, "commit", "ledger.commit", _job_arg(1, "job_id"))
    # Durability: besides the spans, count the bytes each call leaves on
    # disk (file growth for a log sync, the whole file for a fresh log
    # generation or a snapshot). Calls are serialized while tracing so
    # two workers' syncs cannot count each other's growth.
    write_lock = threading.Lock()

    def size_of(path) -> int:
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    def sized(owner, attribute: str, name: str, target, grows: bool) -> None:
        def make(original):
            def wrapper(self, *args):
                if not tracer.enabled:
                    return original(self, *args)
                with write_lock:
                    path = target(self, args)
                    before = size_of(path) if grows else 0
                    result = tracer.call(name, original, (self,) + args, {})
                    tracer.wal_bytes += size_of(path) - before
                return result

            return wrapper

        patch(owner, attribute, make)

    sized(WriteAheadLog, "sync", "wal.sync", lambda log, args: log.path, grows=True)
    sized(WriteAheadLog, "reset", "wal.compact", lambda log, args: log.path, grows=False)
    sized(ModelRegistry, "snapshot", "wal.compact", lambda registry, args: args[0],
          grows=False)
    # rdbms: the epoch controller, the gather, the heap reads, the folds.
    span(BismarckSession, "run_sgd", "session.scan")
    span(BismarckSession, "run_sgd_multi", "session.scan")
    step_generator(ShuffleOnce, "scan_chunks", "executor.gather")
    span(ScanCursor, "next_chunk", "executor.gather")
    fold(MaterializedHeapFile, "read_page", "heap.read")
    fold(SQLiteHeapFile, "read_page", "heap.read")
    span(SGDUDA, "transition_batch", "uda.fold")
    span(MultiSGDUDA, "transition_batch", "uda.fold")
    span(ElevatorMultiSGDUDA, "fold_chunk", "uda.fold")
    # optim: the per-segment gradient kernels.
    for owner in (Loss, MarginLoss):
        fold(owner, "batch_gradient", "optim.gradient")
        fold(owner, "batch_gradient_multi", "optim.gradient")
    # core: the bolt-on epilogue (sensitivity bound + one noise draw).
    span(scheduler_module, "sensitivity_for_schedule", "core.epilogue")
    for mechanism in (mechanisms.SphericalLaplaceMechanism, mechanisms.GaussianMechanism):
        span(mechanism, "sample", "core.epilogue")

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall
