"""Per-job lifecycle traces: monotonic-clock spans from admit to release.

A :class:`JobTrace` is a gapless sequence of named :class:`Span`\\ s
recording where a training job spent its time inside the service:

========== =====================================================================
``admit``   budget reserve + admission checks, inside the scheduler's
            admission lock
``queued``  waiting in the priority queue for a worker to claim the table
``claim``   between a worker claiming the window and the scan starting
            (group formation, UDA preparation)
``scan``    the shared scan itself; carries ``pages``/``retries`` and,
            for elevator rides, ``boarding_offset``/``epochs_ridden``
``epilogue`` sensitivity derivation + noise sampling after the scan
``commit``  ledger commit + receipt/record publication
``wal_sync`` trailing span: waiting for the window's durability sync
            (appended live after the record is journalled, so it is the
            one span ``payload(durable=True)`` leaves out)
========== =====================================================================

Gaplessness is by construction, not by discipline: :meth:`JobTrace.enter`
closes whatever span is open *at the new span's start instant*, so two
adjacent spans always share a boundary timestamp and a complete trace
has no holes and no negative durations. Attributes passed to ``enter``/
``close`` attach to the span being **closed** — the caller knows a
scan's page count only once the scan is over.

The clock is ``time.perf_counter()``: monotonic, so durations are
trustworthy, but *not* wall time and not comparable across processes.
Payloads round-trip bitwise through JSON (floats serialize via their
shortest ``repr``, which ``json`` reads back to the identical float64).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Span", "JobTrace", "SPAN_ORDER", "LIVE_ONLY_SPAN"]

#: Canonical span taxonomy in lifecycle order (documentation + test aid;
#: a trace may legitimately omit the tail — e.g. a rejected job stops at
#: ``admit`` — but never reorder).
SPAN_ORDER = (
    "admit", "queued", "claim", "scan", "epilogue", "commit", "wal_sync",
)

#: The trailing span the dispatch loop appends after a window's log
#: sync: part of the live trace, never of a record's durable payload.
LIVE_ONLY_SPAN = "wal_sync"

_clock = time.perf_counter


@dataclass
class Span:
    """One closed phase of a job's lifecycle. ``start``/``end`` are
    ``perf_counter`` instants; ``attrs`` are JSON-native scalars."""

    name: str
    start: float
    end: float
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def payload(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Span":
        return cls(
            name=str(payload["name"]),
            start=float(payload["start"]),
            end=float(payload["end"]),
            attrs=dict(payload.get("attrs", {})),
        )


class JobTrace:
    """A thread-safe, gapless span list for one job.

    At most one span is open at a time. Recording is O(1) per call and
    happens at phase boundaries only — never inside the scan loop.
    """

    __slots__ = ("_lock", "_spans", "_open_name", "_open_start")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._open_name: Optional[str] = None
        self._open_start: float = 0.0

    # -- recording ---------------------------------------------------------------

    def enter(self, name: str, **attrs: object) -> Optional[Span]:
        """Open span ``name`` now; close any currently-open span at the
        same instant (``attrs`` attach to the span being closed).
        Returns the closed span, if there was one."""
        now = _clock()
        with self._lock:
            closed = self._close_locked(now, attrs)
            self._open_name = name
            self._open_start = now
            return closed

    def close(self, **attrs: object) -> Optional[Span]:
        """Close the open span (idempotent: a no-op when nothing is
        open). Ends the trace until the next ``enter``/``append``."""
        with self._lock:
            return self._close_locked(_clock(), attrs)

    def append(self, name: str, **attrs: object) -> Span:
        """Add an already-finished span ending now and starting where the
        previous span ended (keeping the trace gapless). Used for the
        trailing ``wal_sync`` span, recorded after the record has been
        journalled."""
        now = _clock()
        with self._lock:
            if self._open_name is not None:
                self._close_locked(now, {})
            start = self._spans[-1].end if self._spans else now
            span = Span(name=name, start=start, end=now, attrs=dict(attrs))
            self._spans.append(span)
            return span

    def _close_locked(self, now: float, attrs: Dict[str, object]) -> Optional[Span]:
        if self._open_name is None:
            return None
        span = Span(
            name=self._open_name,
            start=self._open_start,
            end=now,
            attrs=dict(attrs),
        )
        self._spans.append(span)
        self._open_name = None
        return span

    # -- inspection --------------------------------------------------------------

    @property
    def current(self) -> Optional[str]:
        """Name of the open span, or None when the trace is closed."""
        with self._lock:
            return self._open_name

    def spans(self) -> List[Span]:
        """Snapshot of the closed spans, in order."""
        with self._lock:
            return list(self._spans)

    def span(self, name: str) -> Optional[Span]:
        """The last closed span with this name, if any."""
        with self._lock:
            for candidate in reversed(self._spans):
                if candidate.name == name:
                    return candidate
        return None

    def names(self) -> List[str]:
        with self._lock:
            return [span.name for span in self._spans]

    @property
    def duration(self) -> float:
        """Closed-span extent: last end minus first start (0.0 if empty)."""
        with self._lock:
            if not self._spans:
                return 0.0
            return self._spans[-1].end - self._spans[0].start

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- serialization -----------------------------------------------------------

    def payload(self, durable: bool = False) -> dict:
        """JSON-native dump of the closed spans (an open span, if any, is
        deliberately not serialized — it has no end yet). ``durable``
        leaves out the live-only ``wal_sync`` span: what a job record's
        payload carries, so its JSON does not depend on when it was
        written."""
        with self._lock:
            return {
                "spans": [
                    span.payload()
                    for span in self._spans
                    if not (durable and span.name == LIVE_ONLY_SPAN)
                ]
            }

    @classmethod
    def from_payload(cls, payload: dict) -> "JobTrace":
        trace = cls()
        trace._spans = [
            Span.from_payload(entry) for entry in payload.get("spans", ())
        ]
        return trace
