"""The append-only receipt log — crash-safe durability in O(1) per window.

PR 4's durability rewrote the *entire* registry JSON after every
dispatched window: O(history) work per window on a long-lived server,
and a crash mid-rewrite could tear the only copy of the state. This
module replaces that with the classic write-ahead discipline:

* every service event (job admitted, receipt committed, refund/failure,
  budget grant) is **appended** as one checksummed, length-prefixed JSON
  record — the autosave hook merely flushes and fsyncs the tail, so its
  cost is O(events this window), never O(history);
* recovery is *snapshot + replay*: a periodic **compaction** folds the
  log into the base snapshot (``registry.json`` + ``accounts.json``,
  both written by :func:`write_durably`) and starts a fresh log, so
  replay cost is O(delta since last compaction);
* a **torn final record** — the half-written tail a kill -9 or power cut
  leaves behind — is detected by its checksum/length and truncated away:
  recovery keeps the clean prefix. Anything wrong *before* the tail
  (a checksum mismatch with valid data following, a record that passes
  its checksum but decodes to garbage) is not a torn write but
  corruption or tampering, and replay **fails closed** with
  :class:`WalCorruption` rather than load a log it cannot vouch for.

Record format (``repro-wal/v1``)
--------------------------------

Each record is ``<length:u32 little-endian> <crc32:u32 little-endian>
<payload>`` where ``payload`` is compact UTF-8 JSON and the CRC covers
the payload bytes. The first record of every log is a header event
``{"event": "header", "format": "repro-wal/v1"}`` — replay refuses
files that do not open with it, so a foreign file can never be
mistaken for a log. Event *schemas* (what "admit"/"record"/"grant"
mean) belong to the service layer (:mod:`repro.service.server`); this
module only guarantees that what comes back out is byte-for-byte what
went in, or a clean prefix of it, or an exception.

Write path
----------

:meth:`WriteAheadLog.append` only buffers (in memory, under the log's
lock — submission-path cheap); :meth:`WriteAheadLog.sync` drains the
buffer to disk and fsyncs, which the service calls once per dispatched
window. :meth:`WriteAheadLog.reset` starts a fresh log *after* a
compaction snapshot: it writes the header plus any still-buffered
events through :func:`write_durably`, so events that raced the snapshot
are re-logged rather than dropped (replay is idempotent — see
``load_state``) and a crash between snapshot and reset leaves at worst a
stale-but-replayable tail. The snapshot files go through the same
helper, which fsyncs the directory after each rename: the snapshot's
rename is on disk before the log's rename is issued, so a power cut can
never keep the fresh log and lose the snapshot that absorbed the old
one.
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
import threading
import time
import zlib
from typing import Callable, List, Optional, Tuple, Union

#: Format tag carried by every log's header record.
WAL_FORMAT = "repro-wal/v1"

_FRAME = struct.Struct("<II")

#: Sanity bound on one record's payload: a length field beyond this is
#: garbage framing, not a real record (the largest real payload is one
#: job record — weights included — which is orders of magnitude smaller).
_MAX_RECORD_BYTES = 1 << 30


def write_durably(path: Union[str, pathlib.Path], data: bytes) -> None:
    """Replace ``path`` by ``data`` so that a crash or a power cut leaves
    the old file or the new one, never neither: write a sibling ``.tmp``
    file, fsync it, rename it over ``path``, then fsync the directory so
    the rename itself is on disk before the caller goes on."""
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


class WalCorruption(ValueError):
    """Mid-log corruption or tampering: the log cannot be trusted and
    replay refuses to load it (fail-closed). Torn *final* records — the
    signature of a crash mid-append — never raise this; they are
    truncated away and the clean prefix recovers."""


def _frame(event: dict) -> bytes:
    payload = json.dumps(event, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _header_frame() -> bytes:
    return _frame({"event": "header", "format": WAL_FORMAT})


def _check_torn(data: bytes, offset: int, *, final: bool, source: str, reason: str) -> None:
    """Classify a failed record: tolerate a torn tail, raise on corruption.

    ``final`` — the failing record reaches end-of-file, so it is
    indistinguishable from a half-written append (tolerate). A failure
    with valid-looking data *after* it is corruption — unless every
    remaining byte is zero, the signature of a filesystem zero-filling
    blocks it allocated for a write that never completed.
    """
    if final or not any(data[offset:]):
        return
    raise WalCorruption(
        f"{source}: {reason} at byte {offset} with data following — this is "
        "mid-log corruption, not a torn tail; refusing to load"
    )


def _scan(data: bytes, source: str) -> Tuple[List[dict], int]:
    """Walk the framed records in ``data``.

    Returns ``(events, valid_length)``: the decoded events (header
    excluded) and the byte offset of the end of the last good record —
    what a writer reopening the log truncates to. Raises
    :class:`WalCorruption` per the fail-closed rules above.
    """
    events: List[dict] = []
    offset = 0
    size = len(data)
    header = _header_frame()
    common = min(size, len(header))
    if data[:common] != header[:common] and any(data[:common]):
        # Every log starts with the byte-identical header frame; a file
        # that diverges inside those bytes was never a log (a torn
        # creation leaves a strict prefix of them — or zero-fill, both
        # recovered as an empty log below).
        raise WalCorruption(
            f"{source} is not a {WAL_FORMAT} write-ahead log "
            "(its first bytes are not the header record)"
        )
    while offset < size:
        if size - offset < _FRAME.size:
            _check_torn(data, offset, final=True, source=source,
                        reason="truncated record header")
            break
        length, crc = _FRAME.unpack_from(data, offset)
        end = offset + _FRAME.size + length
        if length > _MAX_RECORD_BYTES or end > size:
            _check_torn(data, offset, final=True, source=source,
                        reason="record extends past end of file")
            break
        payload = data[offset + _FRAME.size:end]
        if zlib.crc32(payload) != crc:
            _check_torn(data, offset, final=(end == size), source=source,
                        reason="record checksum mismatch")
            break
        try:
            event = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            if not any(data[offset:]):
                # An all-zero tail frames as a zero-length record whose
                # CRC (zlib.crc32(b"") == 0) vacuously matches — that is
                # a filesystem zero-filling blocks for a crashed append,
                # not a written record. Torn tail; keep the prefix.
                break
            # A checksum-valid record that is not JSON was *written* that
            # way — writer bug or tampering that recomputed the CRC.
            # Truncation cannot produce this; always fail closed.
            raise WalCorruption(
                f"{source}: record at byte {offset} passes its checksum but "
                f"does not decode ({error}); refusing to load"
            ) from error
        if not isinstance(event, dict):
            raise WalCorruption(
                f"{source}: record at byte {offset} decodes to "
                f"{type(event).__name__}, not an event object; refusing to load"
            )
        if offset == 0:
            if event.get("event") != "header" or event.get("format") != WAL_FORMAT:
                raise WalCorruption(
                    f"{source} is not a {WAL_FORMAT} write-ahead log "
                    f"(first record: {event!r})"
                )
        else:
            events.append(event)
        offset = end
    return events, offset


class WriteAheadLog:
    """One append-only event log file, safe for concurrent appenders.

    ``append`` is in-memory (the admission/release paths call it);
    ``sync`` makes the buffered events durable; ``reset`` starts a fresh
    log after a compaction snapshot. All three are serialized by an
    internal lock, so worker threads and the autosave hook compose
    without a protocol.
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)
        self._lock = threading.Lock()
        self._pending: List[bytes] = []
        self._file: Optional[object] = None
        #: Records in the current log generation (file + buffer) — the
        #: service's compaction trigger reads this.
        self.records_since_reset = 0
        self.appends = 0
        self.syncs = 0
        self.resets = 0
        #: Telemetry hook: called as ``observer(kind, seconds)`` with
        #: ``kind`` "sync" (a :meth:`sync` drain+fsync) or "compaction"
        #: (a :meth:`reset`), *after* the log's lock is released. The
        #: service wires this to its WAL latency histograms; ``None``
        #: (the default) costs nothing.
        self.observer: Optional[Callable[[str, float], None]] = None

    # -- write path --------------------------------------------------------------

    def append(self, event: dict) -> None:
        """Buffer one event (no I/O; durable at the next :meth:`sync`)."""
        frame = _frame(event)
        with self._lock:
            self._pending.append(frame)
            self.appends += 1
            self.records_since_reset += 1

    def open(self) -> None:
        """Open the log for appending (creating it with a header record),
        truncating any torn tail a crashed writer left, then drain and
        fsync the buffer. Raises :class:`WalCorruption` if the existing
        log fails validation anywhere but its tail."""
        with self._lock:
            self._open_locked()
            self._drain_locked()

    def sync(self) -> None:
        """Make every buffered event durable: write, flush, fsync.
        O(events since the last sync) — never O(history)."""
        started = time.perf_counter()
        with self._lock:
            self._open_locked()
            self._drain_locked()
        self._observe("sync", started)

    def reset(self) -> None:
        """Start a fresh log generation (call *after* the compaction
        snapshot is on disk). Events still buffered — appended after the
        snapshot was cut — are carried into the new log, not dropped:
        replay is idempotent, a lost event is not recoverable."""
        started = time.perf_counter()
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
            write_durably(self.path, b"".join([_header_frame(), *self._pending]))
            self.records_since_reset = len(self._pending)
            self._pending = []
            self._file = open(self.path, "r+b")
            self._file.seek(0, os.SEEK_END)
            self.resets += 1
            self.syncs += 1
        self._observe("compaction", started)

    def _observe(self, kind: str, started: float) -> None:
        observer = self.observer
        if observer is not None:
            observer(kind, time.perf_counter() - started)

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                try:
                    self._file.close()
                finally:
                    self._file = None

    def _open_locked(self) -> None:
        if self._file is not None:
            return
        if self.path.exists():
            data = self.path.read_bytes()
            events, valid = _scan(data, str(self.path))
            handle = open(self.path, "r+b")
            handle.truncate(valid)
            handle.seek(valid)
            if valid == 0:
                # Empty (or fully-torn-header) file: start it properly.
                handle.write(_header_frame())
            self._file = handle
            self.records_since_reset = len(events) + len(self._pending)
        else:
            handle = open(self.path, "w+b")
            handle.write(_header_frame())
            self._file = handle
            self.records_since_reset = len(self._pending)

    def _drain_locked(self) -> None:
        for frame in self._pending:
            self._file.write(frame)
        self._pending = []
        self._file.flush()
        os.fsync(self._file.fileno())
        self.syncs += 1

    # -- read path ---------------------------------------------------------------

    @classmethod
    def replay(cls, path: Union[str, pathlib.Path]) -> List[dict]:
        """The events of the log at ``path``, in append order (header
        excluded; missing file is an empty log). Tolerates a torn final
        record; raises :class:`WalCorruption` on anything worse."""
        path = pathlib.Path(path)
        if not path.exists():
            return []
        return cls.replay_bytes(path.read_bytes(), source=str(path))

    @staticmethod
    def replay_bytes(data: bytes, source: str = "<bytes>") -> List[dict]:
        """:meth:`replay` over raw bytes (the property tests truncate and
        tamper these directly)."""
        events, _ = _scan(data, source)
        return events
