"""Crash-safety tests for the append-only receipt WAL.

Three contracts carry the durability rewrite:

* **Log soundness** — every event appended comes back on replay, in
  order; *any* byte-truncation of the file (the kill -9 / power-cut
  signature) replays a clean prefix and never raises; a flipped byte
  anywhere before the tail — or a record that passes its checksum but
  is not the service's JSON — refuses to load (fail-closed).
* **O(1) autosave** — after the bootstrap snapshot, a dispatched window
  appends + fsyncs its own events only; the base snapshot is rewritten
  solely at compaction points (``wal_compact_records``) — never per
  window.
* **kill -9 recovery** — a service SIGKILLed mid-scan restarts with
  every committed receipt replayed (``spent + reserved <= cap`` holds
  exactly), the interrupted job FAILED with 0 ε charged, and the result
  cache re-armed from the log.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim.losses import LogisticLoss
from repro.service import JobStatus, TrainingService, WalCorruption, WriteAheadLog
from repro.service.server import ACCOUNTS_STATE, REGISTRY_STATE, WAL_STATE
from repro.service.wal import _frame, _header_frame
from tests.conftest import make_binary_data

M, D = 300, 8
EPS = 0.05
X, Y = make_binary_data(M, D, seed=21)


def make_service(workers: int = 1, cap: float = 10.0, **kwargs) -> TrainingService:
    service = TrainingService(scan_seed=5, workers=workers, **kwargs)
    service.register_table("t", X, Y)
    service.open_budget("alice", "t", cap)
    return service


def submit_n(service: TrainingService, n: int, base_seed: int = 400):
    return [
        service.submit("alice", "t", LogisticLoss(1e-3), epsilon=EPS,
                       passes=1, batch_size=25, seed=base_seed + j)
        for j in range(n)
    ]


SAMPLE_EVENTS = [
    {"event": "grant", "principal": "alice", "table": "t",
     "epsilon": 1.0, "delta": 0.0},
    {"event": "admit", "record": {"job": {"job_id": "job-00001"}}},
    {"event": "record", "record": {"job": {"job_id": "job-00001"},
                                   "status": "completed"}},
]


def sample_log_bytes() -> bytes:
    """The exact bytes WriteAheadLog produces for SAMPLE_EVENTS (framing
    helpers are deterministic, so no filesystem round-trip needed)."""
    return _header_frame() + b"".join(_frame(event) for event in SAMPLE_EVENTS)


class TestWalFraming:
    def test_append_sync_replay_roundtrip(self, tmp_path):
        path = tmp_path / "log.wal"
        wal = WriteAheadLog(path)
        for event in SAMPLE_EVENTS:
            wal.append(event)
        wal.sync()
        wal.close()
        assert WriteAheadLog.replay(path) == SAMPLE_EVENTS
        # Reopen-and-append continues the same log.
        wal2 = WriteAheadLog(path)
        wal2.append({"event": "grant", "principal": "bob", "table": "t",
                     "epsilon": 2.0, "delta": 0.0})
        wal2.sync()
        wal2.close()
        events = WriteAheadLog.replay(path)
        assert events[:3] == SAMPLE_EVENTS
        assert events[3]["principal"] == "bob"

    def test_missing_file_is_an_empty_log(self, tmp_path):
        assert WriteAheadLog.replay(tmp_path / "never-written.wal") == []

    def test_append_is_buffered_sync_makes_durable(self, tmp_path):
        path = tmp_path / "log.wal"
        wal = WriteAheadLog(path)
        wal.append(SAMPLE_EVENTS[0])
        assert not path.exists()  # no I/O before the first sync
        wal.sync()
        assert WriteAheadLog.replay(path) == SAMPLE_EVENTS[:1]
        wal.close()

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=4096))
    def test_any_truncation_replays_a_clean_prefix(self, cut):
        """For every possible crash point (byte offset) the torn log
        replays some prefix of the appended events — never an exception,
        never a phantom event."""
        data = sample_log_bytes()
        cut = min(cut, len(data))
        events = WriteAheadLog.replay_bytes(data[:cut])
        assert events == SAMPLE_EVENTS[: len(events)]
        # The full log replays everything, so prefixes converge to it.
        assert WriteAheadLog.replay_bytes(data) == SAMPLE_EVENTS

    def test_truncated_file_recovers_and_appends(self, tmp_path):
        path = tmp_path / "log.wal"
        wal = WriteAheadLog(path)
        for event in SAMPLE_EVENTS:
            wal.append(event)
        wal.sync()
        wal.close()
        data = path.read_bytes()
        path.write_bytes(data[:-5])  # tear the final record
        wal2 = WriteAheadLog(path)
        wal2.append(SAMPLE_EVENTS[0])
        wal2.sync()
        wal2.close()
        events = WriteAheadLog.replay(path)
        assert events == SAMPLE_EVENTS[:2] + SAMPLE_EVENTS[:1]

    def test_zero_filled_tail_is_torn_not_corrupt(self):
        """A filesystem that allocated blocks for an append that never
        landed zero-fills them — an all-zero tail is a crash signature
        (it even frames as a zero-length record whose CRC vacuously
        passes), not tampering."""
        boundary = len(
            _header_frame() + _frame(SAMPLE_EVENTS[0]) + _frame(SAMPLE_EVENTS[1])
        )
        torn = sample_log_bytes()[:boundary] + b"\x00" * 64
        assert WriteAheadLog.replay_bytes(torn) == SAMPLE_EVENTS[:2]

    def test_partial_record_before_zero_fill_still_fails_closed(self):
        """Real payload bytes followed by zeros is NOT the pure zero-fill
        signature — it stays on the conservative side of the line."""
        data = sample_log_bytes()
        with pytest.raises(WalCorruption):
            WriteAheadLog.replay_bytes(data[: len(data) - 10] + b"\x00" * 64)

    def test_midlog_bitflip_fails_closed(self):
        data = bytearray(sample_log_bytes())
        # Flip a payload byte of the FIRST appended event (well before
        # the tail): checksum mismatch with valid data following.
        offset = len(_header_frame()) + 12
        data[offset] ^= 0xFF
        with pytest.raises(WalCorruption, match="mid-log corruption"):
            WriteAheadLog.replay_bytes(bytes(data))

    def test_checksum_valid_garbage_fails_closed(self):
        """Tampering that recomputes the CRC still cannot smuggle a
        non-JSON record past replay."""
        import struct
        import zlib

        garbage = b"\x80\x81not json"
        frame = struct.pack("<II", len(garbage), zlib.crc32(garbage)) + garbage
        with pytest.raises(WalCorruption, match="does not decode"):
            WriteAheadLog.replay_bytes(sample_log_bytes() + frame)

    def test_non_object_record_fails_closed(self):
        import json
        import struct
        import zlib

        payload = json.dumps([1, 2, 3]).encode()
        frame = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        with pytest.raises(WalCorruption, match="not an event object"):
            WriteAheadLog.replay_bytes(sample_log_bytes() + frame)

    def test_foreign_file_refused(self, tmp_path):
        path = tmp_path / "bogus.wal"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(WalCorruption, match="not a repro-wal/v1"):
            WriteAheadLog.replay(path)

    def test_reset_carries_buffered_events(self, tmp_path):
        """Events appended after the compaction snapshot was cut must
        survive the log reset — a lost receipt is unrecoverable."""
        path = tmp_path / "log.wal"
        wal = WriteAheadLog(path)
        wal.append(SAMPLE_EVENTS[0])
        wal.sync()
        wal.append(SAMPLE_EVENTS[2])  # buffered, not yet synced
        wal.reset()
        wal.close()
        assert WriteAheadLog.replay(path) == [SAMPLE_EVENTS[2]]
        assert wal.resets == 1


class TestIncrementalAutosave:
    def test_steady_state_never_rewrites_the_snapshot(self, tmp_path):
        """Window 1 bootstraps (base snapshot + fresh log); every later
        window appends to the log only — the O(1) contract."""
        service = make_service(state_dir=tmp_path)
        submit_n(service, 2)
        service.drain()
        registry_path = tmp_path / REGISTRY_STATE
        assert registry_path.exists()
        assert (tmp_path / WAL_STATE).exists()
        baseline = registry_path.stat().st_mtime_ns
        compactions = service.durability["compactions"]
        for round_index in range(3):
            submit_n(service, 2, base_seed=500 + 10 * round_index)
            service.drain()
        assert registry_path.stat().st_mtime_ns == baseline, (
            "a steady-state window rewrote the base snapshot"
        )
        assert service.durability["compactions"] == compactions
        assert service.durability["mode"] == "wal"
        assert service.durability["wal_syncs"] > 0

    def test_restart_replays_log_events_past_the_snapshot(self, tmp_path):
        """Jobs that completed after the bootstrap snapshot exist only in
        the log; the restart must still serve their models and charge
        their receipts."""
        service = make_service(state_dir=tmp_path, cap=10.0)
        first = submit_n(service, 2)
        service.drain()  # bootstrap: snapshot holds these two
        later = submit_n(service, 3, base_seed=600)
        service.drain()  # log-only events
        restarted = make_service(state_dir=tmp_path)
        assert restarted.load_state() == 5
        for record in first + later:
            assert np.array_equal(restarted.model(record.job_id), record.model)
        statement = restarted.budgets()[0]
        assert statement.spent[0] == pytest.approx(5 * EPS)
        assert statement.reserved == (0.0, 0.0)

    def test_log_only_recovery_without_any_snapshot(self, tmp_path):
        """A service that dies before its first compaction may leave a
        log and nothing else — records, budgets, and cache all rebuild
        from events alone."""
        service = make_service(state_dir=tmp_path, cap=1.0)
        records = submit_n(service, 2)
        service.drain()
        (tmp_path / REGISTRY_STATE).unlink()
        (tmp_path / ACCOUNTS_STATE).unlink()
        restarted = make_service(state_dir=tmp_path, cap=1.0)
        assert restarted.load_state() == 2
        for record in records:
            assert np.array_equal(restarted.model(record.job_id), record.model)
        # Budgets came back through grant events + receipt replay.
        statement = restarted.budgets()[0]
        assert statement.spent[0] == pytest.approx(2 * EPS)
        # The cache re-armed from log payloads: resubmission is free.
        hit = restarted.submit("alice", "t", LogisticLoss(1e-3), epsilon=EPS,
                               passes=1, batch_size=25, seed=400)
        assert hit.dispatch == "cached"

    def test_compaction_folds_the_log_into_the_snapshot(self, tmp_path):
        service = make_service(state_dir=tmp_path, wal_compact_records=1)
        submit_n(service, 2)
        service.drain()
        submit_n(service, 2, base_seed=700)
        service.drain()
        assert service.durability["compactions"] >= 2
        # Post-compaction the log holds at most the events that raced
        # the final snapshot — replay is snapshot + small delta.
        events = WriteAheadLog.replay(tmp_path / WAL_STATE)
        assert len(events) <= 4
        restarted = make_service(state_dir=tmp_path)
        assert restarted.load_state() == 4
        statement = restarted.budgets()[0]
        assert statement.spent[0] == pytest.approx(4 * EPS)

    def test_terminal_log_event_overrides_inflight_snapshot_entry(self, tmp_path):
        """Snapshot says QUEUED, log says COMPLETED (the job finished
        after the snapshot was cut): the logged terminal record wins —
        the model is served and the receipt charged."""
        service = make_service(state_dir=tmp_path)
        record = submit_n(service, 1)[0]
        service.save_state()  # snapshot with the job still QUEUED
        service.drain()  # completes; the record event lands in the log
        restarted = make_service(state_dir=tmp_path)
        restarted.load_state()
        twin = restarted.result(record.job_id)
        assert twin.status is JobStatus.COMPLETED
        assert np.array_equal(twin.model, record.model)
        assert restarted.budgets()[0].spent[0] == pytest.approx(EPS)

    def test_tampered_log_refuses_to_load(self, tmp_path):
        service = make_service(state_dir=tmp_path)
        submit_n(service, 3)
        service.drain()
        wal_path = tmp_path / WAL_STATE
        data = bytearray(wal_path.read_bytes())
        data[len(_header_frame()) + 20] ^= 0x01  # one flipped bit, mid-log
        wal_path.write_bytes(bytes(data))
        restarted = make_service(state_dir=tmp_path)
        with pytest.raises(WalCorruption):
            restarted.load_state()

    def test_unknown_event_kind_refuses_to_load(self, tmp_path):
        service = make_service(state_dir=tmp_path)
        submit_n(service, 1)
        service.drain()
        wal = WriteAheadLog(tmp_path / WAL_STATE)
        wal.append({"event": "from-the-future", "payload": 1})
        wal.sync()
        wal.close()
        restarted = make_service(state_dir=tmp_path)
        with pytest.raises(WalCorruption, match="unknown kind"):
            restarted.load_state()

    def test_torn_service_log_tail_recovers(self, tmp_path):
        service = make_service(state_dir=tmp_path)
        records = submit_n(service, 2)
        service.drain()
        wal_path = tmp_path / WAL_STATE
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[:-7])  # kill -9 signature
        restarted = make_service(state_dir=tmp_path)
        assert restarted.load_state() >= 2  # snapshot still carries both
        for record in records:
            assert restarted.result(record.job_id).job_id == record.job_id

    def test_compaction_makes_the_snapshot_durable_before_the_log(
        self, tmp_path, monkeypatch
    ):
        """Power-cut ordering: every file ``save_state`` replaces is
        fsynced before its rename and its directory after it, and the
        log's rename waits for the registry's directory fsync — so the
        fresh log never reaches disk ahead of the snapshot that absorbed
        the old one."""
        service = make_service(state_dir=tmp_path)
        submit_n(service, 2)
        service.drain()
        calls = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            return fsync(fd)

        def recording_replace(src, dst, **kwargs):
            calls.append(("replace", os.path.basename(dst), os.stat(src).st_ino))
            return replace(src, dst, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", recording_fsync)
            patch.setattr(os, "replace", recording_replace)
            service.save_state()

        directory_fsync = ("fsync", os.stat(tmp_path).st_ino)
        renames = {call[1]: at for at, call in enumerate(calls) if call[0] == "replace"}
        assert {ACCOUNTS_STATE, REGISTRY_STATE, WAL_STATE} <= set(renames)
        durable = {}
        for name in (ACCOUNTS_STATE, REGISTRY_STATE, WAL_STATE):
            at = renames[name]
            assert ("fsync", calls[at][2]) in calls[:at], (
                f"{name} was renamed before its data was fsynced"
            )
            after = calls[at + 1:]
            next_rename = next(
                (i for i, call in enumerate(after) if call[0] == "replace"), len(after)
            )
            assert directory_fsync in after[:next_rename], (
                f"{name}'s rename was not made durable before the next one"
            )
            durable[name] = at + 1 + after.index(directory_fsync)
        assert renames[WAL_STATE] > durable[REGISTRY_STATE]

    def test_save_state_to_a_foreign_directory_keeps_the_log(self, tmp_path):
        """An explicit export snapshot must not reset the live log."""
        service = make_service(state_dir=tmp_path / "live")
        submit_n(service, 2)
        service.drain()
        resets = service.wal.resets
        service.save_state(tmp_path / "export")
        assert (tmp_path / "export" / REGISTRY_STATE).exists()
        assert service.wal.resets == resets


class TestCancel:
    def test_cancel_refunds_and_terminates(self):
        service = make_service()  # loop not running: stays QUEUED
        record = submit_n(service, 1)[0]
        statement = service.budgets()[0]
        assert statement.reserved[0] == pytest.approx(EPS)
        assert service.cancel(record.job_id) is True
        assert record.status is JobStatus.CANCELLED
        assert record.done  # waiters released immediately
        assert record.model is None
        assert record.receipt is None
        assert "cancelled" in record.error
        statement = service.budgets()[0]
        assert statement.reserved == (0.0, 0.0)
        assert statement.spent == (0, 0)
        service.drain()  # nothing left to run

    def test_cancel_is_refused_once_claimed(self):
        service = make_service()
        record = submit_n(service, 1)[0]
        window = service.scheduler.claim_window()
        assert [job.job_id for job in window] == [record.job_id]
        assert service.cancel(record.job_id) is False
        service.scheduler.dispatch_window(window)
        assert record.status is JobStatus.COMPLETED

    def test_cancel_terminal_and_unknown(self):
        service = make_service()
        record = submit_n(service, 1)[0]
        service.drain()
        assert service.cancel(record.job_id) is False  # already COMPLETED
        with pytest.raises(KeyError):
            service.cancel("job-nope")

    def test_cancelled_budget_is_immediately_reusable(self):
        service = make_service(cap=EPS)  # room for exactly one job
        first = submit_n(service, 1)[0]
        blocked = service.submit("alice", "t", LogisticLoss(1e-3), epsilon=EPS,
                                 passes=1, batch_size=25, seed=999)
        assert blocked.status is JobStatus.REJECTED  # cap fully reserved
        assert service.cancel(first.job_id)
        retry = service.submit("alice", "t", LogisticLoss(1e-3), epsilon=EPS,
                               passes=1, batch_size=25, seed=999)
        assert retry.status is JobStatus.QUEUED
        service.drain()
        assert retry.status is JobStatus.COMPLETED

    def test_cancelled_status_survives_a_restart(self, tmp_path):
        service = make_service(state_dir=tmp_path)
        keep = submit_n(service, 1)[0]
        victim = submit_n(service, 1, base_seed=800)[0]
        assert service.cancel(victim.job_id)
        service.drain()
        restarted = make_service(state_dir=tmp_path)
        restarted.load_state()
        assert restarted.result(victim.job_id).status is JobStatus.CANCELLED
        assert restarted.result(keep.job_id).status is JobStatus.COMPLETED
        assert restarted.budgets()[0].spent[0] == pytest.approx(EPS)


CHILD_SCRIPT = textwrap.dedent(
    """
    import pathlib
    import sys
    import time

    import numpy as np

    from repro.optim.losses import LogisticLoss
    from repro.rdbms.storage import MaterializedHeapFile
    from repro.service import TrainingService
    from tests.conftest import make_binary_data

    state_dir, signal_path = sys.argv[1], pathlib.Path(sys.argv[2])
    X, Y = make_binary_data(300, 8, seed=21)

    class StallingHeap(MaterializedHeapFile):
        def content_fingerprint(self):
            # Keeps registration-time fingerprinting off read_page —
            # only the dispatch scan must hit the stall below.
            return "stalling-heap"

        def read_page(self, page_id):
            signal_path.touch()
            time.sleep(120.0)  # parent SIGKILLs long before this returns
            return super().read_page(page_id)

    service = TrainingService(scan_seed=5, workers=1, state_dir=state_dir)
    service.register_table("t", X, Y)
    service.register_table("slow", heap=StallingHeap(X, Y))
    service.open_budget("alice", "t", 10.0)
    service.open_budget("alice", "slow", 10.0)
    for j in range(3):
        service.submit("alice", "t", LogisticLoss(1e-3), epsilon=0.05,
                       passes=1, batch_size=25, seed=400 + j)
    service.submit("alice", "slow", LogisticLoss(1e-3), epsilon=0.05,
                   passes=1, batch_size=25, seed=500)
    service.start()
    time.sleep(300.0)  # killed mid-scan; never reached
    """
)


class TestKillNineRecovery:
    def test_sigkill_midscan_recovers_committed_receipts(self, tmp_path):
        """The real thing: a SIGKILLed server restarts with committed
        receipts replayed, the interrupted job FAILED at 0 ε, budgets
        exact, and the cache re-armed."""
        state_dir = tmp_path / "state"
        signal_path = tmp_path / "scan-started"
        script = tmp_path / "child.py"
        script.write_text(CHILD_SCRIPT)
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
        )
        child = subprocess.Popen(
            [sys.executable, str(script), str(state_dir), str(signal_path)],
            env=env, cwd=root,
        )
        try:
            deadline = time.monotonic() + 120.0
            while not signal_path.exists():
                assert child.poll() is None, "child died before the slow scan"
                assert time.monotonic() < deadline, "slow scan never started"
                time.sleep(0.02)
            # Window 1 (the three fast jobs) is durable; window 2 is
            # mid-read. Pull the trigger.
            child.send_signal(signal.SIGKILL)
        finally:
            child.wait(timeout=30.0)

        restarted = make_service(state_dir=state_dir)
        loaded = restarted.load_state()
        assert loaded == 4
        fast = [r for r in restarted.jobs(table="t")]
        assert len(fast) == 3
        for record in fast:
            assert record.status is JobStatus.COMPLETED
            assert record.model is not None
            assert record.receipt is not None
        (slow,) = restarted.jobs(table="slow")
        assert slow.status is JobStatus.FAILED
        assert "interrupted" in slow.error
        assert slow.receipt is None
        # Budgets: exactly the three committed receipts, nothing held.
        for statement in restarted.budgets():
            assert statement.spent[0] + statement.reserved[0] <= statement.cap.epsilon
            assert statement.reserved == (0.0, 0.0)
        t_statement = [s for s in restarted.budgets() if s.table == "t"][0]
        assert t_statement.spent[0] == pytest.approx(3 * EPS)
        slow_statement = [s for s in restarted.budgets() if s.table == "slow"][0]
        assert slow_statement.spent == (0, 0)
        # The cache re-armed: resubmitting a committed job is free.
        hit = restarted.submit("alice", "t", LogisticLoss(1e-3), epsilon=EPS,
                               passes=1, batch_size=25, seed=400)
        assert hit.dispatch == "cached"
        assert np.array_equal(
            hit.model, [r for r in fast if r.job.seed == 400][0].model
        )
