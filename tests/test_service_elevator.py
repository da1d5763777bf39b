"""Elevator scans: jobs board the running shared scan mid-flight.

The acceptance contract: a boarded job's released weights are
byte-for-byte equal (``assert_bytes_equal``: every bit, so -0.0 is not
+0.0) to the same job run solo with
``run_sgd(..., start_offset=<its boarding offset>)`` — boarding changes
*where on the permutation* a job's epochs start, never a single float of
what they compute from there. Around that contract this suite pins:

* the component property, under hypothesis, over
  (boarding offset x passes x losses x batch sizes x noisy/noiseless);
* cohorts: riders boarding together with one batch size, pass count and
  loss family fold as one stacked ``MultiSGDUDA`` — each still bitwise
  its solo run — while everything else rides alone;
* page accounting: one cursor stream feeds every rider, so a flight's
  pages are loops-of-the-cursor, not sum-of-riders, while each rider's
  own ``group_pages`` is exactly its solo cost;
* the service-level boarding path: a job submitted while a flight is
  mid-scan boards at a non-zero offset, carries provenance
  (``boarding_offset`` / ``epochs_ridden``), and only offset-0 releases
  are primed into the result cache;
* ledger caps holding under boarders racing live cursors on two tables.
"""

from __future__ import annotations

import threading
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accountant import would_overflow
from repro.core.bolton import BoltOnCandidate
from repro.optim.losses import HuberSVMLoss, LeastSquaresLoss, LogisticLoss
from repro.rdbms.bismarck import BismarckSession, NoisySGDUDA
from repro.rdbms.uda import SGDUDA, ElevatorMultiSGDUDA
from repro.service import JobStatus, TrainingService
from tests import conftest
from tests.conftest import GatedLoss, assert_bytes_equal, make_binary_data

# Component-level shape: small enough that hypothesis examples are cheap,
# with a ragged last chunk (60 = 16 + 16 + 16 + 12) so grid arithmetic
# around the wrap is exercised, not dodged.
M, D, CHUNK = 60, 5, 16
NUM_CHUNKS = -(-M // CHUNK)
X, Y = make_binary_data(M, D, seed=31)

# Service-level shape (matches the async suite's).
MS, DS = 300, 8
XS, YS = make_binary_data(MS, DS, seed=21)
EPS = 0.05
SCAN_SEED = 5
SERVICE_CHUNK = 64

#: The acceptance reference: ``solo_release(record, features, labels)``.
solo_release = partial(
    conftest.solo_release, scan_seed=SCAN_SEED, chunk_size=SERVICE_CHUNK
)


def fresh_scan(session: BismarckSession):
    session.load_table("t", X, Y)
    return session.shared_scan("t", random_state=np.random.SeedSequence([7]))


def step_noise(step_index: int, dimension: int) -> np.ndarray:
    """A pure function of (step, dim): identical on both sides of every
    equivalence check, so noisy rides must line their step counters up
    exactly with the solo run's to match bitwise."""
    return np.random.default_rng([4242, step_index, dimension]).standard_normal(
        dimension
    )


def make_uda(loss, passes: int, batch_size: int, noisy: bool):
    schedule, projection, _ = BoltOnCandidate(
        loss=loss, passes=passes, batch_size=batch_size
    ).resolve(M)
    if noisy:
        return NoisySGDUDA(loss, schedule, step_noise, batch_size, projection)
    return SGDUDA(loss, schedule, batch_size, projection)


class TestBoardingEquivalence:
    @settings(max_examples=24, deadline=None)
    @given(
        board_chunk=st.integers(0, NUM_CHUNKS - 1),
        passes=st.integers(1, 3),
        regularization=st.sampled_from([1e-4, 1e-3, 1e-2]),
        batch_size=st.sampled_from([7, 16, 25]),
        noisy=st.booleans(),
    )
    def test_boarded_ride_is_bitwise_a_solo_offset_run(
        self, board_chunk, passes, regularization, batch_size, noisy
    ):
        offset = board_chunk * CHUNK
        loss = LogisticLoss(regularization)

        solo = BismarckSession()
        report = solo.run_sgd(
            "t",
            make_uda(loss, passes, batch_size, noisy),
            epochs=passes,
            chunk_size=CHUNK,
            shuffle=fresh_scan(solo),
            start_offset=offset,
        )

        ride = BismarckSession()
        cursor = fresh_scan(ride).cursor(CHUNK)
        for _ in range(board_chunk):  # the flight is mid-loop when we board
            cursor.next_chunk()
        elevator = ElevatorMultiSGDUDA(num_tuples=M, dimension=D)
        rider = elevator.admit(
            make_uda(loss, passes, batch_size, noisy),
            passes=passes,
            boarding_offset=cursor.position,
        )
        assert rider.boarding_offset == offset
        while not rider.done:
            elevator.fold_chunk(*cursor.next_chunk())

        assert_bytes_equal(report.model, rider.model)
        assert rider.epochs_completed == passes
        # A full rotation delivers exactly M tuples, so the ride exits
        # back at its boarding chunk.
        assert cursor.position == offset

    def test_flight_pages_are_one_stream_not_per_rider(self):
        session = BismarckSession()
        cursor = fresh_scan(session).cursor(CHUNK)
        pool_stats = session.pool.stats_for(session.catalog.get("t").heap)
        elevator = ElevatorMultiSGDUDA(num_tuples=M, dimension=D)
        loss = LogisticLoss(1e-3)

        first = elevator.admit(
            make_uda(loss, 2, 10, False), passes=2, boarding_offset=cursor.position
        )
        streamed = 0
        features, labels = cursor.next_chunk()
        streamed += labels.shape[0]
        elevator.fold_chunk(features, labels)
        # A second model boards the live loop one chunk in.
        second = elevator.admit(
            make_uda(loss, 1, 25, False), passes=1, boarding_offset=cursor.position
        )
        assert second.boarding_offset == CHUNK
        while elevator.active:
            features, labels = cursor.next_chunk()
            streamed += labels.shape[0]
            elevator.fold_chunk(features, labels)

        assert first.done and second.done
        # Pages are charged once per cursor loop: the pool saw exactly
        # the single stream, and the opener's 2 passes bound it.
        assert streamed == 2 * M
        assert pool_stats.page_reads == streamed
        assert pool_stats.page_reads < 2 * M + 1 * M  # < sum of solo rides
        assert cursor.loops == 2


#: Loss families a cohort may stack (one fusion key per family).
FAMILIES = {
    "logistic": LogisticLoss,
    "huber": lambda lam: HuberSVMLoss(smoothing=0.1, regularization=lam),
    "least-squares": LeastSquaresLoss,
}

#: A boarding template: (family, batch size, passes) plus the lambdas of
#: the riders that share it. lambda = 0 resolves to an identity projection
#: and lambda > 0 to an L2 ball, so one cohort mixes both.
TEMPLATES = st.tuples(
    st.sampled_from(sorted(FAMILIES)),
    st.sampled_from([7, 8, 16, 25]),  # 8 and 16 divide CHUNK; 7 and 25 do not
    st.integers(1, 3),
    st.lists(st.sampled_from([0.0, 1e-3, 1e-2]), min_size=1, max_size=3),
)


class TestCohorts:
    @settings(max_examples=30, deadline=None)
    @given(
        groups=st.dictionaries(
            st.integers(0, 2 * NUM_CHUNKS - 1),  # boarding chunk index
            st.lists(TEMPLATES, min_size=1, max_size=2),
            min_size=1,
            max_size=3,
        ),
        noisy_at=st.integers(0, 2),
    )
    def test_mixed_flight_stacks_same_phase_riders_bitwise(self, groups, noisy_at):
        """Groups board a live flight at several cursor positions. Every
        rider lands bitwise on its solo ``run_sgd(start_offset=...)``;
        riders that boarded together with one (family, batch size,
        passes) fold as one cohort, everyone else — a lone rider, the
        one noisy UDA — rides alone."""
        session = BismarckSession()
        cursor = fresh_scan(session).cursor(CHUNK)
        elevator = ElevatorMultiSGDUDA(num_tuples=M, dimension=D)
        board_chunks = sorted(groups)
        noisy_chunk = board_chunks[noisy_at % len(board_chunks)]
        riders = []  # (rider, spec, expected seat)
        seat_of = {}
        # The last boarders land within 3 loops (passes <= 3).
        for chunk in range(board_chunks[-1] + 3 * NUM_CHUNKS + 1):
            if chunk in groups:
                boarded = []
                for family, batch_size, passes, lambdas in groups[chunk]:
                    seat = (chunk, family, batch_size, passes)
                    for lam in lambdas:
                        spec = (FAMILIES[family](lam), passes, batch_size, False)
                        boarded.append((spec, seat))
                if chunk == noisy_chunk:
                    # Same template as a stackable rider, but noisy: alone.
                    family, batch_size, passes, _ = groups[chunk][0]
                    spec = (FAMILIES[family](1e-3), passes, batch_size, True)
                    boarded.append((spec, None))
                for spec, seat in boarded:
                    rider = elevator.admit(
                        make_uda(*spec), passes=spec[1],
                        boarding_offset=cursor.position,
                    )
                    riders.append((rider, spec, seat))
            features, labels = cursor.next_chunk()
            if elevator.active:
                elevator.fold_chunk(features, labels)
                for ride in elevator._rides:
                    for rider in ride.riders:
                        seat_of.setdefault(rider, frozenset(ride.riders))
        assert not elevator.active

        # The grouping: one ride per (boarding chunk, family, batch size,
        # passes) seat holding two or more riders; the rest ride alone.
        expected = {}
        for rider, _, seat in riders:
            expected.setdefault(rider if seat is None else seat, []).append(rider)
        want = set()
        for members in expected.values():
            if len(members) >= 2:
                want.add(frozenset(members))
            else:
                want.update(frozenset([member]) for member in members)
        assert set(seat_of.values()) == want
        assert elevator.riders_stacked == sum(
            len(members) for members in want if len(members) >= 2
        )

        for rider, (loss, passes, batch_size, noisy), _ in riders:
            assert rider.done and rider.epochs_completed == passes
            solo = BismarckSession()
            report = solo.run_sgd(
                "t",
                make_uda(loss, passes, batch_size, noisy),
                epochs=passes,
                chunk_size=CHUNK,
                shuffle=fresh_scan(solo),
                start_offset=rider.boarding_offset,
            )
            assert_bytes_equal(report.model, rider.model)


def make_elevator_service(workers: int = 1, cap: float = 10.0, **kwargs):
    service = TrainingService(
        elevator=True,
        scan_seed=SCAN_SEED,
        chunk_size=SERVICE_CHUNK,
        workers=workers,
        **kwargs,
    )
    service.register_table("t", XS, YS)
    service.open_budget("alice", "t", cap)
    service.open_budget("bob", "t", cap)
    return service


class TestServiceBoarding:
    def test_late_job_boards_the_running_flight(self):
        service = make_elevator_service(workers=1)
        gate = GatedLoss(1e-3)
        opener = service.submit(
            "alice", "t", gate, epsilon=EPS, passes=2, batch_size=25, seed=1
        )
        service.start()
        try:
            assert gate.started.wait(timeout=10.0), "flight never took off"
            # The cursor is mid-loop (inside chunk 0's fold). This submit
            # routes onto the open flight; the driver admits it at the
            # next chunk boundary — no window wait, no fresh scan.
            rider = service.submit(
                "bob", "t", LogisticLoss(1e-3), epsilon=EPS, passes=1,
                batch_size=10, seed=2,
            )
            gate.release.set()
            assert rider.wait(timeout=30.0)
            assert opener.wait(timeout=30.0)
        finally:
            service.stop()

        assert opener.status is JobStatus.COMPLETED
        assert rider.status is JobStatus.COMPLETED
        assert opener.dispatch == "scan"
        assert rider.dispatch == "scan"
        # Provenance: the opener boarded the parked cursor; the late job
        # boarded mid-loop, past the chunk that was folding at submit.
        assert opener.boarding_offset == 0
        assert rider.boarding_offset > 0
        assert rider.boarding_offset % SERVICE_CHUNK == 0
        assert opener.epochs_ridden == 2
        assert rider.epochs_ridden == 1
        # The acceptance contract, at the service boundary.
        assert_bytes_equal(rider.model, solo_release(rider, XS, YS))
        assert_bytes_equal(opener.model, solo_release(opener, XS, YS))
        # One flight: a single scan, pages bounded by the cursor stream
        # (2 opener loops + the boarder's ride into loop 3), not the sum
        # of two solo scans at their windows' boundaries.
        assert service.scheduler.table_scans["t"] == 1
        assert rider.group_pages == 1 * MS

    def test_offset_releases_are_not_primed_offset_zero_ones_are(self):
        service = make_elevator_service(workers=1)
        gate = GatedLoss(1e-3)
        service.submit("alice", "t", gate, epsilon=EPS, passes=2,
                       batch_size=25, seed=1)
        service.start()
        try:
            assert gate.started.wait(timeout=10.0)
            rider = service.submit(
                "bob", "t", LogisticLoss(1e-3), epsilon=EPS, passes=1,
                batch_size=10, seed=2,
            )
            gate.release.set()
            assert rider.wait(timeout=30.0)
        finally:
            service.stop()
        assert rider.boarding_offset > 0

        # The rider's release is specific to where the cursor was when it
        # boarded — resubmitting the identical job must MISS and retrain.
        again = service.submit(
            "bob", "t", LogisticLoss(1e-3), epsilon=EPS, passes=1,
            batch_size=10, seed=2,
        )
        assert again.status is JobStatus.QUEUED
        service.drain()
        assert again.status is JobStatus.COMPLETED
        assert again.boarding_offset == 0  # opened its own flight
        assert_bytes_equal(again.model, solo_release(again, XS, YS))

        # That offset-0 release IS cache-eligible: third submission hits.
        third = service.submit(
            "bob", "t", LogisticLoss(1e-3), epsilon=EPS, passes=1,
            batch_size=10, seed=2,
        )
        assert third.dispatch == "cached"
        assert_bytes_equal(third.model, again.model)

    def test_a_twin_of_an_offset_rider_trains_on_its_own(self):
        service = make_elevator_service(workers=1)
        gate = GatedLoss(1e-3)
        service.submit("alice", "t", gate, epsilon=EPS, passes=2,
                       batch_size=25, seed=1)
        service.start()
        try:
            assert gate.started.wait(timeout=10.0)
            job = dict(epsilon=EPS, passes=1, batch_size=10, seed=2)
            rider = service.submit("bob", "t", LogisticLoss(1e-3), **job)
            twin = service.submit("alice", "t", LogisticLoss(1e-3), **job)
            assert twin.status is JobStatus.QUEUED
            gate.release.set()
            assert rider.wait(timeout=30.0)
            assert twin.wait(timeout=30.0)
        finally:
            service.stop()
        assert rider.boarding_offset > 0
        # An offset ride's release is not the answer the twin's key
        # names: the twin was admitted on its own, trained and paid.
        assert twin.dispatch == "scan"
        assert twin.cache_source == ""
        assert_bytes_equal(twin.model, solo_release(twin, XS, YS))
        spent = {s.principal: s.spent[0] for s in service.budgets()}
        assert spent == {"alice": pytest.approx(2 * EPS), "bob": pytest.approx(EPS)}

    def test_heterogeneous_jobs_share_one_cursor_stream(self):
        """Jobs with four different (batch_size, passes) signatures — zero
        fusion compatibility — still ride ONE flight: the elevator key is
        the table alone."""
        service = make_elevator_service(workers=1)
        shapes = [(1, 10), (2, 25), (1, 50), (2, 7)]
        records = [
            service.submit(
                "alice", "t", LogisticLoss(1e-3), epsilon=EPS,
                passes=p, batch_size=b, seed=100 + i,
            )
            for i, (p, b) in enumerate(shapes)
        ]
        service.drain()
        assert all(r.status is JobStatus.COMPLETED for r in records)
        assert all(r.dispatch == "scan" for r in records)
        # One scan for the whole set; claimed together, all open at 0.
        assert service.scheduler.table_scans["t"] == 1
        key, job_ids, pages = service.scheduler.dispatch_log[-1]
        assert key == ("t",)
        assert len(job_ids) == len(shapes)
        # Flight pages = cursor loops (bounded by the longest ride).
        assert pages == 2 * MS
        for record, (passes, _) in zip(records, shapes):
            assert record.boarding_offset == 0
            assert record.epochs_ridden == passes
            # Each rider's own ride spans exactly its solo page cost.
            assert record.group_pages == passes * MS
            assert_bytes_equal(record.model, solo_release(record, XS, YS))


class TestElevatorLedgerRace:
    def test_caps_hold_with_boarders_racing_cursors_on_two_tables(self):
        """spent + reserved <= cap at every sampled instant while
        submitters race live flights on two tables, and the final spend
        is exactly the committed jobs' total per account."""
        cap = 0.4
        X2, Y2 = make_binary_data(MS, DS, seed=22)
        service = make_elevator_service(workers=2, cap=cap)
        service.register_table("u", X2, Y2)
        service.open_budget("alice", "u", cap)
        service.start()
        violations: list = []
        stop_sampling = threading.Event()

        def sampler():
            while not stop_sampling.is_set():
                for statement in service.budgets():
                    if would_overflow(
                        statement.cap,
                        statement.spent[0] + statement.reserved[0],
                        statement.spent[1] + statement.reserved[1],
                    ):
                        violations.append(statement)
                time.sleep(0.001)

        records: list = []
        lock = threading.Lock()

        def submitter(table, base_seed):
            # Heterogeneous shapes so late submissions genuinely board
            # (any job on the table is elevator-compatible).
            for index in range(8):
                record = service.submit(
                    "alice", table, LogisticLoss(1e-3), epsilon=0.06,
                    passes=1 + index % 2, batch_size=(10, 25, 50)[index % 3],
                    seed=base_seed + index,
                )
                with lock:
                    records.append(record)
                time.sleep(0.002)  # arrivals staggered across the flights

        sampler_thread = threading.Thread(target=sampler)
        sampler_thread.start()
        try:
            submitters = [
                threading.Thread(target=submitter, args=(table, 30_000 * (i + 1)))
                for i, table in enumerate(("t", "u"))
            ]
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join()
            assert service.loop.wait_quiescent(timeout=60.0)
        finally:
            stop_sampling.set()
            sampler_thread.join()
            service.stop()

        assert not violations, f"ledger overspent under race: {violations[:3]}"
        for table in ("t", "u"):
            committed = sum(
                record.receipt.parameters.epsilon
                for record in records
                if record.status is JobStatus.COMPLETED
                and record.job.table == table
            )
            statement = [
                s for s in service.budgets()
                if s.principal == "alice" and s.table == table
            ][0]
            assert statement.spent[0] == pytest.approx(committed)
            assert statement.reserved == (0.0, 0.0)
        for record in records:
            assert record.status in (JobStatus.COMPLETED, JobStatus.REJECTED), (
                record.error
            )
            if record.status is JobStatus.COMPLETED:
                assert_bytes_equal(
                    record.model,
                    solo_release(
                        record, XS if record.job.table == "t" else X2,
                        YS if record.job.table == "t" else Y2,
                    ),
                )
