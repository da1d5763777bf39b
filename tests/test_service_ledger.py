"""Tests for the privacy-budget ledger: atomicity, interleavings, zero-cost
rejection.

The load-bearing invariant: for every account and under EVERY interleaving
of reserve/commit/refund — adversarial sequences from hypothesis, real
thread races, failure paths — cumulative committed epsilon never exceeds
the cap, and ``spent + reserved`` never exceeds it either. Plus the
service-level guarantee the invariant buys: a denied job costs zero pages
and leaves no ledger drift.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accountant import would_overflow
from repro.core.mechanisms import PrivacyParameters
from repro.optim.losses import LogisticLoss
from repro.service import (
    BudgetRejected,
    JobStatus,
    PrivacyBudgetLedger,
    TrainingService,
)

CAP = 1.0


def make_ledger(epsilon: float = CAP, delta: float = 0.0) -> PrivacyBudgetLedger:
    ledger = PrivacyBudgetLedger()
    ledger.open_account("alice", "t", epsilon, delta)
    return ledger


class TestAccounts:
    def test_duplicate_account_rejected(self):
        ledger = make_ledger()
        with pytest.raises(ValueError, match="already exists"):
            ledger.open_account("alice", "t", 2.0)

    def test_unknown_account_denied(self):
        ledger = make_ledger()
        with pytest.raises(BudgetRejected, match="no budget account"):
            ledger.reserve("mallory", "t", PrivacyParameters(0.1))

    def test_statement_snapshot(self):
        ledger = make_ledger(1.0, 1e-6)
        reservation = ledger.reserve("alice", "t", PrivacyParameters(0.25, 1e-7))
        statement = ledger.statement("alice", "t")
        assert statement.cap == PrivacyParameters(1.0, 1e-6)
        assert statement.reserved == (0.25, 1e-7)
        assert statement.spent == (0, 0)
        assert statement.available_epsilon == pytest.approx(0.75)
        ledger.commit(reservation)
        statement = ledger.statement("alice", "t")
        assert statement.spent == (0.25, 1e-7)
        assert statement.reserved == (0.0, 0.0)


class TestTwoPhaseSpend:
    def test_commit_records_receipt_and_spend(self):
        ledger = make_ledger()
        reservation = ledger.reserve("alice", "t", PrivacyParameters(0.4), job_id="j1")
        receipt = ledger.commit(reservation)
        assert receipt.job_id == "j1"
        assert receipt.sequence == 1
        assert ledger.statement("alice", "t").spent[0] == pytest.approx(0.4)

    def test_refund_restores_headroom(self):
        ledger = make_ledger()
        reservation = ledger.reserve("alice", "t", PrivacyParameters(0.9))
        with pytest.raises(BudgetRejected):
            ledger.reserve("alice", "t", PrivacyParameters(0.2))
        ledger.refund(reservation)
        # The refunded hold frees the full cap again.
        ledger.commit(ledger.reserve("alice", "t", PrivacyParameters(1.0)))

    def test_reservation_consumed_once(self):
        ledger = make_ledger()
        reservation = ledger.reserve("alice", "t", PrivacyParameters(0.1))
        ledger.commit(reservation)
        with pytest.raises(ValueError, match="already committed"):
            ledger.commit(reservation)
        with pytest.raises(ValueError, match="already committed"):
            ledger.refund(reservation)

    def test_denied_reservation_changes_nothing(self):
        ledger = make_ledger()
        ledger.commit(ledger.reserve("alice", "t", PrivacyParameters(0.7)))
        before = ledger.statement("alice", "t")
        with pytest.raises(BudgetRejected, match="overflow"):
            ledger.reserve("alice", "t", PrivacyParameters(0.5))
        after = ledger.statement("alice", "t")
        assert before == after

    def test_reserved_blocks_admission_but_not_spend(self):
        # spent + reserved is the admission figure: two 0.5 holds fill a
        # 1.0 cap even though nothing is spent yet.
        ledger = make_ledger()
        ledger.reserve("alice", "t", PrivacyParameters(0.5))
        ledger.reserve("alice", "t", PrivacyParameters(0.5))
        with pytest.raises(BudgetRejected):
            ledger.reserve("alice", "t", PrivacyParameters(1e-6))


@st.composite
def operation_sequences(draw):
    """Interleaved reserve/commit/refund programs against one account.

    Reserve amounts intentionally overshoot the cap sometimes so denial
    paths are exercised; commit/refund targets are drawn by index so the
    same program always replays the same interleaving.
    """
    n = draw(st.integers(min_value=1, max_value=30))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["reserve", "commit", "refund"]))
        if kind == "reserve":
            amount = draw(
                st.floats(min_value=1e-3, max_value=0.6, allow_nan=False)
            )
            ops.append(("reserve", amount))
        else:
            ops.append((kind, draw(st.integers(min_value=0, max_value=40))))
    return ops


class TestAdmissionCost:
    def test_an_account_keeps_running_totals_not_a_history(self):
        """Admission is O(1) in an account's history: with 10^4 charges
        committed, the account holds its cap, its running totals and its
        counters — nothing per charge — and its spent totals are each
        folded left to right from ``0`` in commit order."""
        ledger = make_ledger(epsilon=1e6, delta=1e-3)
        charge = PrivacyParameters(0.01, 1e-9)
        folded = (0, 0)
        for index in range(10_000):
            ledger.commit(ledger.reserve("alice", "t", charge, job_id=f"j{index}"))
            folded = (folded[0] + charge.epsilon, folded[1] + charge.delta)

        account = ledger._require("alice", "t")
        sized = {
            name: len(value)
            for name, value in vars(account).items()
            if isinstance(value, (list, set, dict, tuple))
        }
        assert sized == {}
        receipt = ledger.commit(ledger.reserve("alice", "t", charge, job_id="next"))
        statement = ledger.statement("alice", "t")

        assert receipt.sequence == 10_001
        assert statement.spent == (folded[0] + 0.01, folded[1] + 1e-9)
        assert statement.reserved == (0.0, 0.0)

    def test_an_unspent_account_states_integer_zeros(self):
        # The statement's bytes: an account that never committed reports
        # the integer 0 it always has, not 0.0.
        ledger = make_ledger(1.0, 1e-6)
        ledger.refund(ledger.reserve("alice", "t", PrivacyParameters(0.5, 1e-7)))
        payload = ledger.statement("alice", "t").payload()
        assert (payload["epsilon_spent"], payload["delta_spent"]) == (0, 0)
        assert type(payload["epsilon_spent"]) is int
        assert type(payload["delta_spent"]) is int


class TestInterleavingProperty:
    @settings(max_examples=120, deadline=None)
    @given(operation_sequences())
    def test_no_interleaving_overspends(self, ops):
        """spent <= cap and spent + reserved <= cap after EVERY step."""
        ledger = make_ledger(CAP)
        open_reservations = []
        for op, argument in ops:
            if op == "reserve":
                try:
                    open_reservations.append(
                        ledger.reserve("alice", "t", PrivacyParameters(argument))
                    )
                except BudgetRejected:
                    pass
            elif open_reservations:
                reservation = open_reservations.pop(
                    argument % len(open_reservations)
                )
                if op == "commit":
                    ledger.commit(reservation)
                else:
                    ledger.refund(reservation)
            statement = ledger.statement("alice", "t")
            budget = statement.cap
            # The accountant's own tolerance rule is the yardstick; using
            # it here means "never overspends" is exactly the cap rule the
            # single-budget accountant enforces.
            assert not would_overflow(budget, statement.spent[0], statement.spent[1])
            assert not would_overflow(
                budget,
                statement.spent[0] + statement.reserved[0],
                statement.spent[1] + statement.reserved[1],
            )

    @settings(max_examples=60, deadline=None)
    @given(operation_sequences())
    def test_commits_match_spent_total(self, ops):
        """The spent total is exactly the committed reservations."""
        ledger = make_ledger(CAP)
        open_reservations, committed = [], 0.0
        for op, argument in ops:
            if op == "reserve":
                try:
                    open_reservations.append(
                        ledger.reserve("alice", "t", PrivacyParameters(argument))
                    )
                except BudgetRejected:
                    continue
            elif open_reservations:
                reservation = open_reservations.pop(
                    argument % len(open_reservations)
                )
                if op == "commit":
                    ledger.commit(reservation)
                    committed += reservation.parameters.epsilon
                else:
                    ledger.refund(reservation)
        assert ledger.statement("alice", "t").spent[0] == pytest.approx(committed)


class TestThreadedInterleaving:
    def test_racing_tenants_cannot_overspend(self):
        """8 threads hammering reserve->commit/refund stay under the cap."""
        ledger = make_ledger(CAP)
        committed_amounts = []
        lock = threading.Lock()

        def worker(worker_id: int) -> None:
            for round_index in range(25):
                try:
                    reservation = ledger.reserve(
                        "alice", "t", PrivacyParameters(0.03),
                        job_id=f"w{worker_id}-{round_index}",
                    )
                except BudgetRejected:
                    continue
                if (worker_id + round_index) % 3 == 0:
                    ledger.refund(reservation)
                else:
                    ledger.commit(reservation)
                    with lock:
                        committed_amounts.append(0.03)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        statement = ledger.statement("alice", "t")
        assert statement.reserved == (0.0, 0.0)
        assert statement.spent[0] == pytest.approx(sum(committed_amounts))
        assert statement.spent[0] <= CAP * (1 + 1e-12)


class TestRejectionBeforeScan:
    """The service-level consequence: denied jobs never touch data."""

    def _service(self) -> TrainingService:
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 6))
        X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
        y = np.where(rng.random(200) > 0.5, 1.0, -1.0)
        service = TrainingService()
        service.register_table("t", X, y)
        service.open_budget("alice", "t", 0.1)
        return service

    def test_denied_job_charges_zero_pages_and_no_drift(self):
        service = self._service()
        before = service.budgets()[0]
        record = service.submit(
            "alice", "t", LogisticLoss(1e-3), epsilon=0.5, passes=2, seed=1
        )
        service.drain()
        assert record.status is JobStatus.REJECTED
        assert "overflow" in record.error
        assert service.page_reads == 0
        assert service.budgets()[0] == before

    def test_no_account_is_a_zero_cost_rejection(self):
        service = self._service()
        record = service.submit(
            "mallory", "t", LogisticLoss(1e-3), epsilon=0.01, passes=1, seed=1
        )
        assert record.status is JobStatus.REJECTED
        assert service.page_reads == 0

    def test_rejection_after_spending_tail(self):
        """Jobs are admitted until the cap, then rejected with the earlier
        spends intact — no retroactive drift."""
        service = self._service()
        records = [
            service.submit(
                "alice", "t", LogisticLoss(1e-3), epsilon=0.04,
                passes=1, batch_size=20, seed=i,
            )
            for i in range(4)
        ]
        service.drain()
        assert [record.status for record in records] == [
            JobStatus.COMPLETED,
            JobStatus.COMPLETED,
            JobStatus.REJECTED,
            JobStatus.REJECTED,
        ]
        statement = service.budgets()[0]
        assert statement.spent[0] == pytest.approx(0.08)
        assert statement.reserved == (0.0, 0.0)

    def test_failed_job_refunds_and_over_cap_job_still_fits_later(self):
        from repro.optim.losses import HingeLoss

        service = self._service()
        failed = service.submit(
            "alice", "t", HingeLoss(), epsilon=0.08, passes=1, seed=1
        )
        service.drain()
        assert service.status(failed.job_id) is JobStatus.FAILED
        assert service.page_reads == 0  # died at sensitivity resolution
        # The refunded 0.08 is available again: a follow-up job fits.
        retry = service.submit(
            "alice", "t", LogisticLoss(1e-3), epsilon=0.08, passes=1, seed=2
        )
        service.drain()
        assert service.status(retry.job_id) is JobStatus.COMPLETED
