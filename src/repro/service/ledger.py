"""The privacy-budget ledger: per-(principal, table) ε/δ accounts.

A multi-tenant service needs many budgets (one per principal × dataset)
and a *two-phase* spend, so that money and data move atomically:

* :meth:`PrivacyBudgetLedger.reserve` — at admission, set the job's
  (ε, δ) aside. Denied reservations raise :class:`BudgetRejected`
  **before the job ever touches data** — the scheduler turns that into
  a rejection with zero pages charged.
* :meth:`PrivacyBudgetLedger.commit` — after the model is trained and
  noised, fold the reservation into the account's spent totals and hand
  back a :class:`BudgetReceipt`.
* :meth:`PrivacyBudgetLedger.refund` — if training fails, return the
  reservation untouched: failed jobs don't burn budget.

An account is its cap and running totals — committed and reserved
(ε, δ) — under basic composition: the receipts in the registry are the
spend history, so the ledger keeps no second copy of it.

Invariant (the property tests hammer every interleaving): for each
account, ``spent + reserved <= cap`` at all times, under the tolerance
rule of :func:`repro.core.accountant.would_overflow`, and every mutation
happens under one lock so concurrent submitters cannot double-spend.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.accountant import PrivacyBudgetExceeded, would_overflow
from repro.core.mechanisms import PrivacyParameters
from repro.service.errors import BudgetRejected

__all__ = [
    "AccountStatement",
    "BudgetReceipt",
    "BudgetReservation",
    "PrivacyBudgetLedger",
]


@dataclass(frozen=True)
class BudgetReceipt:
    """Proof of one committed spend, stored with the job's results."""

    principal: str
    table: str
    job_id: str
    parameters: PrivacyParameters
    #: Account-local commit sequence number (audit ordering).
    sequence: int


@dataclass
class BudgetReservation:
    """A pending hold on an account; exactly one of commit/refund may
    consume it (the ledger enforces the state machine)."""

    principal: str
    table: str
    job_id: str
    parameters: PrivacyParameters
    state: str = "reserved"  # -> "committed" | "refunded"


@dataclass
class _Account:
    """One (principal, table) budget account: its cap and running totals."""

    cap: PrivacyParameters
    #: Committed (ε, δ), each folded left to right from the integer ``0``
    #: in commit order — so an account that never spent states ``0``.
    spent_epsilon: float = 0
    spent_delta: float = 0
    reserved_epsilon: float = 0.0
    reserved_delta: float = 0.0
    commits: int = 0
    open_reservations: int = 0
    #: Job ids whose receipts were replayed into this account by
    #: :meth:`PrivacyBudgetLedger.reconcile` (restore idempotence).
    reconciled: set = field(default_factory=set)


@dataclass(frozen=True)
class AccountStatement:
    """A read-only snapshot of one account (for status displays)."""

    principal: str
    table: str
    cap: PrivacyParameters
    spent: Tuple[float, float]
    reserved: Tuple[float, float]

    @property
    def available_epsilon(self) -> float:
        return max(self.cap.epsilon - self.spent[0] - self.reserved[0], 0.0)

    def payload(self) -> dict:
        """The statement as flat JSON — ``principal``, ``table`` and the
        ``epsilon_``/``delta_`` halves of ``cap``, ``spent`` and
        ``reserved`` — as one ``GET /v1/budgets`` entry carries it."""
        return {
            "principal": self.principal,
            "table": self.table,
            "epsilon_cap": self.cap.epsilon,
            "delta_cap": self.cap.delta,
            "epsilon_spent": self.spent[0],
            "delta_spent": self.spent[1],
            "epsilon_reserved": self.reserved[0],
            "delta_reserved": self.reserved[1],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "AccountStatement":
        """The inverse of :meth:`payload`, exactly."""
        return cls(
            principal=payload["principal"],
            table=payload["table"],
            cap=PrivacyParameters(payload["epsilon_cap"], payload["delta_cap"]),
            spent=(payload["epsilon_spent"], payload["delta_spent"]),
            reserved=(payload["epsilon_reserved"], payload["delta_reserved"]),
        )


class PrivacyBudgetLedger:
    """Thread-safe two-phase budget accounting over many accounts."""

    def __init__(self) -> None:
        self._accounts: Dict[Tuple[str, str], _Account] = {}
        self._lock = threading.RLock()
        #: Ledger-wide event tallies, mutated under the account lock and
        #: sampled by the service's metrics collector (plain ints — the
        #: ledger itself stays metrics-agnostic).
        self.reserve_grants = 0
        self.reserve_denials = 0
        self.commit_count = 0
        self.refund_count = 0
        #: Observer fired for each *new* grant — ``(principal, table,
        #: epsilon, delta)`` — which the durable service wires to its
        #: write-ahead log so caps opened between compactions survive a
        #: crash. :meth:`restore_caps` never fires it (a restore must
        #: not re-log the grants it is replaying).
        self.on_grant: Optional[Callable[[str, str, float, float], None]] = None

    # -- account management ------------------------------------------------------

    def open_account(
        self, principal: str, table: str, epsilon: float, delta: float = 0.0
    ) -> None:
        """Grant ``principal`` a fresh (ε, δ) cap against ``table``."""
        key = (principal, table)
        with self._lock:
            if key in self._accounts:
                raise ValueError(
                    f"account {key} already exists; budgets are immutable "
                    "once granted (open a differently-named dataset view "
                    "to extend a tenant's allowance)"
                )
            self._accounts[key] = _Account(PrivacyParameters(epsilon, delta))
            observer = self.on_grant
        if observer is not None:
            observer(principal, table, float(epsilon), float(delta))

    def has_account(self, principal: str, table: str) -> bool:
        with self._lock:
            return (principal, table) in self._accounts

    def statement(self, principal: str, table: str) -> AccountStatement:
        with self._lock:
            account = self._require(principal, table)
            return AccountStatement(
                principal=principal,
                table=table,
                cap=account.cap,
                spent=(account.spent_epsilon, account.spent_delta),
                reserved=(account.reserved_epsilon, account.reserved_delta),
            )

    def statements(self) -> List[AccountStatement]:
        with self._lock:
            return [
                self.statement(principal, table)
                for (principal, table) in sorted(self._accounts)
            ]

    # -- durability --------------------------------------------------------------

    def caps_payload(self) -> List[dict]:
        """The granted caps, JSON-ready — all a snapshot needs to store.

        Spends are deliberately *not* serialized: on restore they are
        reconciled from the committed receipts in the registry snapshot
        (:meth:`reconcile`), so the ledger and the results store can
        never tell different stories about who paid for what.
        """
        with self._lock:
            return [
                {
                    "principal": principal,
                    "table": table,
                    "epsilon": account.cap.epsilon,
                    "delta": account.cap.delta,
                }
                for (principal, table), account in sorted(self._accounts.items())
            ]

    def restore_caps(self, caps: List[dict]) -> None:
        """Re-open the accounts a snapshot granted (idempotent per cap).

        An account that already exists must carry the same cap — budgets
        are immutable, and a snapshot that disagrees with live grants is
        a configuration error, not something to merge silently. All caps
        are validated before any account is opened, so a rejected
        snapshot leaves the ledger untouched.
        """
        with self._lock:
            for entry in caps:
                key = (entry["principal"], entry["table"])
                cap = PrivacyParameters(entry["epsilon"], entry["delta"])
                existing = self._accounts.get(key)
                if existing is not None and existing.cap != cap:
                    raise ValueError(
                        f"snapshot grants {key} a cap of {cap}, but the "
                        f"account is already open with "
                        f"{existing.cap}; budgets are immutable"
                    )
            for entry in caps:
                key = (entry["principal"], entry["table"])
                if key not in self._accounts:
                    self._accounts[key] = _Account(
                        PrivacyParameters(entry["epsilon"], entry["delta"])
                    )

    def reconcile(self, receipts: List[BudgetReceipt]) -> int:
        """Fold committed receipts into the accounts (snapshot restore).

        Receipts fold into each account's spent totals in (principal,
        table, commit-sequence) order, after the cap validation below —
        a snapshot whose receipts overflow a cap raises instead of
        loading. Returns the number of receipts applied.

        Idempotence keys on receipt *identity* (the job id), never on the
        sequence counter: a warm ledger's live commits may collide with a
        prior process's sequence numbers, and dropping a colliding
        receipt would under-count the release history. The counter is
        instead bumped past every replayed sequence so post-restore
        commits stay unique.

        All-or-nothing: every receipt is validated first — its account
        must exist, and each account's new total must fit its cap (the
        spends are non-negative, so if the final total fits, so does
        every replay prefix) — and only then is anything applied. A bad
        snapshot raises with the ledger unchanged, never half-restored.
        """
        with self._lock:
            ordered = sorted(
                receipts, key=lambda r: (r.principal, r.table, r.sequence)
            )
            fresh, seen = [], set()
            for receipt in ordered:
                identity = (receipt.principal, receipt.table, receipt.job_id)
                account = self._require(receipt.principal, receipt.table)
                if receipt.job_id in account.reconciled or identity in seen:
                    continue
                seen.add(identity)
                fresh.append(receipt)
            added: Dict[Tuple[str, str], Tuple[float, float]] = {}
            for receipt in fresh:
                eps, delta = added.get((receipt.principal, receipt.table), (0.0, 0.0))
                added[(receipt.principal, receipt.table)] = (
                    eps + receipt.parameters.epsilon,
                    delta + receipt.parameters.delta,
                )
            for key, (eps, delta) in added.items():
                account = self._accounts[key]
                spent_eps, spent_delta = account.spent_epsilon, account.spent_delta
                if would_overflow(account.cap, spent_eps + eps, spent_delta + delta):
                    raise PrivacyBudgetExceeded(
                        f"snapshot receipts for account {key} total "
                        f"({eps:g}, {delta:g}) on top of spent "
                        f"({spent_eps:g}, {spent_delta:g}), overflowing the "
                        f"cap {account.cap}; refusing to restore"
                    )
            applied = 0
            for receipt in fresh:
                account = self._require(receipt.principal, receipt.table)
                account.spent_epsilon += receipt.parameters.epsilon
                account.spent_delta += receipt.parameters.delta
                account.reconciled.add(receipt.job_id)
                account.commits = max(account.commits, receipt.sequence)
                applied += 1
            return applied

    # -- the two-phase spend ----------------------------------------------------

    def reserve(
        self,
        principal: str,
        table: str,
        parameters: PrivacyParameters,
        job_id: str = "",
    ) -> BudgetReservation:
        """Atomically hold ``parameters`` against the account or deny.

        Denial — unknown account, or ``spent + reserved + request``
        overflowing the cap — raises :class:`BudgetRejected` and changes
        nothing.
        """
        with self._lock:
            key = (principal, table)
            account = self._accounts.get(key)
            if account is None:
                self.reserve_denials += 1
                raise BudgetRejected(
                    f"no budget account for principal {principal!r} on "
                    f"table {table!r}; open one before submitting jobs"
                )
            spent_eps, spent_delta = account.spent_epsilon, account.spent_delta
            if would_overflow(
                account.cap,
                spent_eps + account.reserved_epsilon + parameters.epsilon,
                spent_delta + account.reserved_delta + parameters.delta,
            ):
                self.reserve_denials += 1
                raise BudgetRejected(
                    f"reserving {parameters} for job {job_id!r} would "
                    f"overflow {principal!r}'s budget on {table!r}: cap "
                    f"{account.cap}, spent ({spent_eps:g}, "
                    f"{spent_delta:g}), already reserved "
                    f"({account.reserved_epsilon:g}, {account.reserved_delta:g})"
                )
            account.reserved_epsilon += parameters.epsilon
            account.reserved_delta += parameters.delta
            account.open_reservations += 1
            self.reserve_grants += 1
            return BudgetReservation(
                principal=principal,
                table=table,
                job_id=job_id,
                parameters=parameters,
            )

    def commit(self, reservation: BudgetReservation) -> BudgetReceipt:
        """Convert a reservation into a recorded spend (a receipt)."""
        with self._lock:
            account = self._consume(reservation, "committed")
            # The hold comes off before the spend goes on, so the cap
            # check sees exactly spent + this job (the reservation made
            # room for it; this guards the ledger's invariant anyway).
            parameters = reservation.parameters
            epsilon = account.spent_epsilon + parameters.epsilon
            delta = account.spent_delta + parameters.delta
            if would_overflow(account.cap, epsilon, delta):
                raise PrivacyBudgetExceeded(
                    f"committing {parameters} for job {reservation.job_id!r} "
                    f"would exceed the cap {account.cap}; already spent "
                    f"({account.spent_epsilon:g}, {account.spent_delta:g})"
                )
            account.spent_epsilon, account.spent_delta = epsilon, delta
            account.commits += 1
            self.commit_count += 1
            return BudgetReceipt(
                principal=reservation.principal,
                table=reservation.table,
                job_id=reservation.job_id,
                parameters=reservation.parameters,
                sequence=account.commits,
            )

    def refund(self, reservation: BudgetReservation) -> None:
        """Release a reservation without spending (failed/cancelled job)."""
        with self._lock:
            self._consume(reservation, "refunded")
            self.refund_count += 1

    # -- internals ---------------------------------------------------------------

    def _require(self, principal: str, table: str) -> _Account:
        account = self._accounts.get((principal, table))
        if account is None:
            raise KeyError(f"no budget account for ({principal!r}, {table!r})")
        return account

    def _consume(self, reservation: BudgetReservation, new_state: str) -> _Account:
        """Transition a reservation out of 'reserved', releasing its hold."""
        if reservation.state != "reserved":
            raise ValueError(
                f"reservation for job {reservation.job_id!r} is already "
                f"{reservation.state}; commit/refund may be called once"
            )
        account = self._require(reservation.principal, reservation.table)
        account.reserved_epsilon -= reservation.parameters.epsilon
        account.reserved_delta -= reservation.parameters.delta
        account.open_reservations -= 1
        # Clamp rounding dust so long-lived accounts cannot drift below 0.
        if account.open_reservations == 0:
            account.reserved_epsilon = 0.0
            account.reserved_delta = 0.0
        reservation.state = new_state
        return account
