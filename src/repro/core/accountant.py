"""Privacy budget accounting.

The paper uses only the *basic* (sequential) composition theorem of Dwork
and Roth [17] — e.g. splitting the budget evenly across the ten one-vs-rest
sub-models of the MNIST experiment (Section 4.3), and across the l
candidate models plus the exponential-mechanism selection inside the
private tuning algorithm (Algorithm 3 trains each candidate on a *disjoint*
partition, so parallel composition applies there instead).

:class:`PrivacyAccountant` tracks spends and enforces a global budget;
:func:`split_evenly` is the convenience used by the multiclass trainer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core.mechanisms import PrivacyParameters
from repro.utils.validation import check_positive_int


class PrivacyBudgetExceeded(RuntimeError):
    """Raised when a requested spend would exceed the remaining budget."""


def would_overflow(budget: PrivacyParameters, epsilon: float, delta: float) -> bool:
    """Would a cumulative spend of ``(epsilon, delta)`` exceed ``budget``?

    The single source of truth for the accountant's tolerance rule: a
    relative 1e-12 slack on both coordinates so that splitting a budget
    into floating-point shares (``split_evenly``) and spending them all
    back never trips on rounding, plus an absolute 1e-18 slack on delta
    when the budget is pure (``delta == 0`` would otherwise make *any*
    rounding dust a violation). The budget ledger of the training service
    applies the same rule to ``spent + reserved`` so admission control and
    commit-time accounting can never disagree.
    """
    return epsilon > budget.epsilon * (1 + 1e-12) or delta > (
        budget.delta * (1 + 1e-12) + (1e-18 if budget.delta == 0 else 0)
    )


@dataclass
class PrivacySpend:
    """A recorded expenditure with a human-readable label."""

    label: str
    parameters: PrivacyParameters


@dataclass
class PrivacyAccountant:
    """Sequential-composition accountant with a hard budget.

    Composition rule (basic): total epsilon is the sum of spent epsilons,
    total delta the sum of spent deltas. ``parallel`` spends — mechanisms
    run on *disjoint* data partitions — cost only their maximum, which is
    how Algorithm 3's per-candidate training is accounted.

    :meth:`total` is O(1): each recorded spend is folded into running
    totals — left to right from ``0``, the additions ``sum`` over
    :attr:`spends` performed before CPython 3.12 made float ``sum``
    compensated — so a long-lived account's admission checks cost the
    same at its ten-thousandth charge as at its first. ``spends`` is the
    record and the totals its cache: change it only through the methods
    below.
    """

    budget: PrivacyParameters
    spends: List[PrivacySpend] = field(default_factory=list)
    _parallel_groups: dict = field(default_factory=dict)
    _totals: Tuple[float, float] = field(
        default=(0, 0), init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._refold()

    def _refold(self) -> None:
        """Recompute the running totals from the whole spend list."""
        eps = delta = 0
        for spend in self.spends:
            eps += spend.parameters.epsilon
            delta += spend.parameters.delta
        self._totals = (eps, delta)

    def spend(self, parameters: PrivacyParameters, label: str = "") -> None:
        """Record a sequential spend, raising if the budget would overflow."""
        eps, delta = self.total()
        new_eps = eps + parameters.epsilon
        new_delta = delta + parameters.delta
        if would_overflow(self.budget, new_eps, new_delta):
            raise PrivacyBudgetExceeded(
                f"spend {parameters} (label={label!r}) would exceed the "
                f"budget {self.budget}; already spent ({eps:g}, {delta:g})"
            )
        self.spends.append(PrivacySpend(label=label, parameters=parameters))
        self._totals = (new_eps, new_delta)

    def spend_parallel(
        self, parameters: PrivacyParameters, group: str, label: str = ""
    ) -> None:
        """Record a spend on a disjoint partition within ``group``.

        Parallel composition: all spends in the same group cost only the
        group's maximum epsilon/delta. Each call still validates the
        would-be total.
        """
        current = self._parallel_groups.get(group)
        new_eps = max(parameters.epsilon, current.epsilon if current else 0.0)
        new_delta = max(parameters.delta, current.delta if current else 0.0)
        eps, delta = self.total()
        if current is not None:
            eps -= current.epsilon
            delta -= current.delta
        if would_overflow(self.budget, eps + new_eps, delta + new_delta):
            raise PrivacyBudgetExceeded(
                f"parallel spend {parameters} in group {group!r} would exceed "
                f"the budget {self.budget}"
            )
        if current is None:
            self.spends.append(
                PrivacySpend(label=f"[parallel:{group}] {label}", parameters=parameters)
            )
            self._parallel_groups[group] = PrivacyParameters(new_eps, new_delta or 0.0)
            total_eps, total_delta = self._totals
            self._totals = (
                total_eps + parameters.epsilon,
                total_delta + parameters.delta,
            )
        else:
            self._parallel_groups[group] = PrivacyParameters(new_eps, new_delta or 0.0)
            if (new_eps, new_delta) == (current.epsilon, current.delta):
                return
            # Raise the recorded group spend to the new maximum — an entry
            # changed mid-list, so the totals are refolded in list order.
            for idx in range(len(self.spends) - 1, -1, -1):
                if self.spends[idx].label.startswith(f"[parallel:{group}]"):
                    self.spends[idx] = PrivacySpend(
                        label=self.spends[idx].label,
                        parameters=self._parallel_groups[group],
                    )
                    break
            self._refold()

    def total(self) -> tuple[float, float]:
        """Total (epsilon, delta) spent so far under basic composition."""
        return self._totals

    def remaining(self) -> PrivacyParameters:
        """Remaining budget (epsilon floor at a tiny positive value)."""
        eps, delta = self.total()
        rem_eps = max(self.budget.epsilon - eps, 0.0)
        rem_delta = max(self.budget.delta - delta, 0.0)
        if rem_eps <= 0.0:
            raise PrivacyBudgetExceeded("privacy budget fully spent")
        return PrivacyParameters(rem_eps, rem_delta)


def split_evenly(privacy: PrivacyParameters, parts: int) -> List[PrivacyParameters]:
    """Divide a budget into ``parts`` equal sequential shares.

    The MNIST one-vs-rest experiment "used the simplest composition theorem
    and divided the privacy budget evenly" (Section 4.3) — ten shares of
    (ε/10, δ/10).
    """
    check_positive_int(parts, "parts")
    share = privacy.split(parts)
    return [share] * parts
