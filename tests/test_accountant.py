"""Tests for the privacy accountant and budget splitting."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accountant import (
    PrivacyAccountant,
    PrivacyBudgetExceeded,
    PrivacySpend,
    split_evenly,
)
from repro.core.mechanisms import PrivacyParameters


class TestSplitEvenly:
    def test_ten_way_split(self):
        # The MNIST one-vs-rest split of Section 4.3.
        shares = split_evenly(PrivacyParameters(1.0, 1e-4), 10)
        assert len(shares) == 10
        assert all(s.epsilon == pytest.approx(0.1) for s in shares)
        assert all(s.delta == pytest.approx(1e-5) for s in shares)

    def test_single_part(self):
        shares = split_evenly(PrivacyParameters(2.0), 1)
        assert shares[0].epsilon == 2.0

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            split_evenly(PrivacyParameters(1.0), 0)


class TestSequentialAccounting:
    def test_spends_accumulate(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(1.0, 1e-4))
        acct.spend(PrivacyParameters(0.3, 1e-5), label="a")
        acct.spend(PrivacyParameters(0.4, 2e-5), label="b")
        eps, delta = acct.total()
        assert eps == pytest.approx(0.7)
        assert delta == pytest.approx(3e-5)

    def test_budget_enforced(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(0.5))
        acct.spend(PrivacyParameters(0.4))
        with pytest.raises(PrivacyBudgetExceeded):
            acct.spend(PrivacyParameters(0.2))

    def test_delta_budget_enforced(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(10.0, 1e-6))
        with pytest.raises(PrivacyBudgetExceeded):
            acct.spend(PrivacyParameters(0.1, 1e-5))

    def test_remaining(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(1.0, 1e-4))
        acct.spend(PrivacyParameters(0.25, 2e-5))
        remaining = acct.remaining()
        assert remaining.epsilon == pytest.approx(0.75)
        assert remaining.delta == pytest.approx(8e-5)

    def test_remaining_raises_when_exhausted(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(0.5))
        acct.spend(PrivacyParameters(0.5))
        with pytest.raises(PrivacyBudgetExceeded):
            acct.remaining()

    def test_exact_budget_allowed(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(1.0))
        for _ in range(10):
            acct.spend(PrivacyParameters(0.1))
        eps, _ = acct.total()
        assert eps == pytest.approx(1.0)

    def test_spend_labels_recorded(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(1.0))
        acct.spend(PrivacyParameters(0.1), label="model-3")
        assert acct.spends[0].label == "model-3"


class TestParallelAccounting:
    def test_parallel_spends_cost_max(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(1.0))
        for _ in range(5):
            acct.spend_parallel(PrivacyParameters(0.8), group="tuning")
        eps, _ = acct.total()
        assert eps == pytest.approx(0.8)

    def test_parallel_group_maximum_tracked(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(1.0))
        acct.spend_parallel(PrivacyParameters(0.3), group="g")
        acct.spend_parallel(PrivacyParameters(0.6), group="g")
        acct.spend_parallel(PrivacyParameters(0.2), group="g")
        eps, _ = acct.total()
        assert eps == pytest.approx(0.6)

    def test_parallel_plus_sequential(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(1.0))
        acct.spend_parallel(PrivacyParameters(0.5), group="train")
        acct.spend(PrivacyParameters(0.5), label="select")
        eps, _ = acct.total()
        assert eps == pytest.approx(1.0)
        with pytest.raises(PrivacyBudgetExceeded):
            acct.spend(PrivacyParameters(0.1))

    def test_parallel_budget_enforced(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(0.5))
        with pytest.raises(PrivacyBudgetExceeded):
            acct.spend_parallel(PrivacyParameters(0.6), group="g")


# -- running totals ------------------------------------------------------------


def _bits(value) -> tuple:
    """A float's exact identity: its type and every bit of its value."""
    return type(value), float(value).hex()


def _left_fold(spends) -> tuple:
    eps = delta = 0
    for spend in spends:
        eps = eps + spend.parameters.epsilon
        delta = delta + spend.parameters.delta
    return eps, delta


_epsilons = st.one_of(
    st.floats(min_value=1e-6, max_value=2.0), st.integers(min_value=1, max_value=2)
)
_deltas = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e-3))
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("spend"), _epsilons, _deltas),
        st.tuples(
            st.just("parallel"), _epsilons, _deltas, st.sampled_from(["a", "b"])
        ),
    ),
    max_size=40,
)


class TestRunningTotals:
    @settings(max_examples=150, deadline=None)
    @given(
        cap=st.floats(min_value=0.5, max_value=40.0),
        operations=_operations,
    )
    def test_running_totals_equal_the_list_sums_bitwise(self, cap, operations):
        """After every spend / spend_parallel — refused ones included —
        ``total()`` is bit-for-bit the left fold of the spend
        list, which is what ``sum`` over it returns on CPython < 3.12
        (3.12 made float ``sum`` compensated)."""
        acct = PrivacyAccountant(budget=PrivacyParameters(cap, 0.5))
        for operation in operations:
            try:
                if operation[0] == "spend":
                    acct.spend(PrivacyParameters(operation[1], operation[2]))
                else:
                    acct.spend_parallel(
                        PrivacyParameters(operation[1], operation[2]),
                        group=operation[3],
                    )
            except PrivacyBudgetExceeded:
                pass
            eps, delta = acct.total()
            fold_eps, fold_delta = _left_fold(acct.spends)
            assert _bits(eps) == _bits(fold_eps)
            assert _bits(delta) == _bits(fold_delta)
            if sys.version_info < (3, 12):
                assert _bits(eps) == _bits(sum(s.parameters.epsilon for s in acct.spends))
                assert _bits(delta) == _bits(sum(s.parameters.delta for s in acct.spends))

    def test_constructed_history_is_folded(self):
        spends = [
            PrivacySpend("a", PrivacyParameters(0.1)),
            PrivacySpend("b", PrivacyParameters(0.2, 1e-6)),
        ]
        acct = PrivacyAccountant(budget=PrivacyParameters(1.0, 1e-3), spends=spends)
        assert acct.total() == _left_fold(spends)
