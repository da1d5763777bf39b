"""Unit and property tests for the loss functions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.optim.losses import (
    HingeLoss,
    HuberSVMLoss,
    LeastSquaresLoss,
    LogisticLoss,
    Loss,
    MarginLoss,
)
from repro.optim.schedules import ConstantSchedule
from repro.rdbms.uda import SGDUDA, ElevatorRider, _cohort_key
from tests.conftest import assert_bytes_equal


def masked_two_branch_derivative(z):
    """The logistic ``phi'`` as two masked branches, each with its own
    ``exp`` — the formula ``LogisticLoss.margin_derivative`` must
    reproduce bit for bit."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = -np.exp(-z[pos]) / (1.0 + np.exp(-z[pos]))
    out[~pos] = -1.0 / (1.0 + np.exp(z[~pos]))
    return out


#: exp overflows past ~709.78 and underflows to 0 past ~745.13.
EXP_OVERFLOW, EXP_UNDERFLOW = 709.782712893384, 745.1332191019411
EDGE_MARGINS = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
    2.2250738585072014e-308, -2.2250738585072014e-308,
    EXP_OVERFLOW, -EXP_OVERFLOW, EXP_UNDERFLOW, -EXP_UNDERFLOW,
    np.finfo(np.float64).max, -np.finfo(np.float64).max,
]


def near(point):
    """Floats within 1 of ``point`` or of ``-point``."""
    return st.floats(point - 1.0, point + 1.0) | st.floats(-point - 1.0, -point + 1.0)


MARGINS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-40.0, 40.0),
    st.floats(-1e-300, 1e-300),
    near(EXP_OVERFLOW),
    near(EXP_UNDERFLOW),
    st.sampled_from(EDGE_MARGINS),
)


FINITE_W = st.lists(
    st.floats(-3.0, 3.0, allow_nan=False), min_size=3, max_size=3
).map(lambda ws: np.asarray(ws))


def numeric_gradient(loss, w, x, y, h=1e-6):
    grad = np.zeros_like(w)
    for i in range(len(w)):
        up = w.copy()
        down = w.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (loss.value(up, x, y) - loss.value(down, x, y)) / (2 * h)
    return grad


class TestLogisticLoss:
    def test_value_at_zero_is_log2(self):
        loss = LogisticLoss()
        w = np.zeros(3)
        assert loss.value(w, np.array([1.0, 0.0, 0.0]), 1.0) == pytest.approx(np.log(2))

    def test_value_large_positive_margin_small(self):
        loss = LogisticLoss()
        w = np.array([10.0, 0.0, 0.0])
        assert loss.value(w, np.array([1.0, 0.0, 0.0]), 1.0) < 1e-4

    def test_value_large_negative_margin_linear(self):
        # phi(z) ~ -z for very negative z
        loss = LogisticLoss()
        w = np.array([50.0, 0.0, 0.0])
        value = loss.value(w, np.array([1.0, 0.0, 0.0]), -1.0)
        assert value == pytest.approx(50.0, rel=1e-6)

    def test_gradient_matches_numeric(self):
        loss = LogisticLoss(regularization=0.1)
        rng = np.random.default_rng(0)
        w = rng.normal(size=4)
        x = rng.normal(size=4)
        x /= 2 * np.linalg.norm(x)
        got = loss.gradient(w, x, -1.0)
        want = numeric_gradient(loss, w, x, -1.0)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_batch_gradient_is_mean_of_gradients(self):
        loss = LogisticLoss(regularization=0.01)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(7, 3)) / 3
        y = np.where(rng.random(7) > 0.5, 1.0, -1.0)
        w = rng.normal(size=3)
        want = np.mean([loss.gradient(w, X[i], y[i]) for i in range(7)], axis=0)
        np.testing.assert_allclose(loss.batch_gradient(w, X, y), want, atol=1e-12)

    def test_batch_value_is_mean_of_values(self):
        loss = LogisticLoss()
        rng = np.random.default_rng(2)
        X = rng.normal(size=(5, 3)) / 3
        y = np.ones(5)
        w = rng.normal(size=3)
        want = np.mean([loss.value(w, X[i], y[i]) for i in range(5)])
        assert loss.batch_value(w, X, y) == pytest.approx(want)

    def test_properties_unregularized(self):
        props = LogisticLoss().properties()
        assert props.lipschitz == 1.0
        assert props.smoothness == 1.0
        assert props.strong_convexity == 0.0
        assert not props.is_strongly_convex

    def test_properties_tight_smoothness(self):
        props = LogisticLoss(tight_smoothness=True).properties()
        assert props.smoothness == 0.25

    def test_properties_regularized_match_paper(self):
        # Paper Section 2: L = 1 + lam*R, beta = 1 + lam, gamma = lam.
        lam, R = 0.01, 100.0
        props = LogisticLoss(regularization=lam).properties(radius=R)
        assert props.lipschitz == pytest.approx(1 + lam * R)
        assert props.smoothness == pytest.approx(1 + lam)
        assert props.strong_convexity == pytest.approx(lam)
        assert props.is_strongly_convex

    def test_regularized_properties_require_radius(self):
        with pytest.raises(ValueError, match="radius"):
            LogisticLoss(regularization=0.1).properties()

    @given(z=st.floats(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_margin_derivative_bounded_by_one(self, z):
        deriv = float(LogisticLoss().margin_derivative(np.asarray(z)))
        assert -1.0 <= deriv <= 0.0

    @given(z=arrays(np.float64, array_shapes(min_dims=0, max_dims=3, max_side=6),
                    elements=MARGINS))
    @settings(max_examples=300, deadline=None)
    def test_margin_derivative_is_the_two_branch_formula_bitwise(self, z):
        got = LogisticLoss().margin_derivative(z)
        want = masked_two_branch_derivative(z)
        assert isinstance(got, np.ndarray)
        assert got.shape == want.shape == z.shape
        assert got.dtype == want.dtype == np.float64
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        np.testing.assert_array_equal(
            got[~nan].view(np.int64), want[~nan].view(np.int64)
        )

    def test_margin_derivative_bitwise_on_a_dense_sweep(self):
        # Backs the property with many more margins per run: a seeded
        # sweep across magnitudes, subnormal to exp-underflow.
        rng = np.random.default_rng(14)
        z = np.concatenate(
            [rng.standard_normal(20_000) * scale
             for scale in (1e-310, 1e-8, 1.0, 10.0, 40.0, 700.0, 750.0)]
            + [np.asarray(EDGE_MARGINS)]
        )
        got = LogisticLoss().margin_derivative(z)
        want = masked_two_branch_derivative(z)
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        np.testing.assert_array_equal(
            got[~nan].view(np.int64), want[~nan].view(np.int64)
        )

    def test_margin_derivative_keeps_scalar_and_integer_inputs(self):
        loss = LogisticLoss()
        for z in (0.0, -2.5, np.float64(3.0), 7, np.arange(-3, 4)):
            got = loss.margin_derivative(z)
            want = masked_two_branch_derivative(z)
            assert isinstance(got, np.ndarray)
            assert got.shape == want.shape and got.dtype == np.float64
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @given(z=st.floats(-700, 700))
    @settings(max_examples=50, deadline=None)
    def test_margin_loss_finite_and_nonnegative(self, z):
        value = float(LogisticLoss().margin_loss(np.asarray(z)))
        assert np.isfinite(value)
        assert value >= 0.0

    def test_gradient_norm_within_lipschitz(self, rng):
        loss = LogisticLoss()
        for _ in range(20):
            w = rng.normal(size=6)
            x = rng.normal(size=6)
            x /= max(np.linalg.norm(x), 1.0)
            assert np.linalg.norm(loss.gradient(w, x, 1.0)) <= 1.0 + 1e-12

    def test_with_regularization_clone(self):
        loss = LogisticLoss(tight_smoothness=True)
        clone = loss.with_regularization(0.5)
        assert clone.regularization == 0.5
        assert clone.tight_smoothness is True
        assert loss.regularization == 0.0

    def test_predict_signs(self):
        loss = LogisticLoss()
        w = np.array([1.0, 0.0])
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(loss.predict(w, X), [1.0, -1.0, 1.0])

    def test_negative_regularization_rejected(self):
        with pytest.raises(ValueError):
            LogisticLoss(regularization=-0.1)


class TestHuberSVMLoss:
    def test_regions(self):
        loss = HuberSVMLoss(smoothing=0.5)
        # z > 1 + h -> 0
        assert float(loss.margin_loss(np.asarray(2.0))) == 0.0
        # z < 1 - h -> 1 - z
        assert float(loss.margin_loss(np.asarray(0.0))) == pytest.approx(1.0)
        # quadratic region
        assert float(loss.margin_loss(np.asarray(1.0))) == pytest.approx(
            (1 + 0.5 - 1.0) ** 2 / (4 * 0.5)
        )

    def test_continuity_at_region_boundaries(self):
        loss = HuberSVMLoss(smoothing=0.1)
        h = 0.1
        for z0 in (1 - h, 1 + h):
            left = float(loss.margin_loss(np.asarray(z0 - 1e-9)))
            right = float(loss.margin_loss(np.asarray(z0 + 1e-9)))
            assert left == pytest.approx(right, abs=1e-6)

    def test_derivative_continuity(self):
        loss = HuberSVMLoss(smoothing=0.1)
        h = 0.1
        for z0 in (1 - h, 1 + h):
            left = float(loss.margin_derivative(np.asarray(z0 - 1e-9)))
            right = float(loss.margin_derivative(np.asarray(z0 + 1e-9)))
            assert left == pytest.approx(right, abs=1e-6)

    def test_gradient_matches_numeric(self):
        loss = HuberSVMLoss(smoothing=0.2, regularization=0.05)
        rng = np.random.default_rng(3)
        w = rng.normal(size=4) * 0.3
        x = rng.normal(size=4)
        x /= 2 * np.linalg.norm(x)
        got = loss.gradient(w, x, 1.0)
        want = numeric_gradient(loss, w, x, 1.0)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_properties(self):
        props = HuberSVMLoss(smoothing=0.1).properties()
        assert props.lipschitz == 1.0
        assert props.smoothness == pytest.approx(1.0 / 0.2)
        assert props.strong_convexity == 0.0

    def test_paper_appendix_b_constants(self):
        # Appendix B: L <= 1 and beta <= 1/(2h).
        for h in (0.05, 0.1, 0.5):
            props = HuberSVMLoss(smoothing=h).properties()
            assert props.lipschitz <= 1.0
            assert props.smoothness == pytest.approx(1.0 / (2 * h))

    def test_invalid_smoothing(self):
        with pytest.raises(ValueError):
            HuberSVMLoss(smoothing=0.0)

    @given(z=st.floats(-5, 5), h=st.floats(0.01, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_derivative_bounded(self, z, h):
        deriv = float(HuberSVMLoss(smoothing=h).margin_derivative(np.asarray(z)))
        assert -1.0 - 1e-12 <= deriv <= 0.0 + 1e-12

    @given(z=st.floats(-5, 5), h=st.floats(0.01, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_loss_nonnegative_and_convexish(self, z, h):
        loss = HuberSVMLoss(smoothing=h)
        assert float(loss.margin_loss(np.asarray(z))) >= 0.0


class TestLeastSquaresLoss:
    def test_margin_form(self):
        loss = LeastSquaresLoss()
        # (1 - z)^2 / 2 at z = 0 -> 0.5
        assert float(loss.margin_loss(np.asarray(0.0))) == pytest.approx(0.5)

    def test_lipschitz_requires_bound(self):
        assert LeastSquaresLoss().margin_lipschitz() == float("inf")
        assert LeastSquaresLoss(margin_bound=2.0).margin_lipschitz() == 3.0

    def test_properties_resolve_radius(self):
        props = LeastSquaresLoss().properties(radius=5.0)
        assert props.lipschitz == pytest.approx(6.0)

    def test_gradient_matches_numeric(self):
        loss = LeastSquaresLoss(regularization=0.1)
        rng = np.random.default_rng(4)
        w = rng.normal(size=3)
        x = rng.normal(size=3)
        x /= 2 * np.linalg.norm(x)
        got = loss.gradient(w, x, -1.0)
        want = numeric_gradient(loss, w, x, -1.0)
        np.testing.assert_allclose(got, want, atol=1e-5)


class TestHingeLoss:
    def test_values(self):
        loss = HingeLoss()
        assert float(loss.margin_loss(np.asarray(2.0))) == 0.0
        assert float(loss.margin_loss(np.asarray(0.0))) == 1.0
        assert float(loss.margin_loss(np.asarray(-1.0))) == 2.0

    def test_smoothness_is_infinite(self):
        assert HingeLoss().margin_smoothness() == float("inf")

    def test_sensitivity_refuses_hinge(self):
        # The library must refuse to compute a privacy bound for a
        # non-smooth loss rather than silently produce a wrong one.
        from repro.core.sensitivity import convex_constant_step

        with pytest.raises(ValueError, match="smooth"):
            convex_constant_step(HingeLoss().properties(), eta=0.1, passes=1)


class TestLossHierarchy:
    """The scalar-first base / margin-form specialization split."""

    @pytest.mark.parametrize(
        "loss",
        [
            LogisticLoss(),
            HuberSVMLoss(smoothing=0.2),
            LeastSquaresLoss(margin_bound=2.0),
            HingeLoss(),
        ],
    )
    def test_builtin_losses_are_margin_losses(self, loss):
        assert isinstance(loss, MarginLoss)
        assert isinstance(loss, Loss)

    def test_scalar_only_subclass_instantiates_and_batches(self):
        """A third-party Loss defining only value/gradient must work: the
        defaulted batch methods loop over rows."""

        class TinyQuadraticLoss(Loss):
            def value(self, w, x, y):
                return 0.5 * (float(np.dot(w, x)) - float(y)) ** 2

            def gradient(self, w, x, y):
                return (float(np.dot(w, x)) - float(y)) * np.asarray(
                    x, dtype=np.float64
                )

        loss = TinyQuadraticLoss()
        rng = np.random.default_rng(8)
        X = rng.normal(size=(9, 4))
        y = np.where(rng.random(9) > 0.5, 1.0, -1.0)
        w = rng.normal(size=4)
        want_grad = np.mean([loss.gradient(w, X[i], y[i]) for i in range(9)], axis=0)
        want_val = np.mean([loss.value(w, X[i], y[i]) for i in range(9)])
        np.testing.assert_allclose(loss.batch_gradient(w, X, y), want_grad, atol=1e-12)
        assert loss.batch_value(w, X, y) == pytest.approx(want_val)

    def test_scalar_only_subclass_has_no_properties(self):
        class OpaqueLoss(Loss):
            def value(self, w, x, y):
                return 0.0

            def gradient(self, w, x, y):
                return np.zeros_like(w)

        with pytest.raises(NotImplementedError, match="MarginLoss"):
            OpaqueLoss().properties()

    def test_margin_batch_gradient_matches_row_loop(self):
        """The vectorized MarginLoss batch pair agrees with the base-class
        row-loop fallback on the same instance."""
        loss = LogisticLoss(regularization=0.05)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(15, 5))
        X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
        y = np.where(rng.random(15) > 0.5, 1.0, -1.0)
        w = rng.normal(size=5)
        vectorized = loss.batch_gradient(w, X, y)
        fallback = Loss.batch_gradient(loss, w, X, y)
        np.testing.assert_allclose(vectorized, fallback, rtol=0, atol=1e-12)
        assert loss.batch_value(w, X, y) == pytest.approx(
            Loss.batch_value(loss, w, X, y), abs=1e-12
        )


class TestMultiModelRowsAreSingleModelCalls:
    """``MarginLoss``'s multi-model kernels are exact per row: row ``k``
    of ``batch_gradient_multi`` / ``batch_value_multi`` is bitwise the
    single-model call of model ``k`` at its own lambda. This is what lets
    a fused scan release the same floats as K separate runs."""

    @given(
        loss=st.sampled_from(
            [
                LogisticLoss(),
                HuberSVMLoss(smoothing=0.1),
                LeastSquaresLoss(margin_bound=2.0),
                HingeLoss(),
            ]
        ),
        shared=st.booleans(),
        K=st.integers(1, 40),
        n=st.integers(1, 300),
        d=st.integers(1, 80),  # odd d puts rows at 8-byte offsets
        lead=st.integers(0, 5),
        scale=st.sampled_from([1e-3, 1.0, 30.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_k_is_bitwise_the_single_model_call(
        self, loss, shared, K, n, d, lead, scale, seed
    ):
        rng = np.random.default_rng(seed)
        # X is a row slice of a larger block, as a chunk's segment is.
        rows = lead + n + 3
        if shared:
            X = rng.standard_normal((rows, d))[lead : lead + n]
            y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        else:
            X = rng.standard_normal((K, rows, d))[:, lead : lead + n]
            y = np.where(rng.random((K, n)) < 0.5, -1.0, 1.0)
        W = rng.standard_normal((K, d)) * scale
        lams = rng.choice([0.0, 1e-4, 1e-2, 0.5], size=K)

        gradients = loss.batch_gradient_multi(W, X, y, regularization=lams)
        values = loss.batch_value_multi(W, X, y, regularization=lams)
        assert gradients.shape == (K, d) and values.shape == (K,)
        for k in range(K):
            solo = loss.with_regularization(float(lams[k]))
            X_k, y_k = (X, y) if shared else (X[k], y[k])
            assert_bytes_equal(gradients[k], solo.batch_gradient(W[k], X_k, y_k))
            assert_bytes_equal(values[k], solo.batch_value(W[k], X_k, y_k))


class ArgumentDerivativeLoss(MarginLoss):
    """``phi(z) = z^2 / 2``, whose ``margin_derivative`` returns its
    (float64) argument itself."""

    def margin_loss(self, z):
        z = np.asarray(z, dtype=np.float64)
        return 0.5 * z * z

    def margin_derivative(self, z):
        return np.asarray(z, dtype=np.float64)

    def margin_lipschitz(self):
        return float("inf")

    def margin_smoothness(self):
        return 1.0


class TestMultiKernelAliasing:
    """The multi-model kernel writes only into arrays it allocated. A
    loss that overrides ``margin_derivative`` alone keeps both kernels,
    so its riders still stack in a cohort — whatever array its
    derivative returns, every row must stay its single-model call and
    nothing the loss keeps may change."""

    @staticmethod
    def inputs(seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((40, 6))[3:33]
        y = np.where(rng.random(30) < 0.5, -1.0, 1.0)
        W = rng.standard_normal((5, 6))
        lams = np.array([0.0, 1e-4, 1e-2, 0.5, 0.0])
        return W, X, y, lams

    @staticmethod
    def stacks(loss) -> bool:
        rider = ElevatorRider(
            SGDUDA(loss, ConstantSchedule(0.1), 10), passes=1, boarding_offset=0
        )
        return _cohort_key(rider) is not None

    def test_a_derivative_returning_a_kept_buffer(self):
        kept = {}

        class CachedDerivativeLoss(LogisticLoss):
            def margin_derivative(self, z):
                value = super().margin_derivative(z)
                buffer = kept.setdefault(value.shape, np.empty_like(value))
                np.copyto(buffer, value)
                kept["last"] = (buffer, value)
                return buffer

        loss = CachedDerivativeLoss()
        assert self.stacks(loss)
        W, X, y, lams = self.inputs(seed=41)
        gradients = loss.batch_gradient_multi(W, X, y, regularization=lams)
        buffer, value = kept["last"]
        assert buffer.shape == (5, 30)
        assert_bytes_equal(buffer, value)  # the kept array is untouched
        for k in range(5):
            solo = loss.with_regularization(float(lams[k]))
            assert_bytes_equal(gradients[k], solo.batch_gradient(W[k], X, y))

    @pytest.mark.parametrize("shared", [True, False])
    def test_a_derivative_returning_its_argument(self, shared):
        loss = ArgumentDerivativeLoss()
        assert self.stacks(loss)
        W, X, y, lams = self.inputs(seed=42)
        if not shared:
            X = np.stack([X * (k + 1) for k in range(5)])
            y = np.stack([y * (-1) ** k for k in range(5)])
        held = (W.copy(), X.copy(), y.copy())
        gradients = loss.batch_gradient_multi(W, X, y, regularization=lams)
        for original, now in zip(held, (W, X, y)):
            assert_bytes_equal(now, original)  # the caller's arrays too
        for k in range(5):
            solo = loss.with_regularization(float(lams[k]))
            X_k, y_k = (X, y) if shared else (X[k], y[k])
            assert_bytes_equal(gradients[k], solo.batch_gradient(W[k], X_k, y_k))
