"""Tests for Algorithms 1 and 2 (the bolt-on private trainers)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bolton import (
    BoltOnCandidate,
    noiseless_psgd,
    private_convex_psgd,
    private_psgd,
    private_strongly_convex_psgd,
    train_bolt_on,
)
from repro.core.mechanisms import SphericalLaplaceMechanism
from repro.optim.losses import (
    HingeLoss,
    HuberSVMLoss,
    LeastSquaresLoss,
    LogisticLoss,
    LossProperties,
)
from repro.optim.projection import IdentityProjection, L2BallProjection
from repro.optim.schedules import (
    CappedInverseTSchedule,
    ConstantSchedule,
    DecreasingSchedule,
)
from repro.rdbms.bismarck import BismarckSession
from repro.service import JobStatus, TrainingService
from tests.conftest import assert_bytes_equal, make_binary_data


class TestPrivateConvexPSGD:
    def test_returns_private_result(self, medium_data):
        X, y = medium_data
        result = private_convex_psgd(
            X, y, LogisticLoss(), epsilon=1.0, passes=2, random_state=0
        )
        assert result.model.shape == (10,)
        assert result.privacy.epsilon == 1.0
        assert result.privacy.is_pure
        assert result.noise_norm > 0.0

    def test_sensitivity_matches_corollary1(self, medium_data):
        X, y = medium_data
        m = X.shape[0]
        result = private_convex_psgd(
            X, y, LogisticLoss(), epsilon=1.0, passes=4, batch_size=5, random_state=0
        )
        expected = 2 * 4 * 1.0 * (1.0 / np.sqrt(m)) / 5
        assert result.sensitivity.value == pytest.approx(expected)

    def test_custom_eta(self, medium_data):
        X, y = medium_data
        result = private_convex_psgd(
            X, y, LogisticLoss(), epsilon=1.0, passes=1, eta=0.05, random_state=0
        )
        assert result.sensitivity.value == pytest.approx(2 * 0.05)

    def test_noisy_model_is_noiseless_plus_noise(self, medium_data):
        X, y = medium_data
        result = private_convex_psgd(
            X, y, LogisticLoss(), epsilon=1.0, passes=1, random_state=7
        )
        gap = np.linalg.norm(result.model - result.unreleased_noiseless_model)
        assert gap == pytest.approx(result.noise_norm)

    def test_deterministic_given_seed(self, medium_data):
        X, y = medium_data
        a = private_convex_psgd(X, y, LogisticLoss(), epsilon=1.0, random_state=11)
        b = private_convex_psgd(X, y, LogisticLoss(), epsilon=1.0, random_state=11)
        np.testing.assert_array_equal(a.model, b.model)

    def test_delta_switches_to_gaussian(self, medium_data):
        X, y = medium_data
        result = private_convex_psgd(
            X, y, LogisticLoss(), epsilon=1.0, delta=1e-6, passes=1, random_state=0
        )
        assert not result.privacy.is_pure

    def test_rejects_strongly_convex_loss(self, medium_data):
        X, y = medium_data
        from repro.optim.projection import L2BallProjection

        with pytest.raises(ValueError, match="Algorithm 2"):
            private_convex_psgd(
                X, y, LogisticLoss(regularization=0.1), epsilon=1.0,
                projection=L2BallProjection(10.0), random_state=0,
            )

    def test_rejects_unnormalized_features(self):
        X = np.full((10, 3), 5.0)
        y = np.ones(10)
        with pytest.raises(ValueError, match="unit L2 ball"):
            private_convex_psgd(X, y, LogisticLoss(), epsilon=1.0)

    def test_more_noise_at_smaller_epsilon(self, medium_data):
        X, y = medium_data
        norms = []
        for eps in (0.1, 10.0):
            draws = [
                private_convex_psgd(
                    X, y, LogisticLoss(), epsilon=eps, passes=1, random_state=s
                ).noise_norm
                for s in range(30)
            ]
            norms.append(np.mean(draws))
        assert norms[0] > norms[1] * 10

    def test_accuracy_helpers(self, medium_data):
        X, y = medium_data
        result = private_convex_psgd(
            X, y, LogisticLoss(), epsilon=100.0, passes=5, batch_size=10,
            random_state=0,
        )
        assert 0.0 <= result.accuracy(X, y) <= 1.0
        assert result.noiseless_accuracy(X, y) > 0.85

    def test_explicit_mechanism(self, medium_data):
        X, y = medium_data
        result = private_convex_psgd(
            X, y, LogisticLoss(), epsilon=1.0,
            mechanism=SphericalLaplaceMechanism(), random_state=0,
        )
        assert result.noise_norm > 0


class TestPrivateStronglyConvexPSGD:
    def test_sensitivity_matches_lemma8(self, medium_data):
        X, y = medium_data
        m = X.shape[0]
        lam = 0.01
        loss = LogisticLoss(regularization=lam)
        result = private_strongly_convex_psgd(
            X, y, loss, epsilon=1.0, passes=3, batch_size=5, random_state=0
        )
        props = loss.properties(radius=1.0 / lam)
        expected = 2 * props.lipschitz / (props.strong_convexity * m) / 5
        assert result.sensitivity.value == pytest.approx(expected)

    def test_default_radius_is_one_over_lambda(self, medium_data):
        X, y = medium_data
        lam = 0.05
        result = private_strongly_convex_psgd(
            X, y, LogisticLoss(regularization=lam), epsilon=1.0, random_state=0
        )
        # L = 1 + lam * (1/lam) = 2 in the sensitivity
        m = X.shape[0]
        assert result.sensitivity.value == pytest.approx(2 * 2 / (lam * m))

    def test_requires_regularization_or_radius(self, medium_data):
        X, y = medium_data
        with pytest.raises(ValueError, match="regularization"):
            private_strongly_convex_psgd(
                X, y, LogisticLoss(), epsilon=1.0, random_state=0
            )

    def test_sensitivity_independent_of_passes(self, medium_data):
        X, y = medium_data
        loss = LogisticLoss(regularization=0.01)
        s1 = private_strongly_convex_psgd(
            X, y, loss, epsilon=1.0, passes=1, random_state=0
        ).sensitivity.value
        s5 = private_strongly_convex_psgd(
            X, y, loss, epsilon=1.0, passes=5, random_state=0
        ).sensitivity.value
        assert s1 == pytest.approx(s5)

    def test_early_stopping_strategy(self, medium_data):
        # Section 4.3: in the strongly convex case one can run to a
        # tolerance because the noise is oblivious to k.
        X, y = medium_data
        result = private_strongly_convex_psgd(
            X, y, LogisticLoss(regularization=0.1), epsilon=1.0, passes=50,
            convergence_tolerance=1e-3, batch_size=10, random_state=0,
        )
        assert result.psgd.converged_early
        assert result.psgd.passes_completed < 50

    def test_noiseless_model_stays_in_ball(self, medium_data):
        X, y = medium_data
        lam = 0.01
        result = private_strongly_convex_psgd(
            X, y, LogisticLoss(regularization=lam), epsilon=1.0, passes=2,
            random_state=0,
        )
        assert np.linalg.norm(result.unreleased_noiseless_model) <= 1 / lam + 1e-9

    def test_delta_variant(self, medium_data):
        X, y = medium_data
        result = private_strongly_convex_psgd(
            X, y, LogisticLoss(regularization=0.01), epsilon=0.5, delta=1e-6,
            random_state=0,
        )
        assert result.privacy.delta == 1e-6

    def test_huber_svm_works(self, medium_data):
        X, y = medium_data
        result = private_strongly_convex_psgd(
            X, y, HuberSVMLoss(smoothing=0.1, regularization=0.01), epsilon=1.0,
            passes=2, random_state=0,
        )
        assert np.all(np.isfinite(result.model))


class TestGenericPrivatePSGD:
    def test_decreasing_schedule(self, medium_data):
        X, y = medium_data
        m = X.shape[0]
        schedule = DecreasingSchedule(beta=1.0, m=m, c=0.5)
        result = private_psgd(
            X, y, LogisticLoss(), epsilon=1.0, schedule=schedule, passes=2,
            random_state=0,
        )
        assert result.sensitivity.regime.startswith("convex-decreasing")

    def test_unknown_schedule_rejected(self, medium_data):
        X, y = medium_data
        from repro.optim.schedules import InverseSqrtTSchedule

        with pytest.raises(TypeError):
            private_psgd(
                X, y, LogisticLoss(), epsilon=1.0, schedule=InverseSqrtTSchedule(),
                random_state=0,
            )

    def test_constant_schedule_matches_algorithm1(self, medium_data):
        X, y = medium_data
        schedule = ConstantSchedule(0.05)
        via_generic = private_psgd(
            X, y, LogisticLoss(), epsilon=1.0, schedule=schedule, passes=3,
            random_state=0,
        )
        via_algorithm1 = private_convex_psgd(
            X, y, LogisticLoss(), epsilon=1.0, eta=0.05, passes=3, random_state=0
        )
        assert via_generic.sensitivity.value == pytest.approx(
            via_algorithm1.sensitivity.value
        )


class TestNoiselessBaseline:
    def test_runs_and_learns(self, medium_data):
        X, y = medium_data
        result = noiseless_psgd(
            X, y, LogisticLoss(), ConstantSchedule(0.5), passes=10, batch_size=10,
            random_state=0,
        )
        accuracy = float(np.mean(LogisticLoss().predict(result.model, X) == y))
        assert accuracy > 0.9


class TestUtilityShape:
    """Qualitative utility claims of the evaluation section."""

    def test_bolton_beats_random_at_reasonable_epsilon(self):
        X, y = make_binary_data(2000, 8, seed=5)
        result = private_convex_psgd(
            X, y, LogisticLoss(), epsilon=2.0, passes=5, batch_size=50,
            random_state=0,
        )
        assert result.accuracy(X, y) > 0.7

    def test_accuracy_improves_with_epsilon(self):
        X, y = make_binary_data(2000, 8, seed=6)
        accs = []
        for eps in (0.05, 5.0):
            runs = [
                private_strongly_convex_psgd(
                    X, y, LogisticLoss(regularization=0.01), epsilon=eps,
                    passes=5, batch_size=50, random_state=s,
                ).accuracy(X, y)
                for s in range(5)
            ]
            accs.append(np.mean(runs))
        assert accs[1] > accs[0]


# -- the Algorithm 1/2 rule, pinned to the paper's formulas --------------------

#: m for the rule table: Algorithm 1's default step is 1/sqrt(400) = 0.05.
RULE_M = 400
RULE_LAMBDA = 0.01  # Algorithm 2's default radius is 1/lambda = 100

#: name -> (loss at lambda, L_phi over ||w|| <= R (None: unconstrained),
#: beta_phi): the margin constants of Section 2 and Appendix B by hand.
BUILT_IN_LOSSES = {
    "logistic": (LogisticLoss, lambda R: 1.0, 1.0),
    "huber": (lambda lam: HuberSVMLoss(0.1, lam), lambda R: 1.0, 1.0 / (2 * 0.1)),
    "least_squares": (
        LeastSquaresLoss, lambda R: np.inf if R is None else R + 1.0, 1.0
    ),
    "hinge": (HingeLoss, lambda R: 1.0, np.inf),
}


class _GammaWithoutLambda(LogisticLoss):
    """A custom loss whose constants report gamma > 0 at lambda = 0."""

    def properties(self, radius=None):
        return LossProperties(lipschitz=1.0, smoothness=1.0, strong_convexity=0.5)


class _LambdaWithoutGamma(LogisticLoss):
    """A custom loss whose constants report gamma = 0 at lambda > 0."""

    def properties(self, radius=None):
        return LossProperties(
            lipschitz=1.0 + self.regularization * radius,
            smoothness=1.0 + self.regularization,
            strong_convexity=0.0,
        )


class TestBoltOnRule:
    """``BoltOnCandidate.resolve`` against Algorithms 1 and 2 as written
    in the paper: every built-in loss, lambda zero or not, a radius and a
    step given or not."""

    @pytest.mark.parametrize("name", sorted(BUILT_IN_LOSSES))
    @pytest.mark.parametrize("lam", [0.0, RULE_LAMBDA])
    @pytest.mark.parametrize("radius", [None, 2.0])
    @pytest.mark.parametrize("eta", [None, 0.3])
    def test_resolve_is_algorithm_1_or_2(self, name, lam, radius, eta):
        make_loss, l_phi, beta_phi = BUILT_IN_LOSSES[name]
        candidate = BoltOnCandidate(make_loss(lam), eta=eta, radius=radius)
        if lam > 0.0:
            # Algorithm 2: the ball R (default 1/lambda), beta = beta_phi +
            # lambda, gamma = lambda, eta_t = min(1/beta, 1/(gamma t)).
            R = radius if radius is not None else 100.0
            beta, gamma = beta_phi + lam, lam
            lipschitz = l_phi(R) + lam * R
            if beta == np.inf:  # the hinge: no smoothness, no schedule
                with pytest.raises(ValueError, match="beta must be a positive finite"):
                    candidate.resolve(RULE_M)
                return
            schedule, projection, properties = candidate.resolve(RULE_M)
            assert type(schedule) is CappedInverseTSchedule
            assert (schedule.beta, schedule.gamma) == (beta, gamma)
        else:
            # Algorithm 1: unconstrained unless a radius is given, gamma = 0,
            # the constant step eta (default 1/sqrt(m)).
            R = radius
            beta, gamma = beta_phi, 0.0
            lipschitz = l_phi(R)
            schedule, projection, properties = candidate.resolve(RULE_M)
            assert type(schedule) is ConstantSchedule
            assert schedule.eta == (eta if eta is not None else 0.05)
        if R is None:
            assert type(projection) is IdentityProjection
        else:
            assert type(projection) is L2BallProjection
            assert projection.radius == R
        assert properties == LossProperties(lipschitz, beta, gamma)

    @pytest.mark.parametrize(
        "loss, radius, match",
        [
            (LogisticLoss(), 5.0, "the supplied loss has gamma = 0"),
            (LogisticLoss(RULE_LAMBDA), 0.0, "radius must be a positive finite"),
            (LogisticLoss(RULE_LAMBDA), -1.0, "radius must be a positive finite"),
        ],
    )
    def test_algorithm_2_refusals(self, loss, radius, match):
        X, y = make_binary_data(120, 5, seed=3)
        with pytest.raises(ValueError, match=match):
            private_strongly_convex_psgd(X, y, loss, 1.0, radius=radius)
        if loss.regularization > 0.0:
            with pytest.raises(ValueError, match=match):
                BoltOnCandidate(loss, radius=radius).resolve(120)

    @pytest.mark.parametrize(
        "loss, match",
        [
            (_GammaWithoutLambda(), r"Algorithm 1 \(convex case\)"),
            (_LambdaWithoutGamma(RULE_LAMBDA), "the supplied loss has gamma = 0"),
        ],
    )
    def test_custom_loss_whose_constants_contradict_lambda(self, loss, match):
        """No built-in loss reports gamma > 0 at lambda = 0 or gamma = 0 at
        lambda > 0. For a custom one that does, every trainer refuses as
        the named algorithm its lambda selects does, and a service job
        fails before any page is read, with its budget refunded."""
        X, y = make_binary_data(120, 5, seed=3)
        named = private_strongly_convex_psgd if loss.regularization else private_convex_psgd
        with pytest.raises(ValueError, match=match):
            named(X, y, loss, 1.0)
        with pytest.raises(ValueError, match=match):
            BoltOnCandidate(loss).resolve(120)
        with pytest.raises(ValueError, match=match):
            train_bolt_on(X, y, BoltOnCandidate(loss), 1.0, random_state=0)
        session = BismarckSession()
        session.load_table("t", X, y)
        with pytest.raises(ValueError, match=match):
            session.run_bolton_private("t", loss, 1.0, random_state=0)

        service = TrainingService(scan_seed=5)
        service.register_table("t", X, y)
        service.open_budget("alice", "t", 1.0)
        record = service.submit("alice", "t", loss, epsilon=0.2, seed=3)
        service.scheduler.run_pending()
        assert record.status is JobStatus.FAILED
        assert "ValueError" in record.error
        assert record.group_pages == 0
        statement = service.budgets()[0]
        assert statement.spent == (0, 0)
        assert statement.reserved == (0.0, 0.0)

    @pytest.mark.parametrize("loss", [LogisticLoss(0.05), HuberSVMLoss(0.1, 1e-3)])
    def test_run_bolton_private_defaults_to_radius_one_over_lambda(self, loss):
        X, y = make_binary_data(300, 8, seed=0)
        session = BismarckSession()
        session.load_table("t", X, y)
        run = dict(epochs=2, batch_size=10, random_state=0)
        default = session.run_bolton_private("t", loss, 1.0, **run)
        explicit = session.run_bolton_private(
            "t", loss, 1.0, radius=1.0 / loss.regularization, **run
        )
        assert_bytes_equal(default.model, explicit.model)
