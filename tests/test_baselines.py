"""Tests for the SCS13 and BST14 baselines."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines.bst14 import (
    bst14_noise_sigma,
    bst14_rule,
    bst14_train,
    per_iteration_sensitivity,
    solve_composition_epsilon,
)
from repro.baselines.scs13 import (
    scs13_gaussian_sigma,
    scs13_noise_scale,
    scs13_rule,
    scs13_train,
)
from repro.core.mechanisms import PrivacyParameters
from repro.optim.losses import HuberSVMLoss, LeastSquaresLoss, LogisticLoss
from repro.optim.projection import IdentityProjection, L2BallProjection
from repro.optim.schedules import BST14Schedule, InverseSqrtTSchedule, InverseTSchedule
from repro.rdbms.bismarck import BismarckSession
from tests.conftest import make_binary_data


class TestSCS13NoiseCalibration:
    def test_scale_formula(self):
        # (2L/b) / eps_pass
        assert scs13_noise_scale(1.0, 0.5, 1) == pytest.approx(4.0)
        assert scs13_noise_scale(1.0, 0.5, 10) == pytest.approx(0.4)

    def test_gaussian_sigma_formula(self):
        sens = 2.0 / 5
        expected = sens * math.sqrt(2 * math.log(1.25 / 1e-6)) / 0.5
        assert scs13_gaussian_sigma(1.0, 0.5, 1e-6, 5) == pytest.approx(expected)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            scs13_noise_scale(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            scs13_gaussian_sigma(1.0, 1.0, 0.0, 1)


class TestSCS13Training:
    def test_runs_pure_dp(self, medium_data):
        X, y = medium_data
        result = scs13_train(X, y, LogisticLoss(), epsilon=1.0, passes=2,
                             batch_size=10, random_state=0)
        assert result.algorithm == "SCS13"
        assert result.privacy.is_pure
        assert result.noise_draws == 2 * 60  # 2 passes * 600/10 batches

    def test_runs_approximate_dp(self, medium_data):
        X, y = medium_data
        result = scs13_train(X, y, LogisticLoss(), epsilon=1.0, delta=1e-6,
                             passes=1, batch_size=10, random_state=0)
        assert not result.privacy.is_pure
        assert result.per_step_noise_scale == pytest.approx(
            scs13_gaussian_sigma(1.0, 1.0, 1e-6, 10)
        )

    def test_noise_per_update_not_at_end(self, medium_data):
        # The defining property versus the bolt-on algorithms.
        X, y = medium_data
        result = scs13_train(X, y, LogisticLoss(), epsilon=1.0, passes=1,
                             batch_size=1, random_state=0)
        assert result.noise_draws == 600

    def test_radius_constrains_model(self, medium_data):
        X, y = medium_data
        result = scs13_train(X, y, LogisticLoss(regularization=0.1), epsilon=1.0,
                             passes=1, batch_size=10, radius=0.5, random_state=0)
        assert np.linalg.norm(result.model) <= 0.5 + 1e-9

    def test_multipass_splits_budget(self, medium_data):
        # More passes -> smaller per-pass budget -> more noise per update.
        X, y = medium_data
        one = scs13_train(X, y, LogisticLoss(), epsilon=1.0, passes=1,
                          batch_size=10, random_state=0)
        five = scs13_train(X, y, LogisticLoss(), epsilon=1.0, passes=5,
                           batch_size=10, random_state=0)
        assert five.per_step_noise_scale == pytest.approx(
            5 * one.per_step_noise_scale
        )

    def test_deterministic(self, medium_data):
        X, y = medium_data
        a = scs13_train(X, y, LogisticLoss(), epsilon=1.0, random_state=3)
        b = scs13_train(X, y, LogisticLoss(), epsilon=1.0, random_state=3)
        np.testing.assert_array_equal(a.model, b.model)

    def test_rejects_unnormalized(self):
        X = np.full((10, 3), 9.0)
        with pytest.raises(ValueError, match="unit L2 ball"):
            scs13_train(X, np.ones(10), LogisticLoss(), epsilon=1.0)


class TestBST14Composition:
    def test_solution_satisfies_equation(self):
        epsilon, steps, delta1 = 1.0, 10_000, 1e-8
        e1 = solve_composition_epsilon(epsilon, steps, delta1)
        consumed = steps * e1 * math.expm1(e1) + math.sqrt(
            2 * steps * math.log(1 / delta1)
        ) * e1
        assert consumed == pytest.approx(epsilon, rel=1e-6)

    def test_monotone_in_epsilon(self):
        lo = solve_composition_epsilon(0.5, 1000, 1e-8)
        hi = solve_composition_epsilon(2.0, 1000, 1e-8)
        assert hi > lo

    def test_monotone_in_steps(self):
        few = solve_composition_epsilon(1.0, 100, 1e-8)
        many = solve_composition_epsilon(1.0, 100_000, 1e-8)
        assert many < few

    def test_per_iteration_sensitivity(self):
        assert per_iteration_sensitivity(1.0, 1) == 2.0
        assert per_iteration_sensitivity(2.0, 4) == 1.0


class TestBST14NoiseSigma:
    def test_returns_sigma_and_steps(self):
        sigma, steps = bst14_noise_sigma(1.0, 1e-6, m=1000, passes=2)
        assert steps == 2000
        assert sigma > 0

    def test_naive_m_passes_noisier(self):
        # Calibrating for m^2 iterations while running km must give much
        # larger noise — the ablation of Section 4.1.
        m = 1000
        extended, _ = bst14_noise_sigma(1.0, 1e-6, m, passes=2)
        naive, _ = bst14_noise_sigma(1.0, 1e-6, m, passes=2, noise_steps=m * m)
        assert naive > 3 * extended

    def test_batch_reduces_steps(self):
        _, steps_b1 = bst14_noise_sigma(1.0, 1e-6, 1000, 1, batch_size=1)
        _, steps_b10 = bst14_noise_sigma(1.0, 1e-6, 1000, 1, batch_size=10)
        assert steps_b10 == steps_b1 // 10


class TestBST14Training:
    def test_requires_delta(self, medium_data):
        X, y = medium_data
        with pytest.raises(ValueError, match="delta"):
            bst14_train(X, y, LogisticLoss(), epsilon=1.0, delta=0.0)

    def test_convex_run(self, medium_data):
        X, y = medium_data
        result = bst14_train(X, y, LogisticLoss(), epsilon=1.0, delta=1e-6,
                             passes=2, batch_size=10, radius=5.0, random_state=0)
        assert result.algorithm == "BST14"
        assert np.linalg.norm(result.model) <= 5.0 + 1e-9
        assert result.noise_draws == 2 * 60

    def test_strongly_convex_run(self, medium_data):
        X, y = medium_data
        result = bst14_train(
            X, y, LogisticLoss(regularization=0.1), epsilon=1.0, delta=1e-6,
            passes=2, batch_size=10, radius=10.0, random_state=0,
        )
        assert np.all(np.isfinite(result.model))

    def test_strongly_convex_flag_validated(self, medium_data):
        X, y = medium_data
        with pytest.raises(ValueError, match="strongly convex"):
            bst14_train(X, y, LogisticLoss(), epsilon=1.0, delta=1e-6,
                        strongly_convex=True, random_state=0)

    def test_naive_variant_worse_noise(self, medium_data):
        X, y = medium_data
        extended = bst14_train(X, y, LogisticLoss(), epsilon=1.0, delta=1e-6,
                               passes=1, batch_size=10, radius=5.0, random_state=0)
        naive = bst14_train(X, y, LogisticLoss(), epsilon=1.0, delta=1e-6,
                            passes=1, batch_size=10, radius=5.0, random_state=0,
                            naive_noise_for_m_passes=True)
        assert naive.per_step_noise_scale > extended.per_step_noise_scale

    def test_deterministic(self, medium_data):
        X, y = medium_data
        a = bst14_train(X, y, LogisticLoss(), epsilon=1.0, delta=1e-6,
                        radius=2.0, random_state=3)
        b = bst14_train(X, y, LogisticLoss(), epsilon=1.0, delta=1e-6,
                        radius=2.0, random_state=3)
        np.testing.assert_array_equal(a.model, b.model)

    def test_iota_override(self, medium_data):
        X, y = medium_data
        result = bst14_train(X, y, LogisticLoss(), epsilon=1.0, delta=1e-6,
                             radius=2.0, iota_override=1.0, random_state=0)
        sigma, _ = bst14_noise_sigma(1.0, 1e-6, X.shape[0], 1)
        assert result.per_step_noise_scale == pytest.approx(sigma)


class TestHeadToHead:
    """The headline evaluation claim: ours beats both baselines."""

    def test_bolton_beats_baselines_on_average(self):
        from repro.core.bolton import private_strongly_convex_psgd

        X, y = make_binary_data(4000, 8, seed=7)
        Xt, yt = make_binary_data(1000, 8, seed=8)
        lam, eps, delta = 0.01, 0.5, 1e-6
        loss = LogisticLoss(regularization=lam)

        ours, scs, bst = [], [], []
        for seed in range(3):
            ours.append(
                private_strongly_convex_psgd(
                    X, y, loss, eps, delta=delta, passes=5, batch_size=50,
                    random_state=seed,
                ).accuracy(Xt, yt)
            )
            scs.append(
                scs13_train(X, y, loss, eps, delta=delta, passes=5, batch_size=50,
                            radius=1 / lam, random_state=seed).accuracy(Xt, yt)
            )
            bst.append(
                bst14_train(X, y, loss, eps, delta, passes=5, batch_size=50,
                            radius=1 / lam, random_state=seed).accuracy(Xt, yt)
            )
        assert np.mean(ours) >= np.mean(scs)
        assert np.mean(ours) >= np.mean(bst)


class TestEpochNoiseBatching:
    """The per-epoch blocked noise draws reproduce the per-step sequence."""

    def test_buffer_serves_per_step_sequence(self):
        from repro.baselines.common import EpochNoiseBuffer

        def draw_block(n, rng):
            return rng.normal(0.0, 1.3, size=(n, 5))

        buffered = EpochNoiseBuffer(draw_block, steps_per_epoch=8)
        rng = np.random.default_rng(3)
        served = np.stack([buffered.next(rng) for _ in range(20)])  # 2.5 epochs
        reference = np.random.default_rng(3).normal(0.0, 1.3, size=(24, 5))[:20]
        np.testing.assert_array_equal(served, reference)
        assert buffered.rows_served == 20

    def test_scs13_batched_draws_match_per_step_reference(self, medium_data):
        """scs13_train's epoch-blocked noise releases the same model as an
        explicitly per-step PSGD run on the same seed — pure and (eps,
        delta) variants (one Laplace-style draw or one Gaussian vector per
        update, drawn step by step from the identical stream)."""
        from repro.core.mechanisms import (
            GaussianMechanism,
            PrivacyParameters,
            SphericalLaplaceMechanism,
        )
        from repro.optim.projection import IdentityProjection
        from repro.optim.psgd import PSGD, PSGDConfig
        from repro.optim.schedules import InverseSqrtTSchedule

        X, y = medium_data
        for delta in (0.0, 1e-6):
            passes, batch_size = 2, 25
            result = scs13_train(
                X, y, LogisticLoss(), epsilon=1.0, delta=delta,
                passes=passes, batch_size=batch_size, random_state=17,
            )
            mech = SphericalLaplaceMechanism() if delta == 0.0 else GaussianMechanism()
            privacy = PrivacyParameters(1.0 / passes, delta / passes if delta else 0.0)

            def per_step_noise(t, dimension, rng):
                return mech.sample(dimension, 2.0 / batch_size, privacy, rng)

            config = PSGDConfig(
                schedule=InverseSqrtTSchedule(1.0), passes=passes,
                batch_size=batch_size, projection=IdentityProjection(),
            )
            reference = PSGD(
                LogisticLoss(), config, gradient_noise=per_step_noise
            ).run(X, y, random_state=np.random.default_rng(17))
            np.testing.assert_array_equal(result.model, reference.model)

    def test_bst14_noise_stream_is_independent_and_deterministic(self, medium_data):
        """BST14 noise rides its own spawned stream: the same seed always
        gives the same model, and the blocked draws serve exactly the
        sequence the dedicated stream would produce per step."""
        X, y = medium_data
        a = bst14_train(X, y, LogisticLoss(), epsilon=1.0, delta=1e-6,
                        passes=2, batch_size=20, random_state=31)
        b = bst14_train(X, y, LogisticLoss(), epsilon=1.0, delta=1e-6,
                        passes=2, batch_size=20, random_state=31)
        np.testing.assert_array_equal(a.model, b.model)
        assert a.noise_draws == b.noise_draws == 60  # 2 passes * ceil(600/20)


# -- the SCS13 and BST14 rules, pinned to the paper's formulas ----------------

#: name -> loss at lambda; both have L_phi = 1 (Section 2, Appendix B).
RULE_LOSSES = {
    "logistic": LogisticLoss,
    "huber": lambda lam: HuberSVMLoss(0.1, lam),
}
RULE_EPSILON = 0.7
RULE_M, RULE_D, RULE_R = 200, 5, 2.0


def drawn(rule, seed=5, count=3):
    """Three rows of ``rule``'s per-update noise, and a fresh generator
    on the same seed for the hand-written draw."""
    return rule.draw(count, RULE_D, np.random.default_rng(seed)), np.random.default_rng(seed)


class TestWhiteBoxRules:
    """``scs13_rule`` and ``bst14_rule`` against SCS13 and Algorithms 4
    and 5 as written in the paper: logistic and Huber losses, lambda zero
    or not, delta zero or not, one pass or four, batches of 1 or 10."""

    @pytest.mark.parametrize("name", sorted(RULE_LOSSES))
    @pytest.mark.parametrize("lam", [0.0, 0.01])
    @pytest.mark.parametrize("radius", [None, RULE_R])
    @pytest.mark.parametrize("delta", [0.0, 1e-6])
    @pytest.mark.parametrize("passes", [1, 4])
    @pytest.mark.parametrize("batch", [1, 10])
    def test_scs13_rule(self, name, lam, radius, delta, passes, batch):
        loss = RULE_LOSSES[name](lam)
        run = dict(passes=passes, batch_size=batch, radius=radius)
        if lam > 0.0 and radius is None:
            with pytest.raises(ValueError, match="hypothesis-space radius is required"):
                scs13_rule(loss, RULE_EPSILON, delta, **run)
            return
        rule = scs13_rule(loss, RULE_EPSILON, delta, **run)
        # The 1/sqrt(t) step, in the ball of R exactly when R is given.
        assert type(rule.schedule) is InverseSqrtTSchedule
        for t in range(1, 6):
            assert rule.schedule.rate(t) == 1.0 / math.sqrt(t)
        if radius is None:
            assert type(rule.projection) is IdentityProjection
        else:
            assert type(rule.projection) is L2BallProjection
            assert rule.projection.radius == radius
        assert rule.privacy == PrivacyParameters(RULE_EPSILON, delta)
        # Sensitivity 2L/b at the per-pass budget (eps/k, delta/k).
        lipschitz = 1.0 + (lam * radius if lam > 0.0 else 0.0)
        sensitivity = 2.0 * lipschitz / batch
        eps_pass, delta_pass = RULE_EPSILON / passes, delta / passes
        rows, rng = drawn(rule)
        if delta == 0.0:
            # Spherical Laplace: a uniform direction times Gamma(d, Delta/eps).
            scale = sensitivity / eps_pass
            expected = []
            for _ in range(3):
                direction = rng.standard_normal(RULE_D)
                direction /= np.linalg.norm(direction)
                expected.append(rng.gamma(RULE_D, scale) * direction)
        else:
            # Gaussian: sigma = Delta sqrt(2 ln(1.25/delta)) / eps per coordinate.
            scale = sensitivity * math.sqrt(2.0 * math.log(1.25 / delta_pass)) / eps_pass
            expected = rng.normal(0.0, scale, size=(3, RULE_D))
        assert rule.noise_scale == pytest.approx(scale, rel=1e-12)
        np.testing.assert_allclose(rows, expected, rtol=1e-12)

    @pytest.mark.parametrize("name", sorted(RULE_LOSSES))
    @pytest.mark.parametrize("lam", [0.0, 0.01])
    @pytest.mark.parametrize("delta", [0.0, 1e-6])
    @pytest.mark.parametrize("passes", [1, 4])
    @pytest.mark.parametrize("batch", [1, 10])
    def test_bst14_rule(self, name, lam, delta, passes, batch):
        loss = RULE_LOSSES[name](lam)
        run = dict(passes=passes, batch_size=batch, radius=RULE_R)
        if delta == 0.0:
            with pytest.raises(ValueError, match=r"\(eps, delta\)-DP only"):
                bst14_rule(loss, RULE_EPSILON, delta, RULE_M, RULE_D, **run)
            return
        rule = bst14_rule(loss, RULE_EPSILON, delta, RULE_M, RULE_D, **run)
        # Algorithm 4, line 5: T = ceil(k m / b) steps at delta1 = delta/T;
        # eps1 solves the composition equation, eps2 = min(1, m eps1 / 2)
        # and sigma^2 = 2 ln(1.25/delta1) / eps2^2.
        steps = math.ceil(passes * RULE_M / batch)
        delta1 = delta / steps
        eps1 = solve_composition_epsilon(RULE_EPSILON, steps, delta1)
        assert steps * eps1 * math.expm1(eps1) + math.sqrt(
            2 * steps * math.log(1 / delta1)
        ) * eps1 == pytest.approx(RULE_EPSILON, rel=1e-9)
        eps2 = min(1.0, RULE_M * eps1 / 2.0)
        sigma = math.sqrt(2.0 * math.log(1.25 / delta1)) / eps2
        # Line 11: z ~ N(0, sigma^2 iota I_d) with iota = 2L/b.
        lipschitz = 1.0 + lam * RULE_R
        iota = 2.0 * lipschitz / batch
        assert rule.noise_scale == pytest.approx(sigma * math.sqrt(iota), rel=1e-12)
        rows, rng = drawn(rule)
        np.testing.assert_allclose(
            rows, rng.normal(0.0, sigma * math.sqrt(iota), size=(3, RULE_D)), rtol=1e-12
        )
        if lam == 0.0:
            # Algorithm 4: 2R / (G sqrt(t)), G = sqrt(d sigma^2 + b^2 L^2).
            assert type(rule.schedule) is BST14Schedule
            bound = math.sqrt(RULE_D * sigma**2 + batch**2 * lipschitz**2)
            expected = [2.0 * RULE_R / (bound * math.sqrt(t)) for t in range(1, 6)]
        else:
            # Algorithm 5: 1 / (gamma t), gamma = lambda.
            assert type(rule.schedule) is InverseTSchedule
            expected = [1.0 / (lam * t) for t in range(1, 6)]
        np.testing.assert_allclose(rule.schedule.rates(5), expected, rtol=1e-12)
        assert type(rule.projection) is L2BallProjection
        assert rule.projection.radius == RULE_R
        assert rule.privacy == PrivacyParameters(RULE_EPSILON, delta)


class TestWhiteBoxRefusals:
    """Each baseline refuses what its rule refuses, with the same words,
    in memory and inside the engine."""

    @staticmethod
    def session_and_data():
        X, y = make_binary_data(120, 5, seed=3)
        session = BismarckSession()
        session.load_table("t", X, y)
        return session, X, y

    @pytest.mark.parametrize("delta", [0.0, 1e-6])
    def test_scs13_refuses_an_unbounded_lipschitz_constant(self, delta):
        session, X, y = self.session_and_data()
        match = "SCS13 requires a finite Lipschitz constant"
        with pytest.raises(ValueError, match=match):
            scs13_train(X, y, LeastSquaresLoss(), 1.0, delta=delta, random_state=0)
        with pytest.raises(ValueError, match=match):
            session.run_scs13("t", LeastSquaresLoss(), 1.0, delta=delta, random_state=0)

    def test_bst14_refuses_pure_dp(self):
        session, X, y = self.session_and_data()
        match = r"BST14 provides \(eps, delta\)-DP only"
        with pytest.raises(ValueError, match=match):
            bst14_train(X, y, LogisticLoss(), 1.0, 0.0, random_state=0)
        with pytest.raises(ValueError, match=match):
            session.run_bst14("t", LogisticLoss(), 1.0, 0.0, random_state=0)
