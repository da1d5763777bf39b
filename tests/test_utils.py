"""Tests for the shared utilities (rng, validation, linalg)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.linalg import clip_to_ball, l2_norm, normalize_rows, random_unit_vector
from repro.utils.rng import (
    as_generator,
    fixed_permutations,
    permutation_stream,
    spawn_generators,
    spawned_generator,
)
from repro.utils.validation import (
    check_binary_labels,
    check_in_range,
    check_matrix_labels,
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_positive_int,
    check_probability,
    check_unit_ball,
)


class TestRNG:
    def test_as_generator_seed_reproducible(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_as_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_as_generator_seed_sequence(self):
        seq = np.random.SeedSequence(7)
        gen = as_generator(seq)
        assert isinstance(gen, np.random.Generator)

    def test_spawn_independent_children(self):
        children = spawn_generators(0, 3)
        draws = [c.random(4).tolist() for c in children]
        assert draws[0] != draws[1] != draws[2]

    def test_spawn_reproducible_from_seed(self):
        a = [g.random(3).tolist() for g in spawn_generators(5, 2)]
        b = [g.random(3).tolist() for g in spawn_generators(5, 2)]
        assert a == b

    def test_spawn_negative_count(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_spawned_generator_is_that_spawned_child(self, seed):
        children = spawn_generators(seed, 3)
        for index, child in enumerate(children):
            alone = spawned_generator(seed, index)
            assert np.array_equal(alone.random(8), child.random(8))

    def test_permutation_stream_default_reuses(self):
        rng = np.random.default_rng(0)
        perms = list(permutation_stream(10, 3, rng))
        np.testing.assert_array_equal(perms[0], perms[1])
        np.testing.assert_array_equal(perms[0], perms[2])

    def test_permutation_stream_fresh(self):
        rng = np.random.default_rng(0)
        perms = list(permutation_stream(30, 3, rng, fresh_each_pass=True))
        assert not np.array_equal(perms[0], perms[1])

    def test_fixed_permutations_validation(self):
        with pytest.raises(ValueError, match="rearrangement"):
            list(fixed_permutations([0, 0, 1], 1))

    def test_fixed_permutations_replay(self):
        perms = list(fixed_permutations([2, 0, 1], 2))
        assert len(perms) == 2
        np.testing.assert_array_equal(perms[0], [2, 0, 1])


class TestLinalg:
    def test_l2_norm(self):
        assert l2_norm([3.0, 4.0]) == pytest.approx(5.0)

    def test_clip_inside(self):
        v = np.array([0.1, 0.2])
        np.testing.assert_array_equal(clip_to_ball(v, 1.0), v)

    def test_clip_outside(self):
        v = clip_to_ball(np.array([3.0, 4.0]), 1.0)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_clip_invalid_radius(self):
        with pytest.raises(ValueError):
            clip_to_ball(np.ones(2), 0.0)

    def test_normalize_rows(self):
        X = np.array([[3.0, 4.0], [0.3, 0.4]])
        out = normalize_rows(X)
        assert np.linalg.norm(out[0]) == pytest.approx(1.0)
        np.testing.assert_array_equal(out[1], X[1])

    @given(d=st.integers(1, 20))
    @settings(max_examples=20, deadline=None)
    def test_random_unit_vector_norm(self, d):
        v = random_unit_vector(d, np.random.default_rng(0))
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_random_unit_vector_invalid_dim(self):
        with pytest.raises(ValueError):
            random_unit_vector(0, np.random.default_rng(0))


class TestValidation:
    def test_check_positive(self):
        assert check_positive(1.5, "x") == 1.5
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="x"):
                check_positive(bad, "x")

    def test_check_non_negative(self):
        assert check_non_negative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            check_non_negative(-0.1, "x")

    def test_check_in_range(self):
        assert check_in_range(0.5, "x", 0.0, 1.0) == 0.5
        with pytest.raises(ValueError):
            check_in_range(1.5, "x", 0.0, 1.0)
        with pytest.raises(ValueError):
            check_in_range(0.0, "x", 0.0, 1.0, inclusive_low=False)

    def test_check_probability(self):
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ValueError):
            check_probability(1.01, "p")

    def test_check_positive_int(self):
        assert check_positive_int(3, "n") == 3
        with pytest.raises(ValueError):
            check_positive_int(0, "n")
        with pytest.raises(TypeError):
            check_positive_int(1.5, "n")
        with pytest.raises(TypeError):
            check_positive_int(True, "n")

    def test_check_non_negative_int(self):
        assert check_non_negative_int(0, "n") == 0
        with pytest.raises(ValueError):
            check_non_negative_int(-1, "n")

    def test_check_matrix_labels(self):
        X, y = check_matrix_labels([[1.0, 2.0]], [1.0])
        assert X.shape == (1, 2)
        with pytest.raises(ValueError, match="2-D"):
            check_matrix_labels([1.0, 2.0], [1.0])
        with pytest.raises(ValueError, match="disagree"):
            check_matrix_labels([[1.0]], [1.0, 2.0])
        with pytest.raises(ValueError, match="non-finite"):
            check_matrix_labels([[np.inf]], [1.0])

    def test_check_binary_labels(self):
        check_binary_labels(np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="\\{-1, \\+1\\}"):
            check_binary_labels(np.array([0.0, 1.0]))

    def test_check_unit_ball(self):
        check_unit_ball(np.array([[0.6, 0.8]]))
        with pytest.raises(ValueError, match="unit L2 ball"):
            check_unit_ball(np.array([[3.0, 4.0]]))
