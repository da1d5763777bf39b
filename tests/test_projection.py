"""Tests for the projection operators, centred on non-expansiveness."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim.projection import (
    BoxProjection,
    IdentityProjection,
    L2BallProjection,
    rows_projector,
)

vec = st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3).map(np.asarray)


class TestIdentityProjection:
    def test_passthrough(self):
        w = np.array([3.0, -4.0])
        np.testing.assert_array_equal(IdentityProjection()(w), w)

    def test_contains_everything(self):
        assert IdentityProjection().contains(np.array([1e9, -1e9]))

    def test_infinite_radius(self):
        assert IdentityProjection().radius == float("inf")


class TestL2BallProjection:
    def test_inside_untouched(self):
        proj = L2BallProjection(5.0)
        w = np.array([3.0, 0.0])
        np.testing.assert_array_equal(proj(w), w)

    def test_outside_scaled_to_boundary(self):
        proj = L2BallProjection(5.0)
        w = np.array([30.0, 40.0])  # norm 50
        result = proj(w)
        assert np.linalg.norm(result) == pytest.approx(5.0)
        # Direction preserved
        np.testing.assert_allclose(result / 5.0, w / 50.0)

    def test_contains(self):
        proj = L2BallProjection(1.0)
        assert proj.contains(np.array([0.6, 0.8]))
        assert not proj.contains(np.array([1.0, 1.0]))

    def test_radius_property(self):
        assert L2BallProjection(2.5).radius == 2.5

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            L2BallProjection(0.0)

    @given(u=vec, v=vec, radius=st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_nonexpansive(self, u, v, radius):
        # ||Pi(u) - Pi(v)|| <= ||u - v|| — the property the paper's
        # constrained-optimization extension rests on (Section 3.2.3).
        proj = L2BallProjection(radius)
        assert np.linalg.norm(proj(u) - proj(v)) <= np.linalg.norm(u - v) + 1e-9

    @given(w=vec, radius=st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, w, radius):
        proj = L2BallProjection(radius)
        once = proj(w)
        np.testing.assert_allclose(proj(once), once, atol=1e-12)

    @given(
        data=st.data(),
        size=st.integers(1, 64),
        stride=st.sampled_from([1, 2, 3]),
        magnitude=st.floats(-150.0, 150.0),
        ratio=st.floats(0.01, 100.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_linalg_norm_rescale_bitwise(
        self, data, size, stride, magnitude, ratio
    ):
        # The projection's dot-based norm must be np.linalg.norm's float,
        # so the result is ``w * (R / np.linalg.norm(w))`` bit for bit —
        # for vectors from 1e-150 to 1e150, contiguous or strided views.
        base = np.asarray(
            data.draw(
                st.lists(st.floats(-1.0, 1.0), min_size=size * stride,
                         max_size=size * stride)
            )
        ) * 10.0 ** magnitude
        w = base[::stride]
        reference_norm = np.linalg.norm(w)
        radius = max(float(reference_norm) * ratio, 1e-300)
        expected = w if reference_norm <= radius else w * (radius / reference_norm)
        got = L2BallProjection(radius)(w)
        assert got.dtype == np.float64 and got.shape == w.shape
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


class TestRowsProjector:
    """The compiled ``(K, d)`` projector of the fused engines: each row
    must come out exactly as that row's own projection would leave it."""

    @staticmethod
    def project_both(W, projections):
        expected = np.stack([p(row.copy()) for p, row in zip(projections, W)])
        projector = rows_projector(projections)
        got = W.copy() if projector is None else projector(W.copy())
        return got, expected

    @given(
        data=st.data(),
        rows=st.integers(1, 12),
        size=st.integers(1, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_each_row_is_its_own_projection_bitwise(self, data, rows, size):
        # Row norms from 1e-150 to 1e150, rows holding inf or NaN, radii
        # on both sides of the norm, and identity rows mixed in.
        W = np.empty((rows, size))
        projections = []
        for k in range(rows):
            magnitude = data.draw(st.floats(-150.0, 150.0))
            W[k] = np.asarray(
                data.draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))
            ) * 10.0 ** magnitude
            special = data.draw(st.sampled_from([None, None, np.inf, -np.inf, np.nan]))
            if special is not None:
                W[k, data.draw(st.integers(0, size - 1))] = special
            if data.draw(st.booleans()):
                ratio = data.draw(st.floats(0.01, 100.0))
                projections.append(
                    L2BallProjection(max(10.0 ** magnitude * ratio, 1e-300))
                )
            else:
                projections.append(IdentityProjection())
        with np.errstate(invalid="ignore"):
            got, expected = self.project_both(W, projections)
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))

    def test_nan_row_in_a_ball_goes_nan_as_alone(self):
        # A NaN norm fails ``norm <= R``, so L2BallProjection rescales the
        # row by R / NaN; the fused path must not leave it unchanged.
        W = np.array([[np.nan, 1.0], [3.0, 4.0], [np.nan, 2.0]])
        projections = [L2BallProjection(1.0), L2BallProjection(1.0), IdentityProjection()]
        with np.errstate(invalid="ignore"):
            got, expected = self.project_both(W, projections)
        assert np.isnan(got[0]).all()
        np.testing.assert_array_equal(got[2], W[2])  # identity stays identity
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))

    def test_nan_row_goes_nan_when_every_row_is_a_ball(self):
        # With no identity row the projector skips its ball mask; a NaN
        # row must still count as outside and be rescaled.
        W = np.array([[np.nan, 1.0], [3.0, 4.0], [0.1, np.nan]])
        projections = [L2BallProjection(1.0), L2BallProjection(1.0), L2BallProjection(5.0)]
        with np.errstate(invalid="ignore"):
            got, expected = self.project_both(W, projections)
        assert np.isnan(got[0]).all() and np.isnan(got[2]).all()
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))

    def test_all_identity_compiles_to_nothing(self):
        assert rows_projector([IdentityProjection()] * 3) is None


class TestBoxProjection:
    def test_clipping(self):
        proj = BoxProjection(-1.0, 1.0)
        np.testing.assert_array_equal(
            proj(np.array([2.0, -3.0, 0.5])), np.array([1.0, -1.0, 0.5])
        )

    def test_contains(self):
        proj = BoxProjection(0.0, 1.0)
        assert proj.contains(np.array([0.5, 1.0]))
        assert not proj.contains(np.array([-0.1, 0.5]))

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            BoxProjection(1.0, 1.0)

    @given(u=vec, v=vec)
    @settings(max_examples=100, deadline=None)
    def test_nonexpansive(self, u, v):
        proj = BoxProjection(-2.0, 3.0)
        assert np.linalg.norm(proj(u) - proj(v)) <= np.linalg.norm(u - v) + 1e-9

    @given(w=vec)
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, w):
        proj = BoxProjection(-1.5, 1.5)
        once = proj(w)
        np.testing.assert_allclose(proj(once), once)
