"""Projection operators for constrained SGD (equation (7) of the paper).

The paper's sensitivity argument carries over to constrained optimization
because projection onto a convex set is *non-expansive*:
``||Pi(u) - Pi(v)|| <= ||u - v||``. Every projector here is exercised by a
property test asserting exactly that inequality.
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Optional, Sequence

import numpy as np

from repro.utils.validation import check_positive


class Projection(abc.ABC):
    """Projection onto a closed convex set C in R^d."""

    @abc.abstractmethod
    def __call__(self, w: np.ndarray) -> np.ndarray:
        """Return ``argmin_{v in C} ||v - w||``."""

    @abc.abstractmethod
    def contains(self, w: np.ndarray, atol: float = 1e-9) -> bool:
        """True when ``w`` already lies in C (up to ``atol``)."""

    @property
    @abc.abstractmethod
    def radius(self) -> float:
        """Radius of the smallest origin-centred ball containing C.

        The convergence theorems (Theorems 10 and 12) are stated in terms
        of this value ``R``.
        """


class IdentityProjection(Projection):
    """No constraint: W = R^d (unconstrained optimization)."""

    def __call__(self, w: np.ndarray) -> np.ndarray:
        return w

    def contains(self, w: np.ndarray, atol: float = 1e-9) -> bool:
        return True

    @property
    def radius(self) -> float:
        return float("inf")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "IdentityProjection()"


class L2BallProjection(Projection):
    """Projection onto ``{w : ||w|| <= R}``.

    This is the constraint the paper uses for strongly convex experiments
    (``R = 1/lambda``, Section 4.3).
    """

    def __init__(self, radius: float):
        self._radius = check_positive(radius, "radius")

    def __call__(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        # np.linalg.norm's own computation (ravel, dot, sqrt) without its
        # per-call dispatch: the same float, bit for bit.
        flat = w.ravel("K")
        norm = math.sqrt(flat.dot(flat))
        if norm <= self._radius:
            return w
        return w * (self._radius / norm)

    def contains(self, w: np.ndarray, atol: float = 1e-9) -> bool:
        return float(np.linalg.norm(w)) <= self._radius + atol

    @property
    def radius(self) -> float:
        return self._radius

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"L2BallProjection(radius={self._radius!r})"


class BoxProjection(Projection):
    """Projection onto the axis-aligned box ``[low, high]^d``.

    Not used by the paper's experiments but a common constraint in
    practice; included to demonstrate that the bolt-on algorithm works with
    any convex constraint (the analysis only needs non-expansiveness).
    """

    def __init__(self, low: float, high: float):
        if not (np.isfinite(low) and np.isfinite(high)) or low >= high:
            raise ValueError(f"box bounds must satisfy low < high, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def __call__(self, w: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(w, dtype=np.float64), self.low, self.high)

    def contains(self, w: np.ndarray, atol: float = 1e-9) -> bool:
        w = np.asarray(w, dtype=np.float64)
        return bool(np.all(w >= self.low - atol) and np.all(w <= self.high + atol))

    @property
    def radius(self) -> float:
        # Largest norm in the box is attained at a corner; per-dimension the
        # farthest coordinate from 0 is max(|low|, |high|). The dimension is
        # unknown here, so report the per-coordinate bound; callers needing
        # the exact d-dependent radius scale by sqrt(d).
        return max(abs(self.low), abs(self.high))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BoxProjection(low={self.low!r}, high={self.high!r})"


def rows_projector(
    projections: Sequence[Projection],
) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """Compile per-model projections into one row-wise matrix projector.

    The fused multi-model engines step a ``(K, d)`` weight matrix and must
    then project each row onto its own constraint set. Returns ``None``
    when every projection is the identity (the common unconstrained case —
    callers skip the call entirely); a vectorized norm-and-rescale when
    every constraint is an L2 ball (or identity); and a plain row loop
    otherwise. The vectorized path is :class:`L2BallProjection` row by
    row, bit for bit: each row's norm is the square root of its own dot
    product (one ``np.matmul`` over ``(K, 1, d) @ (K, d, 1)`` runs the
    1-D dot per row), a ball row is left alone exactly when
    ``norm <= radius`` and is otherwise rescaled by ``radius / norm``,
    and identity rows are never touched. The projector mutates its
    argument in place and returns it. A NaN norm counts as outside
    (``~(norms <= radii)``), so a NaN ball row is rescaled as its own
    projection would rescale it.
    """
    projections = list(projections)
    if all(isinstance(p, IdentityProjection) for p in projections):
        return None
    if all(isinstance(p, (IdentityProjection, L2BallProjection)) for p in projections):
        balls = np.array([isinstance(p, L2BallProjection) for p in projections])
        radii = np.array([p.radius for p in projections], dtype=np.float64)
        every_ball = bool(balls.all())

        def project_l2(W: np.ndarray) -> np.ndarray:
            rows = np.ascontiguousarray(W)
            norms = np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]
            np.sqrt(norms, out=norms)
            outside = np.less_equal(norms, radii)
            np.logical_not(outside, out=outside)
            if not every_ball:
                outside &= balls
            if outside.any():
                W[outside] *= (radii[outside] / norms[outside])[:, None]
            return W

        return project_l2

    def project_rows(W: np.ndarray) -> np.ndarray:
        for i, projection in enumerate(projections):
            W[i] = projection(W[i])
        return W

    return project_rows
