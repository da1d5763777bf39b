"""Loss functions with the analytic constants the sensitivity theory needs.

The paper's analysis (Section 2) is parameterized by three constants of the
per-example loss ``l(w, (x, y))`` over the hypothesis space ``W``:

* ``L`` — Lipschitz constant, a tight upper bound on ``||grad l||``;
* ``beta`` — smoothness, a tight upper bound on ``||Hessian l||``;
* ``gamma`` — strong convexity, the largest value with ``H - gamma*I >= 0``.

Each loss subclass documents and implements its own derivation, matching
the worked examples in the paper (L2-regularized logistic regression in
Section 2, Huber SVM in Appendix B). All losses assume the standard
preprocessing ``||x|| <= 1`` and, when regularized, a hypothesis bound
``||w|| <= R``.

Labels follow the paper's convention ``y in {-1, +1}``.

Two execution paths
-------------------

Every loss exposes the same contract twice over:

* the **scalar path** — ``value(w, x, y)`` / ``gradient(w, x, y)`` on one
  example at a time, the reference semantics the privacy proof reasons
  about;
* the **batch path** — ``batch_value(w, X, y)`` / ``batch_gradient(w, X, y)``
  on an ``(n, d)`` block, the form the vectorized PSGD engine and the
  chunked RDBMS executor consume.

:class:`Loss` is the minimal base: subclasses only have to provide the
scalar pair, and the defaulted batch methods fall back to a row loop so a
third-party loss keeps working on the fast engines (just without the
matrix speedup). :class:`MarginLoss` is the margin-form specialization all
built-in losses use — ``l(w,(x,y)) = phi(y <w,x>) + (lam/2)||w||^2`` — and
overrides the batch pair with true NumPy matrix arithmetic. The two paths
agree to floating-point rounding (a mean of per-row gradients versus one
``X.T @ coef`` contraction), which the vectorized-equivalence test suite
pins down at ``atol=1e-12``.

The multi-model pair (``batch_value_multi`` / ``batch_gradient_multi``)
evaluates K models in one call. :class:`MarginLoss` stacks the models'
matrix-vector products into one ``np.matmul`` over a ``(K, d, 1)``
operand, which issues the single-model product once per row from C — so
row ``k`` is *bitwise* the single-model batch method of model ``k``, and
fused training releases the same floats as K separate runs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class LossProperties:
    """The (L, beta, gamma) triple of Definition 1 for a concrete loss.

    ``lipschitz`` or ``smoothness`` may be ``inf`` when no finite bound
    exists under the stated assumptions (callers that need a finite value
    raise a clear error instead of silently under-reporting sensitivity).
    """

    lipschitz: float
    smoothness: float
    strong_convexity: float

    @property
    def is_strongly_convex(self) -> bool:
        return self.strong_convexity > 0.0


class Loss(abc.ABC):
    """A convex per-example loss ``l(w, (x, y))`` — the scalar contract.

    Subclasses must provide the per-example :meth:`value` and
    :meth:`gradient`. The batch methods default to a row loop over the
    scalar pair, so a loss that only defines the scalar methods still runs
    on the vectorized PSGD engine and the chunked RDBMS executor; losses
    that can express themselves in matrix form should subclass
    :class:`MarginLoss` (or override the batch pair directly) to get the
    actual speedup.
    """

    #: L2 regularization coefficient (lambda in the paper); 0 when absent.
    regularization: float

    def __init__(self, regularization: float = 0.0):
        self.regularization = check_non_negative(regularization, "regularization")

    # -- scalar contract -------------------------------------------------------

    @abc.abstractmethod
    def value(self, w: np.ndarray, x: np.ndarray, y: float) -> float:
        """Per-example loss ``l(w, (x, y))`` (including any regularizer)."""

    @abc.abstractmethod
    def gradient(self, w: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
        """Per-example gradient ``grad_w l(w, (x, y))``."""

    # -- batch contract (scalar fallback) --------------------------------------

    def batch_value(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        """Mean loss over a batch (the empirical risk ``L_S(w)`` when the
        batch is the whole training set).

        Default: a row loop over :meth:`value`. Matrix-form losses override
        this with one vectorized expression.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        total = 0.0
        for row in range(X.shape[0]):
            total += self.value(w, X[row], float(y[row]))
        return total / X.shape[0]

    def batch_gradient(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Mean gradient over a batch — the update direction of mini-batch
        SGD (Section 3.2.3).

        Default: accumulate :meth:`gradient` row by row and divide by the
        batch size, exactly the semantics the scalar reference engine uses.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        total = np.zeros_like(np.asarray(w, dtype=np.float64))
        for row in range(X.shape[0]):
            total += self.gradient(w, X[row], float(y[row]))
        return total / X.shape[0]

    # -- multi-model batch contract (scalar fallback) --------------------------

    def batch_value_multi(
        self,
        W: np.ndarray,
        X: np.ndarray,
        y: np.ndarray,
        regularization: np.ndarray | None = None,
    ) -> np.ndarray:
        """Mean loss of ``K`` models at once; returns a ``(K,)`` vector.

        ``W`` is a ``(K, d)`` weight matrix. ``X`` is either one shared
        ``(n, d)`` batch (all models read the same rows — grid search, OvR)
        or a stacked ``(K, n, d)`` tensor of per-model batches (disjoint
        partitions). ``y`` broadcasts the same way: ``(n,)`` shared or
        ``(K, n)`` per-model. ``regularization`` optionally overrides this
        loss's lambda per model (the fused engine trains a heterogeneous
        regularization grid through one representative loss instance).

        Default: a row loop over models through :meth:`batch_value` —
        identical semantics for scalar-only losses, no speedup.
        :class:`MarginLoss` overrides the pair with stacked ``np.matmul``
        calls whose row ``k`` is bitwise the single-model method.
        """
        W, X, Y, losses = self._multi_args(W, X, y, regularization)
        return np.array(
            [
                losses[k].batch_value(W[k], X[k], Y[k])
                for k in range(W.shape[0])
            ],
            dtype=np.float64,
        )

    def batch_gradient_multi(
        self,
        W: np.ndarray,
        X: np.ndarray,
        y: np.ndarray,
        regularization: np.ndarray | None = None,
    ) -> np.ndarray:
        """Mean gradients of ``K`` models at once; returns ``(K, d)``.

        Shapes and semantics as in :meth:`batch_value_multi`. Default: a
        row loop over models through :meth:`batch_gradient` (the fallback
        that keeps scalar-only losses working on the fused engine).
        """
        W, X, Y, losses = self._multi_args(W, X, y, regularization)
        return np.stack(
            [
                losses[k].batch_gradient(W[k], X[k], Y[k])
                for k in range(W.shape[0])
            ]
        )

    def _multi_args(
        self,
        W: np.ndarray,
        X: np.ndarray,
        y: np.ndarray,
        regularization: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list["Loss"]]:
        """Canonicalize multi-model arguments for the row-loop fallback.

        Returns ``(W (K,d), X (K,n,d) view, Y (K,n) view, losses)`` where
        ``losses[k]`` is this loss re-regularized for model ``k`` (or
        ``self`` when no per-model override was given). Broadcasting uses
        views, so the shared-``X`` case does not copy the batch K times.
        """
        W = np.asarray(W, dtype=np.float64)
        if W.ndim != 2:
            raise ValueError(f"W must be a (K, d) matrix, got shape {W.shape}")
        K, d = W.shape
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 2:
            X = np.broadcast_to(X, (K,) + X.shape)
        elif X.ndim != 3 or X.shape[0] != K:
            raise ValueError(
                f"X must be (n, d) or (K, n, d) with K={K}, got shape {X.shape}"
            )
        y = np.asarray(y, dtype=np.float64)
        if y.ndim == 1:
            y = np.broadcast_to(y, (K,) + y.shape)
        elif y.ndim != 2 or y.shape[0] != K:
            raise ValueError(
                f"y must be (n,) or (K, n) with K={K}, got shape {y.shape}"
            )
        if regularization is None:
            losses: list[Loss] = [self] * K
        else:
            lam = np.asarray(regularization, dtype=np.float64)
            if lam.shape != (K,):
                raise ValueError(
                    f"regularization must have shape ({K},), got {lam.shape}"
                )
            losses = [
                self if lam[k] == self.regularization
                else self.with_regularization(float(lam[k]))
                for k in range(K)
            ]
        return W, X, y, losses

    # -- analytic constants ---------------------------------------------------

    def properties(self, radius: float | None = None) -> LossProperties:
        """Derive the ``(L, beta, gamma)`` triple of Definition 1.

        Only losses that know their analytic constants (notably
        :class:`MarginLoss` subclasses) can answer; a scalar-only loss is
        trainable but not privately releasable, and says so loudly instead
        of under-reporting sensitivity.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not expose the (L, beta, gamma) "
            "constants the sensitivity calculation needs; implement "
            "properties() (or subclass MarginLoss) before using this loss "
            "with the private training APIs"
        )

    # -- prediction ------------------------------------------------------------

    def predict(self, w: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Sign predictions in {-1, +1} (zero margin counts as +1)."""
        scores = np.asarray(X, dtype=np.float64) @ np.asarray(w, dtype=np.float64)
        return np.where(scores >= 0.0, 1.0, -1.0)

    def with_regularization(self, regularization: float) -> "Loss":
        """Return a copy of this loss with a different lambda."""
        clone = type(self).__new__(type(self))
        clone.__dict__.update(self.__dict__)
        Loss.__init__(clone, regularization)
        return clone

    def fusion_key(self) -> tuple | None:
        """Hashable identity of this loss *up to regularization*.

        Two losses with equal keys compute the same per-example loss apart
        from their L2 term, so the fused multi-model engine may evaluate
        them through one representative instance with a per-model lambda
        vector (see :meth:`batch_gradient_multi`). Returns ``None`` when
        the loss carries state the key cannot capture — such losses are
        still trainable, just never grouped.
        """
        try:
            items = tuple(
                sorted(
                    (name, value)
                    for name, value in vars(self).items()
                    if name != "regularization"
                )
            )
            hash(items)
        except TypeError:
            return None
        return (type(self), items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(regularization={self.regularization!r})"


def fusion_groups(
    losses: "list[Loss] | tuple[Loss, ...]",
) -> list[tuple["Loss", np.ndarray, np.ndarray]]:
    """Partition model indices into fusable gradient groups.

    Returns ``(representative, indices, lambdas)`` triples: all models in
    a group share a :meth:`Loss.fusion_key`, so one
    ``representative.batch_gradient_multi(W[indices], ...,
    regularization=lambdas)`` call evaluates the whole group. Losses whose
    key is ``None`` form singleton groups (served by their own multi
    method — the row-loop fallback for scalar-only losses).
    :class:`repro.optim.psgd.FusedStep`, the one update both fused
    engines take, plans its groups with this.
    """
    keyed: dict = {}
    singletons: list[list[int]] = []
    for index, loss in enumerate(losses):
        key = loss.fusion_key()
        if key is None:
            singletons.append([index])
        else:
            keyed.setdefault(key, []).append(index)
    groups = []
    for indices in list(keyed.values()) + singletons:
        representative = losses[indices[0]]
        lambdas = np.array(
            [losses[k].regularization for k in indices], dtype=np.float64
        )
        groups.append((representative, np.asarray(indices, dtype=np.int64), lambdas))
    return groups


class MarginLoss(Loss):
    """A loss in the paper's *margin form*.

    Every loss the paper analyses can be written
    ``l(w, (x, y)) = phi(y <w, x>) + (lam/2) ||w||^2``, which is also the
    form required by Shamir's convergence theorems (Section 3.2.4). The
    gradient is then ``y phi'(z) x + lam w`` with ``z = y <w, x>``, and a
    whole mini-batch collapses to one matrix contraction
    ``X.T @ (phi'(z) * y) / n + lam w`` — the vectorized batch path.
    """

    # -- scalar margin form -------------------------------------------------

    @abc.abstractmethod
    def margin_loss(self, z: np.ndarray) -> np.ndarray:
        """``phi(z)`` evaluated element-wise at margins ``z = y <w, x>``."""

    @abc.abstractmethod
    def margin_derivative(self, z: np.ndarray) -> np.ndarray:
        """``phi'(z)`` evaluated element-wise."""

    @abc.abstractmethod
    def margin_lipschitz(self) -> float:
        """Tight bound on ``|phi'|`` (the un-regularized Lipschitz constant)."""

    @abc.abstractmethod
    def margin_smoothness(self) -> float:
        """Tight bound on ``|phi''|`` (the un-regularized smoothness)."""

    # -- scalar contract ------------------------------------------------------

    def value(self, w: np.ndarray, x: np.ndarray, y: float) -> float:
        """Per-example loss ``phi(y <w, x>) + (lam/2)||w||^2``."""
        z = float(y) * float(np.dot(w, x))
        reg = 0.5 * self.regularization * float(np.dot(w, w))
        return float(self.margin_loss(np.asarray(z))) + reg

    def gradient(self, w: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
        """Per-example gradient ``y phi'(z) x + lam w``."""
        z = float(y) * float(np.dot(w, x))
        coef = float(self.margin_derivative(np.asarray(z))) * float(y)
        return coef * np.asarray(x, dtype=np.float64) + self.regularization * w

    # -- vectorized batch contract --------------------------------------------

    def batch_value(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        z = y * (X @ w)
        reg = 0.5 * self.regularization * float(np.dot(w, w))
        return float(np.mean(self.margin_loss(z))) + reg

    def batch_gradient(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        z = y * (X @ w)
        coef = self.margin_derivative(z) * y
        return (X.T @ coef) / X.shape[0] + self.regularization * w

    # -- vectorized multi-model batch contract ---------------------------------

    def batch_value_multi(
        self,
        W: np.ndarray,
        X: np.ndarray,
        y: np.ndarray,
        regularization: np.ndarray | None = None,
    ) -> np.ndarray:
        """All K mean losses; row ``k`` is bitwise :meth:`batch_value` of
        model ``k`` (the L2 term's ``w.w`` is a per-row dot, as there)."""
        W, X, _, Z = self._multi_margin_terms(W, X, y)
        lam = self._lambda_vector(W.shape[0], regularization)
        squares = np.matmul(W[:, None, :], W[:, :, None])[:, 0, 0]
        return np.mean(self.margin_loss(Z), axis=1) + 0.5 * lam * squares

    def batch_gradient_multi(
        self,
        W: np.ndarray,
        X: np.ndarray,
        y: np.ndarray,
        regularization: np.ndarray | None = None,
    ) -> np.ndarray:
        """All K mean gradients in one call.

        With margins ``Z = Y * (X w_k)`` (shape ``(K, n)``) the stacked
        gradient is ``X^T (phi'(Z) * Y) / n + lam * W``. Both products are
        one ``np.matmul`` over a ``(K, ., 1)`` operand, which runs the
        single-model matrix-vector product once per model — for a shared
        ``(n, d)`` batch and a per-model ``(K, n, d)`` stack alike — so
        row ``k`` is bitwise :meth:`batch_gradient` of model ``k`` at
        lambda ``regularization[k]``.

        Each elementwise step writes into an array this call allocated,
        keeping the single-model operands and their order: ``phi'(Z) *
        Y`` lands in the margin matrix, whose ``(K, n)`` layout is what
        the second product reads, and ``/ n`` and ``+ lam W`` land in that
        product's fresh result, which is returned. The derivative's own
        result is only read, so a ``margin_derivative`` may return its
        argument or an array it keeps.
        """
        W, X, y, Z = self._multi_margin_terms(W, X, y)
        lam = self._lambda_vector(W.shape[0], regularization)
        coef = np.multiply(self.margin_derivative(Z), y, out=Z)
        sums = np.matmul(X.swapaxes(-1, -2), coef[:, :, None])[:, :, 0]
        sums /= Z.shape[1]
        sums += lam[:, None] * W
        return sums

    def _multi_margin_terms(
        self, W: np.ndarray, X: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Shared shape handling: returns ``(W, X, y, Z)``.

        ``Z`` is the ``(K, n)`` signed-margin matrix ``y_i <w_k, x_i>``,
        computed as the single-model ``X @ w_k`` per row (``W`` is made
        C-contiguous so each row is the unit-stride vector that call
        sees), then multiplied by the labels in place; ``X`` may be one
        shared ``(n, d)`` batch or a ``(K, n, d)`` per-model stack, and
        ``y`` shared ``(n,)`` or per-model ``(K, n)`` labels.
        """
        W = np.ascontiguousarray(W, dtype=np.float64)
        if W.ndim != 2:
            raise ValueError(f"W must be a (K, d) matrix, got shape {W.shape}")
        K = W.shape[0]
        X = np.asarray(X, dtype=np.float64)
        if not (X.ndim == 2 or (X.ndim == 3 and X.shape[0] == K)):
            raise ValueError(
                f"X must be (n, d) or (K, n, d) with K={K}, got shape {X.shape}"
            )
        Z = np.matmul(X, W[:, :, None])[:, :, 0]
        y = np.asarray(y, dtype=np.float64)
        if y.shape != Z.shape[1:] and y.shape != Z.shape:
            raise ValueError(
                f"y must be (n,) or (K, n) matching Z {Z.shape}, got {y.shape}"
            )
        return W, X, y, np.multiply(y, Z, out=Z)

    def _lambda_vector(self, K: int, regularization: np.ndarray | None) -> np.ndarray:
        if regularization is None:
            return np.full(K, self.regularization, dtype=np.float64)
        lam = np.asarray(regularization, dtype=np.float64)
        if lam.shape != (K,):
            raise ValueError(f"regularization must have shape ({K},), got {lam.shape}")
        return lam

    # -- analytic constants ---------------------------------------------------

    def properties(self, radius: float | None = None) -> LossProperties:
        """Derive ``(L, beta, gamma)`` under ``||x|| <= 1`` and, when the
        loss is regularized, ``||w|| <= radius``.

        Mirrors the paper's Section 2 derivation: with regularization
        ``lam > 0`` and ``||w|| <= R`` we get ``L = L_phi + lam R``,
        ``beta = beta_phi + lam``, ``gamma = lam``; without regularization
        ``L = L_phi``, ``beta = beta_phi``, ``gamma = 0``.
        """
        l_phi = self.margin_lipschitz()
        b_phi = self.margin_smoothness()
        if self.regularization == 0.0:
            return LossProperties(lipschitz=l_phi, smoothness=b_phi, strong_convexity=0.0)
        if radius is None:
            raise ValueError(
                "a hypothesis-space radius is required to bound the Lipschitz "
                "constant of a regularized loss (the paper rescales so that "
                "||w|| <= R; pass radius=R, conventionally R = 1/lambda)"
            )
        check_positive(radius, "radius")
        return LossProperties(
            lipschitz=l_phi + self.regularization * radius,
            smoothness=b_phi + self.regularization,
            strong_convexity=self.regularization,
        )


class LogisticLoss(MarginLoss):
    """Logistic loss ``ln(1 + exp(-y <w, x>))`` with optional L2 term.

    Equation (1) of the paper. ``|phi'(z)| = 1/(1+e^z) <= 1`` and
    ``|phi''(z)| = sigma(z)(1-sigma(z)) <= 1/4``; the paper uses the looser
    ``beta_phi = 1`` in its Section 2 example, but the tight ``1/4`` bound
    is valid and yields slightly larger admissible step sizes. We keep the
    paper's constant by default so sensitivity values match the text, and
    expose the tight constant via ``tight_smoothness``.
    """

    def __init__(self, regularization: float = 0.0, tight_smoothness: bool = False):
        super().__init__(regularization)
        self.tight_smoothness = bool(tight_smoothness)

    def margin_loss(self, z: np.ndarray) -> np.ndarray:
        # log(1 + e^{-z}) computed stably via logaddexp(0, -z).
        return np.logaddexp(0.0, -np.asarray(z, dtype=np.float64))

    def margin_derivative(self, z: np.ndarray) -> np.ndarray:
        # phi'(z) = -1 / (1 + e^{z}), computed stably from one exp:
        # e = e^{-|z|} <= 1, so z >= 0 gives -e / (1 + e) and z < 0 gives
        # -1 / (1 + e) — the two branches of the textbook stable form,
        # bit for bit, without masked copies. Negating where(z >= 0, e, 1)
        # in place is exactly where(z >= 0, -e, -1), and 1 + e lands in
        # e's own buffer (e + 1 is 1 + e, bit for bit).
        z = np.asarray(z, dtype=np.float64)
        e = np.exp(-np.abs(z))
        out = np.where(z >= 0, e, 1.0)
        np.negative(out, out=out)
        e += 1.0
        out /= e
        return out

    def margin_lipschitz(self) -> float:
        return 1.0

    def margin_smoothness(self) -> float:
        return 0.25 if self.tight_smoothness else 1.0


class HuberSVMLoss(MarginLoss):
    """Huber-smoothed hinge loss (Appendix B of the paper).

    With ``z = y <w, x>`` and smoothing width ``h``::

        phi(z) = 0                       if z > 1 + h
               = (1 + h - z)^2 / (4h)    if |1 - z| <= h
               = 1 - z                   if z < 1 - h

    ``|phi'| <= 1`` so ``L_phi = 1``; ``phi''`` is ``1/(2h)`` on the
    quadratic segment and 0 elsewhere, so ``beta_phi = 1/(2h)``.
    """

    def __init__(self, smoothing: float = 0.1, regularization: float = 0.0):
        super().__init__(regularization)
        self.smoothing = check_positive(smoothing, "smoothing")

    def margin_loss(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        h = self.smoothing
        quad = (1.0 + h - z) ** 2 / (4.0 * h)
        return np.where(z > 1.0 + h, 0.0, np.where(z < 1.0 - h, 1.0 - z, quad))

    def margin_derivative(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        h = self.smoothing
        quad = -(1.0 + h - z) / (2.0 * h)
        return np.where(z > 1.0 + h, 0.0, np.where(z < 1.0 - h, -1.0, quad))

    def margin_lipschitz(self) -> float:
        return 1.0

    def margin_smoothness(self) -> float:
        return 1.0 / (2.0 * self.smoothing)


class LeastSquaresLoss(MarginLoss):
    """Squared loss ``(1 - y <w, x>)^2 / 2`` in margin form.

    For binary labels in {-1, +1}, ``(y - <w,x>)^2/2 = (1 - z)^2/2`` with
    ``z = y <w, x>``. Over a bounded hypothesis space ``||w|| <= R`` (and
    ``||x|| <= 1``) the margin derivative ``z - 1`` is bounded by
    ``R + 1``, giving ``L_phi = R + 1`` — finite only once a radius is
    known, so this loss requires constrained optimization for privacy.
    """

    def __init__(self, regularization: float = 0.0, margin_bound: float | None = None):
        super().__init__(regularization)
        if margin_bound is not None:
            check_positive(margin_bound, "margin_bound")
        #: bound on |z| used for the Lipschitz constant; defaults to 1 + R
        #: resolved at ``properties()`` time when a radius is supplied.
        self.margin_bound = margin_bound

    def margin_loss(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        return 0.5 * (1.0 - z) ** 2

    def margin_derivative(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=np.float64) - 1.0

    def margin_lipschitz(self) -> float:
        if self.margin_bound is None:
            return float("inf")
        return self.margin_bound + 1.0

    def margin_smoothness(self) -> float:
        return 1.0

    def properties(self, radius: float | None = None) -> LossProperties:
        if self.margin_bound is None and radius is not None:
            resolved = LeastSquaresLoss(self.regularization, margin_bound=radius)
            return resolved.properties(radius)
        return super().properties(radius)


class HingeLoss(MarginLoss):
    """The (non-smooth) hinge loss, provided for reference only.

    The paper's analysis requires smoothness, which the hinge loss lacks
    (``beta = inf``); private training should use :class:`HuberSVMLoss`
    instead. Keeping the hinge loss lets the test-suite verify that the
    library *refuses* to compute a sensitivity for it.
    """

    def margin_loss(self, z: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, 1.0 - np.asarray(z, dtype=np.float64))

    def margin_derivative(self, z: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(z, dtype=np.float64) < 1.0, -1.0, 0.0)

    def margin_lipschitz(self) -> float:
        return 1.0

    def margin_smoothness(self) -> float:
        return float("inf")
