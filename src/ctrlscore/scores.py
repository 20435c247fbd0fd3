"""Score objectives: values, analytic gradients and Hessians, closed forms.

Both scores act on the ``n`` largest eigenvalues ``mu_1 >= ... >= mu_n`` of
the mixed Gramian ``W(p)``, with ``n`` the model's ``score_order``:

* volumetric score objective:      f(p) = -log(mu_1 * ... * mu_n)
* average-energy score objective:  g(p) = 1/mu_1 + ... + 1/mu_n

Minimizing f maximizes the volume of the reachable-ellipsoid section spanned
by the top eigenmodes; minimizing g minimizes the average energy needed to
reach unit-sphere targets in that span.

The eigenvalues and their derivative rows ``rows[k, i] = d mu_k / d p_i``
come from the model's methods (``SpectralModel`` in :mod:`ctrlscore.spectral`,
``NodeGramianFamily`` in :mod:`ctrlscore.linsys`).  Each score is
``sum_k phi(mu_k)`` with ``phi'(mu) = -1 / s(mu)``, defined once in
:data:`SCORES`, so value and gradient are one formula for every model and score:

    d/dp_i sum_k phi(mu_k)  =  - sum_k  rows[k, i] / s(mu_k)

An evaluation takes both derivatives from ``model.derivatives(pairs,
score)``, which reads ``s`` and ``divided`` from the score's entry in
:data:`SCORES`: the gradient, formed where the rows are, and the Hessian as
None or a zero-argument callable giving ``(matvec, diagonal)``.  A Gramian
family divides its fresh rows in place and sums them; a table's gradient is
one product of a coefficient vector with its nonzeros, or with a dense
table itself where all rows are selected, so it copies no rows.  The
evaluation keeps the callable (``curvature``), the solver's Newton step
calls it, and
:func:`evaluate` builds every model's matrix from it the same way, one
``matvec`` column per node.  How the Hessian is made is the model's
business: a Gramian family scored on its whole spectrum forms the m x m
matrix in its one pass over the node Gramians, and a table's callable
builds a product that is never formed.
Points where the model's rule (its ``positive`` method) finds the n-th
eigenvalue not positive evaluate to ``+inf`` with no gradient; both scores
grow without bound towards them, a barrier inside the line searches.  So
do points where the value or the gradient is not finite in double
precision, with no floating-point warning.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from collections import namedtuple
from collections.abc import Callable
from enum import Enum

import numpy as np

from .errors import CapsBind, NotDiagonal
from .linsys import Eigenpairs
from .simplex import SimplexWeights, validate_caps
from .spectral import SpectralModel, _diagonal_entries


class ObjectiveKind(Enum):
    """Which score objective is being optimized."""

    VCS = "vcs"
    AECS = "aecs"


Score = namedtuple("Score", "phi s divided relative power")
#: Each score kind once: objective ``sum_k phi(mu_k)``, ``phi'(mu) = -1 / s(mu)``,
#: ``divided(a, b)``, the divided difference of ``phi'``, both read by
#: ``model.derivatives``, ``relative``:
#: whether stationarity is measured on ``grad / value``, and ``power``: the
#: exponent ``a`` of the multiplicative step ``p_i <- p_i (-grad_i)^a``,
#: renormalized, that opens a full-spectrum descent (1 for VCS, D-optimal
#: design; 1/2 for AECS, A-optimal design).
#: Scaling every Gramian by ``c`` shifts VCS by ``-n log c`` and divides AECS
#: by ``c``, so ``grad f`` and ``grad g / g`` are the scale-free gradients.
SCORES = {
    ObjectiveKind.VCS: Score(lambda mu: -np.log(mu), lambda mu: mu,
                             lambda a, b: 1.0 / (a * b), False, 1.0),
    ObjectiveKind.AECS: Score(lambda mu: 1.0 / mu, lambda mu: mu**2,
                              lambda a, b: (a + b) / (a * b) ** 2, True, 0.5),
}


def scale_free_gap(kind: ObjectiveKind, value: float, other: float) -> float:
    """How far ``value`` lies above ``other`` on the scale-free objective of
    :data:`SCORES`: the difference of two VCS values, the log of the ratio
    of two AECS values.  No unit of the model moves it, as scaling every
    Gramian shifts VCS and divides AECS by a constant."""
    if SCORES[kind].relative:
        return math.log(value / other)
    return value - other


@dataclass(frozen=True)
class ObjectiveEvaluation:
    """Objective value with derivatives at one weight vector.

    ``value`` is ``+inf`` (and ``gradient`` is None) when the n-th eigenvalue
    is not positive, or the value or gradient is not finite.  ``curvature``
    is the Hessian callable of ``model.derivatives``, which gives
    ``(matvec, diagonal)``, or None where the model gives no Hessian.
    ``hessian`` is the m x m matrix, which only :func:`evaluate` builds.
    ``near_degenerate`` flags a (near-)tie between eigenvalues n and n+1,
    where the selection gradient is only approximate.
    """

    value: float
    gradient: np.ndarray | None
    hessian: np.ndarray | None
    near_degenerate: bool = False
    curvature: Callable | None = field(default=None, repr=False, compare=False)

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.value)


def _unchecked():
    """An ``np.errstate`` under which a value or derivative that leaves
    double precision, where ``mu_n`` is too small beside ``mu_1``, comes out
    ``inf`` or ``nan`` without a warning; the callers test for it."""
    return np.errstate(over="ignore", divide="ignore", invalid="ignore")


def _quiet_hessian(curvature: Callable) -> Callable:
    """``curvature`` that forms its Hessian under :func:`_unchecked`: the
    AECS divided differences ``(a + b) / (a b)^2`` leave double precision
    before the value does."""
    def hessian():
        with _unchecked():
            return curvature()
    return hessian


class _Objective:
    """Reusable evaluator of one score objective on one model."""

    def __init__(self, kind: ObjectiveKind, model):
        self.score = SCORES[kind]
        self.model = model
        self.node_count = model.node_count

    def __call__(self, weights) -> ObjectiveEvaluation:
        return self.at(self.model.eigenpairs(weights))

    def at(self, pairs: Eigenpairs) -> ObjectiveEvaluation:
        """Value, gradient and Hessian callable from the selected eigenpairs,
        both derivatives read from ``model.derivatives``."""
        if pairs.positive:
            with _unchecked():
                grad, curvature = self.model.derivatives(pairs, self.score)
                value = float(self.score.phi(pairs.values).sum())
            if math.isfinite(value) and np.isfinite(grad).all():
                return ObjectiveEvaluation(value, grad, None, pairs.near_degenerate,
                                           curvature and _quiet_hessian(curvature))
        return ObjectiveEvaluation(math.inf, None, None, pairs.near_degenerate)

    def value(self, weights) -> float:
        """The value alone at ``weights``, with the bits of :meth:`__call__`'s;
        ``inf`` where it overflows."""
        pairs = self.model.eigenpairs(weights)
        if not pairs.positive:
            return math.inf
        with _unchecked():
            return float(self.score.phi(pairs.values).sum())

    def stationarity_gradient(self, evaluation: ObjectiveEvaluation) -> np.ndarray:
        """The scale-free gradient the solver stops on: ``grad f`` for VCS
        and ``grad g / g`` for AECS (see :data:`SCORES`)."""
        if self.score.relative:
            return evaluation.gradient / evaluation.value
        return evaluation.gradient

    def batch_values(self, batch: np.ndarray) -> np.ndarray:
        """Objective value at every row of ``batch`` (+inf where infeasible)."""
        batch = np.asarray(batch, dtype=float)
        top = self.model.eigenvalues(batch)[:, : self.model.score_order]
        feasible = self.model.positive(top)
        out = np.full(batch.shape[0], math.inf)
        out[feasible] = self.score.phi(top[feasible]).sum(axis=1)
        return out


def evaluate(kind: ObjectiveKind, model, weights) -> ObjectiveEvaluation:
    """Evaluate a score objective with derivatives at one weight vector.

    ``model`` is a :class:`SpectralModel` or :class:`NodeGramianFamily`,
    scored on its top ``model.score_order`` eigenvalues.  The Hessian is
    exact for spectral models and, for matrix families, available when the
    selection covers the whole spectrum, also where eigenvalues ``n`` and
    ``n + 1`` (nearly) tie.  It comes from the divided
    differences of ``phi'`` in :data:`SCORES`: ``1 / (mu_k mu_l)`` for VCS
    and ``(mu_k + mu_l) / (mu_k mu_l)^2`` for AECS.  It is built from the
    evaluation's ``curvature``, one ``matvec`` column per node, and is then
    symmetrized.
    """
    evaluation = _Objective(kind, model)(weights)
    if evaluation.curvature is None:
        return evaluation
    matvec, _ = evaluation.curvature()
    with _unchecked():
        hess = np.column_stack([matvec(unit) for unit in np.eye(model.node_count)])
    return dataclasses.replace(evaluation, hessian=0.5 * (hess + hess.T))


def closed_form_optimum(kind: ObjectiveKind, model: SpectralModel,
                        caps=None) -> SimplexWeights:
    """Optimal weights of a diagonal spectral model, in closed form.

    Requires one nonzero table row per node (after dropping all-zero rows)
    and a score order equal to the node count.  The volumetric optimum is
    uniform.  For the average-energy score, node i's eigenvalue is
    ``d_i * p_i`` so the objective is ``sum_i (1/d_i) / p_i``, minimized on
    the simplex at ``p_i`` proportional to ``1/sqrt(d_i)``.

    Raises
    ------
    NotDiagonal
        If some column has zero or several nonzero entries, or two columns
        share a row, or the score order differs from the node count.
    CapsBind
        If the closed-form optimum violates a cap (fall back to the solver).
    """
    if not isinstance(model, SpectralModel):
        raise NotDiagonal("closed form requires a spectral model")
    m = model.node_count
    if model.score_order != m:
        raise NotDiagonal(
            f"closed form requires score order == node count, got {model.score_order} != {m}"
        )
    diag_coeffs = _diagonal_entries(model)
    caps_arr = validate_caps(caps, m)
    if kind is ObjectiveKind.VCS:
        values = np.full(m, 1.0 / m)
    else:
        roots = 1.0 / np.sqrt(diag_coeffs)
        values = roots / roots.sum()
    if np.any(values > caps_arr):
        raise CapsBind("closed-form optimum violates a cap; use the solver")
    return SimplexWeights(values, caps_arr)
