"""Minimum-energy control and reachable-ellipsoid diagnostics.

These computations give the scores their operational meaning.  With
``mu_1 >= ... >= mu_n > 0`` the top eigenvalues of the mixed Gramian, ``n``
the model's ``score_order``, and
``z_1, ..., z_n`` the matching eigenvectors:

* the minimum input energy driving the origin to a target
  ``x_f = sum_k a_k z_k`` in the top-n span is ``sum_k a_k^2 / mu_k``
  (equal to ``x_f^T W(p)^{-1} x_f`` when the Gramian is nonsingular and the
  selection covers the whole spectrum);
* the unit-energy reachable set meets that span in an ellipsoid with
  semi-axes ``sqrt(mu_k)`` along ``z_k``; its n-dimensional section volume is
  ``V_n * sqrt(mu_1 ... mu_n)`` with ``V_n`` the unit-ball volume.

Eigenpairs and their state-space basis come from the model's methods
(``eigenpairs`` and ``state_basis``), so the same code serves dense Gramian
families and eigenvalue tables.  A caller that needs both diagnostics at one
point decomposes ``W(p)`` once and hands the result to each as ``pairs``.
:func:`min_energy` is the one energy formula: whether a target lies in the
ellipsoid is ``min_energy(...) <= 1``.
Both functions raise :class:`~ctrlscore.errors.RankDeficient` where
``mu_n`` fails the model's rule (its ``positive`` method), with the reason
that :func:`~ctrlscore.spectral.check_feasibility` gives at the central
point, stated at the caller's weights.  This module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexMismatch, RankDeficient, TargetOutsideSpan
from .linsys import Eigenpairs
from .spectral import _shortfall

#: Relative tolerance for the target-in-span residual.
SPAN_TOL = 1e-8


@dataclass(frozen=True)
class ReachabilityEllipsoid:
    """Top-n section of the unit-energy reachable set: semi-axes
    ``sqrt(mu_k)`` along the columns of ``axis_directions``."""

    semi_axes: np.ndarray
    axis_directions: np.ndarray
    log_volume: float


def unit_ball_log_volume(dim: int) -> float:
    """log of the volume of the unit ball in ``dim`` dimensions (via log-Gamma)."""
    return 0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim + 1.0)


def min_energy(model, weights, target, *, pairs: Eigenpairs | None = None) -> float:
    """Minimum input energy to reach the state ``target``.

    The target must be a finite 1-d vector in the span of the top
    ``model.score_order`` eigenvectors (projection residual below
    ``SPAN_TOL * ||x_f||``) and those eigenvalues must be positive.  The zero
    target of the right length costs zero energy, whatever the eigenvalues.
    ``pairs`` is ``model.eigenpairs(weights)`` when the caller holds it
    already; it is computed when omitted.

    Raises
    ------
    IndexMismatch
        If the target is not a finite 1-d vector of the state dimension.
    RankDeficient
        If ``mu_n`` fails the model's rule.
    TargetOutsideSpan
        If the target sticks out of the selected span.
    """
    target = np.asarray(target, dtype=float)
    if target.ndim != 1 or not np.all(np.isfinite(target)):
        raise IndexMismatch("target must be a finite 1-d vector")
    if pairs is None:
        pairs = model.eigenpairs(weights)
    mu, basis = pairs.values, model.state_basis(pairs)
    if target.size != basis.shape[0]:
        raise IndexMismatch(
            f"target has dimension {target.size}, state space has {basis.shape[0]}"
        )
    norm = float(np.linalg.norm(target))
    if norm == 0.0:
        return 0.0
    if not pairs.positive:
        raise RankDeficient(_shortfall(model, pairs, central=False))
    coeffs = basis.T @ target
    residual = float(np.linalg.norm(target - basis @ coeffs))
    if residual > SPAN_TOL * norm:
        raise TargetOutsideSpan(
            f"target leaves the top-{model.score_order} span "
            f"(residual {residual:.3e} > {SPAN_TOL:g} * ||x_f||)"
        )
    return float(np.sum(coeffs**2 / mu))


def reachable_ellipsoid(model, weights, *,
                        pairs: Eigenpairs | None = None) -> ReachabilityEllipsoid:
    """Ellipsoid section of the reachable set spanned by the top
    ``n = model.score_order`` eigenmodes.

    ``log_volume`` is ``log V_n + 0.5 * sum_k log mu_k``; the volumetric score
    objective equals ``-2 * (log_volume - log V_n)`` by construction.
    ``pairs`` is ``model.eigenpairs(weights)`` when the caller holds it
    already; it is computed when omitted.

    Raises
    ------
    RankDeficient
        If ``mu_n`` fails the model's rule.
    """
    n = model.score_order
    if pairs is None:
        pairs = model.eigenpairs(weights)
    if not pairs.positive:
        raise RankDeficient(_shortfall(model, pairs, central=False))
    mu, basis = pairs.values, model.state_basis(pairs)
    log_volume = unit_ball_log_volume(n) + 0.5 * float(np.log(mu).sum())
    semi_axes = np.sqrt(mu)
    semi_axes.flags.writeable = False
    return ReachabilityEllipsoid(semi_axes, basis, log_volume)
