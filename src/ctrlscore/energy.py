"""Minimum-energy control and reachable-ellipsoid diagnostics.

These computations give the scores their operational meaning.  With
``mu_1 >= ... >= mu_n > 0`` the top eigenvalues of the mixed Gramian and
``z_1, ..., z_n`` the matching eigenvectors:

* the minimum input energy driving the origin to a target
  ``x_f = sum_k a_k z_k`` in the top-n span is ``sum_k a_k^2 / mu_k``
  (equal to ``x_f^T W(p)^{-1} x_f`` when the Gramian is nonsingular and the
  selection covers the whole spectrum);
* the unit-energy reachable set meets that span in an ellipsoid with
  semi-axes ``sqrt(mu_k)`` along ``z_k``; its n-dimensional section volume is
  ``V_n * sqrt(mu_1 ... mu_n)`` with ``V_n`` the unit-ball volume.

Eigenpairs and their state-space basis come from the model's methods, at the
infinite horizon.  A finite horizon is one diagnostic on Gramian families:
:func:`projection_operator_check` verifies that the discretized input-space
operator ``L^T W_n^+ L`` behaves as the orthogonal projection it should be,
against the exact ``W(p, T)`` of
:func:`~ctrlscore.linsys.finite_horizon_gramian`.  Only that check needs
the matrix exponential, so it imports ``scipy.linalg.expm`` itself and
importing this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexMismatch, RankDeficient, SingularGramian, TargetOutsideSpan
from .linsys import NodeGramianFamily, positive_floor
from .simplex import weight_vector

#: Relative tolerance for the target-in-span residual.
SPAN_TOL = 1e-8


@dataclass(frozen=True)
class EnergyQuery:
    """A minimum-energy question: target state and selection rank."""

    target: np.ndarray
    rank: int

    def __post_init__(self):
        target = np.asarray(self.target, dtype=float)
        if target.ndim != 1 or not np.all(np.isfinite(target)):
            raise IndexMismatch("target must be a finite 1-d vector")
        if self.rank < 1:
            raise IndexMismatch("rank must be >= 1")
        target.flags.writeable = False
        object.__setattr__(self, "target", target)


@dataclass(frozen=True)
class ReachabilityEllipsoid:
    """Top-n section of the unit-energy reachable set.

    ``axis_eigenvalues`` are the selected Gramian eigenvalues (the squared
    semi-axes, kept so membership uses the exact same arithmetic as
    :func:`min_energy`).
    """

    semi_axes: np.ndarray
    axis_directions: np.ndarray
    log_volume: float
    axis_eigenvalues: np.ndarray

    def energy(self, target) -> float:
        """``sum_k <x, z_k>^2 / mu_k`` -- the membership quadratic form."""
        coeffs = self.axis_directions.T @ np.asarray(target, dtype=float)
        return float(np.sum(coeffs**2 / self.axis_eigenvalues))

    def contains(self, target) -> bool:
        return self.energy(target) <= 1.0


def unit_ball_log_volume(dim: int) -> float:
    """log of the volume of the unit ball in ``dim`` dimensions (via log-Gamma)."""
    return 0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim + 1.0)


def min_energy(model, weights, query: EnergyQuery) -> float:
    """Minimum input energy to reach ``query.target``.

    The target must lie in the span of the top ``query.rank`` eigenvectors
    (projection residual below ``SPAN_TOL * ||x_f||``) and those eigenvalues
    must be positive.  The zero target costs zero energy.

    Raises
    ------
    SingularGramian
        If a selected eigenvalue is not positive.
    TargetOutsideSpan
        If the target sticks out of the selected span.
    """
    target = np.asarray(query.target, dtype=float)
    norm = float(np.linalg.norm(target))
    if norm == 0.0:
        return 0.0
    pairs = model.eigenpairs(weights, query.rank)
    mu, basis = pairs.values, model.state_basis(pairs)
    if target.size != basis.shape[0]:
        raise IndexMismatch(
            f"target has dimension {target.size}, state space has {basis.shape[0]}"
        )
    if not pairs.positive:
        raise SingularGramian(
            f"eigenvalue {query.rank} of the Gramian is not positive "
            f"({mu[-1]:.3e})"
        )
    coeffs = basis.T @ target
    residual = float(np.linalg.norm(target - basis @ coeffs))
    if residual > SPAN_TOL * norm:
        raise TargetOutsideSpan(
            f"target leaves the top-{query.rank} span "
            f"(residual {residual:.3e} > {SPAN_TOL:g} * ||x_f||)"
        )
    return float(np.sum(coeffs**2 / mu))


def reachable_ellipsoid(model, weights, count: int) -> ReachabilityEllipsoid:
    """Ellipsoid section of the reachable set spanned by the top eigenmodes.

    ``log_volume`` is ``log V_n + 0.5 * sum_k log mu_k``; the volumetric score
    objective equals ``-2 * (log_volume - log V_n)`` by construction.

    Raises
    ------
    RankDeficient
        If fewer than ``count`` eigenvalues are positive.
    """
    pairs = model.eigenpairs(weights, count)
    if not pairs.positive:
        raise RankDeficient(
            f"Gramian has fewer than {count} positive eigenvalues"
        )
    mu, basis = pairs.values, model.state_basis(pairs)
    log_volume = unit_ball_log_volume(count) + 0.5 * float(np.log(mu).sum())
    semi_axes = np.sqrt(mu)
    semi_axes.flags.writeable = False
    mu = mu.copy()
    mu.flags.writeable = False
    return ReachabilityEllipsoid(semi_axes, basis, log_volume, mu)


def average_min_energy_monte_carlo(model, weights, count: int,
                                   num_samples: int = 100_000,
                                   seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo mean (and standard error) of the minimum energy over
    uniformly random unit-sphere targets in the top-``count`` span.

    The closed-form expectation is ``(1/n) * sum_k 1/mu_k``; this sampler
    exists to verify that identity independently.
    """
    pairs = model.eigenpairs(weights, count)
    if not pairs.positive:
        raise SingularGramian("selected eigenvalues must be positive")
    mu = pairs.values
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((num_samples, count))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    energies = (normals**2 / mu).sum(axis=1)
    mean = float(energies.mean())
    std_error = float(energies.std(ddof=1) / math.sqrt(num_samples))
    return mean, std_error


@dataclass(frozen=True)
class ProjectionDiagnostics:
    """Residuals of the discretized input-space projection operator."""

    idempotency_residual: float
    symmetry_residual: float
    energy_discrete: float
    energy_exact: float
    energy_relative_error: float
    gramian_rank: int
    time_steps: int
    horizon: float


def projection_operator_check(family: NodeGramianFamily, weights, count: int,
                              horizon: float, time_steps: int,
                              target=None) -> ProjectionDiagnostics:
    """Check that ``P = L^T W_n^+ L`` acts as an orthogonal projection.

    The reachability operator over ``[0, T]`` is discretized on a midpoint
    grid: block ``j`` of ``L`` is ``exp((T - t_j) A) B sqrt(dt)`` with
    ``t_j = (j + 1/2) dt``, so ``L L^T`` is the midpoint-rule Gramian (the
    midpoint rule keeps the quadrature error at O(dt^2), which the energy
    comparison below needs).  The Frobenius norms of ``P^2 - P`` and
    ``P^T - P`` are evaluated through the factorization
    ``||L^T M L||_F^2 = tr(M W M^T W)``, never forming the large operator.

    The discretized minimum energy ``x_f^T W_n^+ x_f`` is compared against
    the exact ``x_f^T W(p, T)^{-1} x_f`` (full-rank selection) or its
    eigenvalue form.  This is a diagnostic: rank deficiency is reported, not
    raised.
    """
    if time_steps < 1:
        raise IndexMismatch("time_steps must be >= 1")
    if not (horizon > 0 and math.isfinite(horizon)):
        raise IndexMismatch("projection check needs a finite positive horizon")
    a = family.system.dynamics
    n_dim = family.system.n_dim
    p = weight_vector(weights, family.node_count)

    # Input matrix: node directions scaled by sqrt(p_i).
    basis = family.basis if family.basis is not None else np.eye(n_dim)
    columns = np.array([basis[:, idx - 1] for idx in family.node_indices]).T
    input_matrix = columns * np.sqrt(p)

    from scipy.linalg import expm

    dt = horizon / time_steps
    stepper = expm(a * dt)
    block = expm(a * (0.5 * dt))  # exp((T - t_{N-1}) A), t_{N-1} = T - dt/2
    discrete = np.zeros((n_dim, n_dim))
    for _ in range(time_steps):
        scaled = block @ input_matrix
        discrete += scaled @ scaled.T * dt
        block = stepper @ block
    discrete = 0.5 * (discrete + discrete.T)

    eigvals, eigvecs = np.linalg.eigh(discrete)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    floor = positive_floor(max(eigvals[0], 0.0))
    rank = int(np.sum(eigvals > floor))
    used = min(count, rank) if rank else 0

    if used:
        sel_vals = eigvals[:used]
        sel_vecs = eigvecs[:, :used]
        pseudo = (sel_vecs / sel_vals) @ sel_vecs.T
    else:
        pseudo = np.zeros((n_dim, n_dim))

    def factored_norm(middle: np.ndarray) -> float:
        return float(math.sqrt(abs(np.trace(middle @ discrete @ middle.T @ discrete))))

    idem = factored_norm(pseudo @ discrete @ pseudo - pseudo)
    sym = factored_norm(pseudo.T - pseudo)

    if target is None:
        target = np.ones(n_dim) / math.sqrt(n_dim)
    target = np.asarray(target, dtype=float)
    energy_discrete = float(target @ pseudo @ target)

    exact = family.eigenpairs(p, used, horizon) if used else None
    if exact is not None and exact.positive:
        coeffs = family.state_basis(exact).T @ target
        energy_exact = float(np.sum(coeffs**2 / exact.values))
        rel = abs(energy_discrete - energy_exact) / max(abs(energy_exact), 1e-300)
    else:
        energy_exact = math.inf
        rel = math.inf

    return ProjectionDiagnostics(
        idempotency_residual=idem,
        symmetry_residual=sym,
        energy_discrete=energy_discrete,
        energy_exact=energy_exact,
        energy_relative_error=rel,
        gramian_rank=rank,
        time_steps=time_steps,
        horizon=horizon,
    )
