"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: Gramians by
adaptive quadrature of the defining integral, projections by enumerating
active sets of the small QP, derivatives by central differences.
"""

from __future__ import annotations

import importlib.util
import itertools
import pathlib
import sys
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

import ctrlscore as cs
from ctrlscore import spectral
from ctrlscore.optimizer import _descend, _starting_points
from ctrlscore.scores import _Objective


def perfbench_gen():
    """The benchmark's input generator, ``perfbench/gen.py``, as a module."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses look their module up here
    spec.loader.exec_module(gen)
    return gen


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_stable_matrix(rng, dim: int, margin: float = 0.5) -> np.ndarray:
    """Random dense matrix shifted to spectral abscissa <= -margin."""
    raw = rng.standard_normal((dim, dim))
    shift = float(np.max(np.linalg.eigvals(raw).real)) + margin
    return raw - shift * np.eye(dim)


def random_stable_family(rng, dim: int, margin: float = 0.5) -> cs.NodeGramianFamily:
    system = cs.check_stability(random_stable_matrix(rng, dim, margin))
    return cs.gramian_family(system, range(1, dim + 1))


def dominant_matrix(rng, dim: int) -> np.ndarray:
    """Dense dynamics like the benchmark's: Gaussian coupling of scale
    ``1/sqrt(d)``, each row made strictly dominant by its diagonal."""
    dynamics = rng.normal(0.0, 1.0 / np.sqrt(dim), (dim, dim))
    np.fill_diagonal(dynamics, 0.0)
    dynamics -= np.diag(np.abs(dynamics).sum(axis=1) + rng.uniform(0.5, 1.5, dim))
    return dynamics


def random_diagonal_model(rng, size: int, low: float = 0.3,
                          high: float = 3.0) -> cs.SpectralModel:
    """Diagonal spectral table with entries bounded away from 0."""
    table = np.diag(rng.uniform(low, high, size))
    return cs.SpectralModel(tuple(range(1, size + 1)), table, size)


def eigenvector_family(basis, decay) -> cs.NodeGramianFamily:
    """The Gramians of symmetric dynamics ``A = Q diag(d) Q^T`` with node i
    entering along ``q_i``: ``q_i q_i^T / (2 |d_i|)``, which commute."""
    grams = np.einsum("ji,ki->ijk", basis, basis) / (2.0 * np.abs(decay))[:, None, None]
    return cs.NodeGramianFamily(tuple(range(1, len(decay) + 1)), grams)


def random_commuting_family(rng, dim: int) -> cs.NodeGramianFamily:
    """Genuine Gramian family with commuting members
    (:func:`eigenvector_family` of a random orthogonal basis)."""
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return eigenvector_family(basis, -rng.uniform(0.5, 3.0, dim))


#: A dense file of three decoupled states, Gramians diag(1/2, 1/4, 1/6),
#: with its own ``n`` for ``build(score_order)`` to override.
DENSE_DIAGONAL_FILE = ("ctrlscore-model v1\nkind dense_lti\nnodes 1 2 3\nn 1\n"
                       "matrix 3\n-1 0 0\n0 -2 0\n0 0 -3\n")

#: Every way to give a model its score order: ``order -> model``, each with
#: three nodes and three modes, mode 1 the largest at equal weights.
ORDER_BUILDERS = {
    "heat": lambda order: cs.heat_dirichlet_model([1, 2, 3], order),
    "table": lambda order: cs.SpectralModel((1, 2, 3), np.diag([3.0, 2.0, 1.0]), order),
    "family": lambda order: cs.NodeGramianFamily(
        (1, 2, 3), [np.diag(row) for row in np.diag([3.0, 2.0, 1.0])], score_order=order),
    "dense_file": lambda order: cs.parse_model_text(DENSE_DIAGONAL_FILE).build(order),
}


def table_model(table, order=None, *, sparse: bool) -> cs.SpectralModel:
    """A model of ``table`` that reads its nonzeros alone, or with
    ``sparse`` False its whole table, whatever its share of nonzeros."""
    with mock.patch.object(spectral, "_SPARSE_SHARE", 1.0 if sparse else -1.0):
        model = cs.SpectralModel(range(1, np.shape(table)[1] + 1), table, order)
    assert isinstance(model.eigen_table, spectral.Nonzeros) == sparse
    return model


def interior_point(rng, size: int, floor: float = 0.08) -> np.ndarray:
    """Random simplex point with every coordinate >= roughly ``floor``."""
    sample = rng.dirichlet(np.ones(size))
    mixed = (1.0 - floor * size) * sample + floor
    return mixed / mixed.sum()


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def gramian_by_quadrature(a_matrix: np.ndarray, direction: np.ndarray,
                          upper: float = 40.0, tol: float = 1e-13) -> np.ndarray:
    """Adaptive quadrature of the defining Gramian integral."""
    rank_one = np.outer(direction, direction)

    def integrand(t):
        phi = expm(t * a_matrix)
        return phi @ rank_one @ phi.T

    value, _ = quad_vec(integrand, 0.0, upper, epsabs=tol, epsrel=tol)
    return value


def project_by_active_set(point: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Tiny-QP projection oracle: enumerate all lower/upper active sets.

    A pattern is kept only when its point is feasible and the KKT multiplier
    signs hold: some shift ``tau`` has ``point_i - tau = x_i`` on free
    coordinates, ``point_i <= tau`` at zero and ``point_i - caps_i >= tau`` at
    the cap.  Comparing squared distances alone cannot pick the projection:
    two patterns can differ by 5e-9 entrywise while their distances agree to
    the last bit.
    """
    m = point.size
    slack = 1e-12 * max(1.0, float(np.max(np.abs(point))))
    best, best_dist = None, np.inf
    for pattern in itertools.product((0, 1, 2), repeat=m):  # 0 free, 1 at 0, 2 at cap
        fixed = sum(caps[i] for i in range(m) if pattern[i] == 2)
        free = [i for i in range(m) if pattern[i] == 0]
        # Bounds on the shift from the zero and capped coordinates.
        low = max((point[i] for i in range(m) if pattern[i] == 1), default=-np.inf)
        high = min((point[i] - caps[i] for i in range(m) if pattern[i] == 2), default=np.inf)
        x = np.zeros(m)
        for i in range(m):
            if pattern[i] == 2:
                x[i] = caps[i]
        if free:
            tau = (sum(point[i] for i in free) + fixed - 1.0) / len(free)
            for i in free:
                x[i] = point[i] - tau
            low, high = max(low, tau), min(high, tau)
        if low > high + slack:
            continue
        if abs(x.sum() - 1.0) > 1e-9:
            continue
        if np.any(x < -1e-12) or np.any(x > caps + 1e-12):
            continue
        dist = float(np.sum((x - point) ** 2))
        if dist < best_dist - 1e-15:
            best, best_dist = np.clip(x, 0.0, caps), dist
    assert best is not None, "oracle found no feasible active set"
    return best


def central_gradient(func, point: np.ndarray, h: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(point)
    for i in range(point.size):
        bump = np.zeros_like(point)
        bump[i] = h
        grad[i] = (func(point + bump) - func(point - bump)) / (2.0 * h)
    return grad


def central_hessian(grad_func, point: np.ndarray, h: float = 1e-6) -> np.ndarray:
    m = point.size
    hess = np.zeros((m, m))
    for j in range(m):
        bump = np.zeros(m)
        bump[j] = h
        hess[:, j] = (grad_func(point + bump) - grad_func(point - bump)) / (2.0 * h)
    return 0.5 * (hess + hess.T)


def serial_descents(kind, model, seed: int) -> list:
    """The solver's own descents from eight seeded starts, run one after
    another.  A certified model gets one start from ``solve``; this replays
    the starts an uncertified one would get, to check that they agree."""
    objective = _Objective(kind, model)
    caps = np.ones(model.node_count)
    witness = cs.check_feasibility(model).witness
    return [_descend(objective, start, caps)
            for start in _starting_points(8, caps, seed, witness)]
