"""The objective's single-point, batched and energy paths agree.

All three read the model's eigen methods, with different numerics on purpose
(single points assemble ``W(p)`` with ``tensordot`` and use ``eigh``, batches
use ``einsum`` and ``eigvalsh``), so values may differ in the last bits but
must agree to 1e-12 and be infinite together.  The feasibility check reads
the single-point path, so its verdict and ``mu_n`` at the witness equal the
objective's bit for bit.  Dense points keep every
weight at least 0.05 and the selected spectrum within a condition number of
1e3, where two LAPACK eigensolvers differ by about ``1e3 * eps`` relative.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_stable_matrix

import ctrlscore as cs
from ctrlscore import ObjectiveKind
from ctrlscore.scores import _Objective

KINDS = (ObjectiveKind.VCS, ObjectiveKind.AECS)


def _simplex_points(rng, count: int, size: int, floor: float,
                    zeros: bool) -> np.ndarray:
    points = rng.dirichlet(np.ones(size), count)
    points = (1.0 - floor * size) * points + floor
    if zeros and size > 1:
        points[rng.random((count, size)) < 0.3] = 0.0
        points[points.sum(axis=1) == 0.0, 0] = 1.0
    return points / points.sum(axis=1, keepdims=True)


def _check_agreement(model, points: np.ndarray) -> None:
    report = cs.check_feasibility(model)
    witness = (report.witness if report.feasible
               else cs.central_point(np.ones(model.node_count)))
    pairs = model.eigenpairs(witness)
    assert report.feasible == pairs.positive and (
        not report.feasible or report.nth_eigenvalue == pairs.values[-1])
    for kind in KINDS:
        objective = _Objective(kind, model)
        batch = objective.batch_values(points)
        for j, point in enumerate(points):
            single = objective(point)
            pairs = model.eigenpairs(point)
            mu_n, mu_1 = pairs.values[-1], pairs.values[0]
            if 0.0 < mu_n <= 1e-6 * max(1.0, mu_1):
                continue  # at the positivity floor either side may win
            assert math.isinf(batch[j]) == math.isinf(single.value)
            if not single.feasible:
                continue
            assert batch[j] == pytest.approx(single.value, rel=1e-12, abs=1e-12)
            ellipsoid = cs.reachable_ellipsoid(model, point)
            np.testing.assert_array_equal(ellipsoid.axis_eigenvalues, pairs.values)


@pytest.mark.parametrize("full", [False, True], ids=["count<K", "count=K"])
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_table_paths_agree(full, modes, nodes, seed):
    if not full and modes == 1:
        modes = 2
    rng = np.random.default_rng(seed)
    table = rng.uniform(0.05, 3.0, (modes, nodes))
    table[rng.random((modes, nodes)) < 0.4] = 0.0
    count = modes if full else int(rng.integers(1, modes))
    model = cs.SpectralModel(tuple(range(1, nodes + 1)), table, count)
    _check_agreement(model, _simplex_points(rng, 12, nodes, 0.0, True))


@pytest.mark.parametrize("full", [False, True], ids=["count<K", "count=K"])
@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**31 - 1))
def test_dense_paths_agree(full, dim, seed):
    rng = np.random.default_rng(seed)
    system = cs.check_stability(random_stable_matrix(rng, dim, margin=1.0))
    count = dim if full else int(rng.integers(1, dim))
    family = cs.gramian_family(system, range(1, dim + 1), count)
    points = _simplex_points(rng, 12, dim, 0.05, False)
    spread = [family.eigenpairs(p).values for p in points]
    points = points[[mu[0] <= 1e3 * mu[-1] for mu in spread]]
    _check_agreement(family, points)
