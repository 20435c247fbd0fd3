import functools
import itertools
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (dominant_matrix, perfbench_gen, random_diagonal_model,
                      random_stable_family, random_stable_matrix, serial_descents)
from oracles import dense_table

import ctrlscore as cs
from ctrlscore import ObjectiveKind
from ctrlscore import linsys, optimizer
from ctrlscore.optimizer import _descend, _lattice
from ctrlscore.scores import _Objective
from ctrlscore.simplex import central_point
from ctrlscore.spectral import Nonzeros, _in_unit

HEAT_TABLE = {
    (1, 2, 3, 4): (0.10, 0.20, 0.30, 0.40),
    (2, 3, 4, 5): (0.14, 0.21, 0.28, 0.35),
    (3, 4, 5, 6): (0.16, 0.22, 0.27, 0.33),
}


@pytest.mark.parametrize("indices", sorted(HEAT_TABLE))
def test_solve_reproduces_reference_heat_rows(indices):
    result = cs.solve(ObjectiveKind.AECS, cs.heat_dirichlet_model(indices))
    # the reference rows are truncated (not rounded) at two decimals, so
    # compare in that convention; the exact optimum is k / sum(I)
    truncated = np.floor(result.weights.values * 100.0 + 1e-9) / 100.0
    np.testing.assert_allclose(truncated, HEAT_TABLE[indices], atol=1e-12)
    exact = np.asarray(indices, dtype=float) / sum(indices)
    assert np.max(np.abs(result.weights.values - exact)) <= 1e-8
    assert result.converged
    assert result.uniqueness_certified


def test_solve_matches_closed_form_per_coordinate():
    for indices in ([1, 2], [1, 2, 3, 5], [2, 3, 4, 6]):
        model = cs.heat_dirichlet_model(indices)
        result = cs.solve(ObjectiveKind.AECS, model)
        closed = cs.closed_form_optimum(ObjectiveKind.AECS, model)
        assert np.max(np.abs(result.weights.values - closed.values)) <= 1e-8


def test_solve_separable_vcs_uniform():
    family = cs.gramian_family(
        cs.check_stability(np.diag([-1.0, -2.0, -3.0])), [1, 2, 3]
    )
    result = cs.solve(ObjectiveKind.VCS, family)
    np.testing.assert_allclose(result.weights.values, 1.0 / 3.0, atol=1e-6)


def test_grid_oracle_examples():
    heat2 = cs.heat_dirichlet_model([1, 2])
    best, _ = cs.grid_oracle(ObjectiveKind.AECS, heat2, step=0.01)
    np.testing.assert_allclose(best.values, [0.33, 0.67], atol=1e-12)

    family = cs.gramian_family(cs.check_stability(np.diag([-1.0, -1.0])), [1, 2])
    best, _ = cs.grid_oracle(ObjectiveKind.VCS, family, step=0.05)
    np.testing.assert_allclose(best.values, [0.5, 0.5], atol=1e-12)

    heat4 = cs.heat_dirichlet_model([1, 2, 3, 4])
    best, _ = cs.grid_oracle(ObjectiveKind.AECS, heat4, step=0.02)
    assert np.max(np.abs(best.values - [0.1, 0.2, 0.3, 0.4])) <= 0.02 + 1e-12


def test_grid_oracle_too_large():
    model = random_diagonal_model(np.random.default_rng(0), 4)
    with pytest.raises(cs.TooLarge):
        cs.grid_oracle(ObjectiveKind.AECS, model, step=0.001)


def test_grid_oracle_respects_caps():
    model = cs.heat_dirichlet_model([1, 2])
    caps = [0.4, 1.0]
    best, _ = cs.grid_oracle(ObjectiveKind.AECS, model, step=0.01, caps=caps)
    assert best.values[0] <= 0.4 + 1e-12


def test_oracle_agreement_small_models(rng):
    for trial in range(3):
        model = random_diagonal_model(rng, 3)
        family = random_stable_family(rng, 2)
        for kind in (ObjectiveKind.VCS, ObjectiveKind.AECS):
            for target in (model, family):
                result = cs.solve(kind, target, seed=trial)
                best, best_value = cs.grid_oracle(kind, target, step=0.01)
                assert result.objective <= best_value + 1e-9
                assert np.max(np.abs(result.weights.values - best.values)) <= 0.01


def test_kkt_residual_at_closed_form_optimum():
    model = cs.heat_dirichlet_model([1, 2, 3, 4])
    closed = cs.closed_form_optimum(ObjectiveKind.AECS, model)
    assert cs.kkt_residual(ObjectiveKind.AECS, model, closed) <= 1e-9

    uniform = cs.SimplexWeights(np.full(4, 0.25))
    assert cs.kkt_residual(ObjectiveKind.VCS, model, uniform) <= 1e-9


def test_kkt_residual_uniform_is_not_aecs_optimum():
    model = cs.heat_dirichlet_model([1, 2])
    residual = cs.kkt_residual(ObjectiveKind.AECS, model,
                               cs.SimplexWeights(np.array([0.5, 0.5])))
    assert residual > 0.01


def test_kkt_residual_rejects_infeasible_point():
    model = cs.heat_dirichlet_model([1, 2])
    with pytest.raises(cs.InfeasiblePoint):
        cs.kkt_residual(ObjectiveKind.AECS, model, np.array([0.8, 0.8]))
    with pytest.raises(cs.InfeasiblePoint):
        cs.kkt_residual(ObjectiveKind.AECS, model, np.array([1.0, 0.0]))


def test_kkt_residual_rejects_weights_that_are_not_a_vector():
    model = cs.heat_dirichlet_model([1, 2])
    with pytest.raises(cs.InvalidWeights, match="^weights must be a 1-d vector$"):
        cs.kkt_residual(ObjectiveKind.AECS, model, np.array([[0.5, 0.5]]))


def _diagonal_model(m):
    return cs.SpectralModel(range(1, m + 1), np.diag(np.logspace(-1.0, 1.0, m)), m)


@pytest.mark.parametrize("kind", [ObjectiveKind.VCS, ObjectiveKind.AECS])
@pytest.mark.parametrize("size", [40, 200, 1000])
@pytest.mark.parametrize("build", [lambda m: cs.heat_dirichlet_model(range(1, m + 1)),
                                   _diagonal_model], ids=["heat", "diagonal"])
def test_large_separable_solves_match_closed_form(build, size, kind):
    model = build(size)
    result = cs.solve(kind, model)
    assert result.converged
    closed = cs.closed_form_optimum(kind, model)
    np.testing.assert_allclose(result.weights.values, closed.values, rtol=0, atol=1e-12)


def _banded_table(rng, m, width):
    table = np.zeros((m, m))
    for k in range(m):
        for i in range(max(0, k - width), min(m, k + width + 1)):
            table[k, i] = rng.uniform(0.5, 1.5) if i == k else rng.uniform(0.0, 0.3)
    return table


@pytest.mark.parametrize("kind", [ObjectiveKind.VCS, ObjectiveKind.AECS])
def test_rescaled_tables_give_the_same_solve(kind):
    tables = (cs.heat_dirichlet_model(range(1, 13)).eigen_table,
              _banded_table(np.random.default_rng(0), 30, 2))
    for table in tables:
        labels = range(1, table.shape[1] + 1)
        base = cs.solve(kind, cs.SpectralModel(labels, table, table.shape[0]))
        for scale in 10.0 ** np.arange(-4, 5):
            result = cs.solve(kind, cs.SpectralModel(labels, scale * table,
                                                     table.shape[0]))
            assert result.converged == base.converged
            np.testing.assert_allclose(result.weights.values, base.weights.values,
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("scale", [1e-11, 1e4])
def test_aecs_stopping_test_does_not_depend_on_units(scale):
    # The residual on grad g stopped 2.6e-7 from the optimum at scale 1e4 and
    # could not reach the tolerance at all at 1e-11; grad g / g is unitless.
    model = cs.SpectralModel((1, 2, 3), scale * np.diag([1.0, 2.0, 3.0]), 3)
    result = cs.solve(ObjectiveKind.AECS, model)
    assert result.converged
    closed = cs.closed_form_optimum(ObjectiveKind.AECS, model)
    np.testing.assert_allclose(result.weights.values, closed.values, rtol=0, atol=1e-12)
    unit = cs.SpectralModel((1, 2, 3), np.diag([1.0, 2.0, 3.0]), 3)
    point = [0.5, 0.3, 0.2]
    assert cs.kkt_residual(ObjectiveKind.AECS, model, point) == pytest.approx(
        cs.kkt_residual(ObjectiveKind.AECS, unit, point), rel=1e-12)


def test_descent_is_monotone_within_float_tolerance(monkeypatch):
    # Six modes: Newton finishes four modes from this kind of start in ten
    # steps, and the replay below needs a longer descent.
    model = cs.heat_dirichlet_model(range(1, 7))
    objective = _Objective(ObjectiveKind.AECS, model)
    caps = np.ones(6)
    start = np.array([0.7, 0.06, 0.06, 0.06, 0.06, 0.06])
    full = _descend(objective, start, caps)
    assert full.converged and full.iterations > 10
    # The descent is deterministic, so stopping after k steps replays the
    # k-th iterate of the full run.
    values = [objective(start).value]
    for k in range(1, full.iterations + 1):
        monkeypatch.setattr(optimizer, "MAX_ITERS", k)
        values.append(_descend(objective, start, caps).value)
    values = np.array(values)
    assert values[-1] == full.value
    tol = 64 * np.finfo(float).eps * (1.0 + np.abs(values[:-1]))
    assert np.all(np.diff(values) <= tol)


def test_iterates_stay_feasible():
    model = cs.heat_dirichlet_model([1, 2, 3])
    for trajectory in serial_descents(ObjectiveKind.AECS, model, seed=11):
        arr = trajectory.point
        assert abs(arr.sum() - 1.0) <= 1e-12
        assert np.all(arr >= 0.0) and np.all(arr <= 1.0)
        assert math.isfinite(trajectory.value)


def test_solve_deterministic_given_seed():
    family = random_stable_family(np.random.default_rng(5), 3)
    first = cs.solve(ObjectiveKind.AECS, family, seed=42)
    second = cs.solve(ObjectiveKind.AECS, family, seed=42)
    assert first.weights.values.tobytes() == second.weights.values.tobytes()
    assert first.start_objectives == second.start_objectives
    assert first.objective == second.objective


def test_pooled_starts_match_serial_descents():
    # With more than one CPU the eight starts run on the thread pool; each
    # must still be the serial descent from its own starting point.
    family = random_stable_family(np.random.default_rng(6), 3)
    result = cs.solve(ObjectiveKind.VCS, family, seed=3)
    assert not result.uniqueness_certified
    serial = serial_descents(ObjectiveKind.VCS, family, seed=3)
    assert result.start_objectives == tuple(t.value for t in serial)
    best = min(range(8), key=lambda i: (not serial[i].converged, serial[i].value, i))
    assert result.weights.values.tobytes() == serial[best].point.tobytes()


def test_multistart_agreement_when_certified():
    model = cs.heat_dirichlet_model([1, 2, 3, 4])
    assert cs.solve(ObjectiveKind.AECS, model).uniqueness_certified
    stacked = np.array([t.point for t in
                        serial_descents(ObjectiveKind.AECS, model, seed=0)])
    spread = np.max(stacked, axis=0) - np.min(stacked, axis=0)
    assert np.max(spread) <= 1e-6


def test_nonconvex_ambiguous_detected():
    table = np.array([[1.0, 0.0], [0.0, 1.2]])
    model = cs.SpectralModel((1, 2), table, 1)
    with pytest.raises(cs.NonConvexAmbiguous) as info:
        cs.solve(ObjectiveKind.AECS, model, seed=1)
    result = info.value.result
    assert result is not None
    assert max(result.start_objectives) - min(result.start_objectives) > 1e-6
    assert not result.uniqueness_certified


def test_infeasible_model_raises():
    table = np.array([[1.0, 0.0], [0.0, 0.0]])
    model = cs.SpectralModel((1, 2), table, 2)
    with pytest.raises(cs.Infeasible):
        cs.solve(ObjectiveKind.AECS, model)


def test_max_iters_flagged_not_raised(monkeypatch):
    monkeypatch.setattr(optimizer, "MAX_ITERS", 2)
    monkeypatch.setattr(optimizer, "GRAD_TOL", 1e-14)
    model = cs.heat_dirichlet_model([1, 2, 3, 4])
    result = cs.solve(ObjectiveKind.AECS, model)
    assert not result.converged
    assert any("MaxItersExceeded" in w or "grad_tol" in w for w in result.warnings)
    assert math.isfinite(result.objective)


@pytest.mark.parametrize("kind", list(ObjectiveKind), ids=lambda k: k.value)
@pytest.mark.parametrize("eps", [1e-8, -1e-8, 1e-4, -1e-4])
def test_newton_steps_sized_to_the_simplex_on_near_identical_nodes(kind, eps):
    # Nodes 1 and 3 differ by eps in one entry, so the curvature along
    # (-1, 0, 1) is O(eps^2) and the Newton direction is far longer than the
    # simplex is wide.  The node with the smaller entry gets no weight.
    table = np.array([[1.0, 2.0, 1.0], [2.0, 1.0, 2.0 + eps]])
    result = cs.solve(kind, cs.SpectralModel((1, 2, 3), table, 2))
    assert result.converged
    assert result.iterations <= 15
    assert result.weights.values[0 if eps > 0 else 2] == 0.0
    assert result.weights.values[1] == pytest.approx(0.5, abs=1e-4)


def test_solver_follows_a_crossing_selection():
    # n = 1 over two rows: the top row at the start (row 1) is not the top
    # row at the optimum [0, 1], where the rows tie and row 0 is selected.
    crossing = cs.SpectralModel((1, 2), np.array([[0.0, 1.0], [0.5, 1.0]]), 1)
    start = central_point(np.ones(2))
    assert list(crossing.eigenpairs(start).selected) == [1]
    for kind in (ObjectiveKind.VCS, ObjectiveKind.AECS):
        result = cs.solve(kind, crossing)
        assert list(crossing.eigenpairs(result.weights).selected) == [0]
        assert result.converged
        best, best_value = cs.grid_oracle(kind, crossing, step=0.05)
        np.testing.assert_allclose(result.weights.values, best.values, atol=1e-9)
        assert result.objective <= best_value + 1e-12


def test_solve_rejects_a_negative_seed():
    with pytest.raises(ValueError):
        cs.solve(ObjectiveKind.AECS, cs.heat_dirichlet_model([1, 2]), seed=-1)


@pytest.mark.parametrize("seed", [1.0, None, "3", -np.int64(2)])
def test_solve_checks_the_seed_even_where_it_draws_nothing(seed):
    # A heat model is certified and runs one start, which draws no numbers.
    with pytest.raises(ValueError, match="seed"):
        cs.solve(ObjectiveKind.AECS, cs.heat_dirichlet_model([1, 2]), seed=seed)
    assert cs.solve(ObjectiveKind.AECS, cs.heat_dirichlet_model([1, 2]),
                    seed=np.int64(3)).converged


@pytest.mark.parametrize("size, cap, step", [(4, 0.3, 0.01), (8, 0.15, 0.05),
                                              (12, 0.1, None)])
def test_capped_solve_matches_closed_form(size, cap, step):
    # With the last cap binding, the other nodes keep AECS's proportional-to-k
    # shape on the remaining mass: p_k = (1 - a) k / sum_{j<m} j, p_m = a.
    model = cs.heat_dirichlet_model(range(1, size + 1))
    caps = [1.0] * (size - 1) + [cap]
    result = cs.solve(ObjectiveKind.AECS, model, caps=caps)
    assert result.converged
    head = np.arange(1, size, dtype=float)
    want = np.append((1.0 - cap) * head / head.sum(), cap)
    np.testing.assert_allclose(result.weights.values, want, rtol=0, atol=1e-12)
    # A 0.01 lattice over 8 or 12 nodes is far over the oracle's budget, so
    # m = 8 uses the finest step that fits; at m = 12 none that fits has a
    # point with every weight positive, where AECS is finite.
    if step is not None:
        _, best_value = cs.grid_oracle(ObjectiveKind.AECS, model, step=step,
                                       caps=caps)
        assert result.objective <= best_value


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20).flatmap(
    lambda units: st.tuples(st.just(units),
                            st.lists(st.integers(0, units), min_size=1, max_size=5))),
       st.sampled_from([1, 2, 3, 7, 1 << 14]))
def test_lattice_matches_brute_force(case, block):
    units, caps = case
    want = [k for k in itertools.product(*(range(c + 1) for c in caps))
            if sum(k) == units]
    with mock.patch.object(optimizer, "_BLOCK_ROWS", block):
        if sum(caps) < units:
            assert not want
            with pytest.raises(cs.Infeasible):
                _lattice(units, np.array(caps))
        else:
            size, blocks = _lattice(units, np.array(caps))
            blocks = list(blocks)
            assert size == len(want)
            assert all(len(rows) == block for rows in blocks[:-1])
            assert 0 < len(blocks[-1]) <= block
            assert np.concatenate(blocks).tolist() == [list(k) for k in want]


def brute_force_oracle(kind, model, step, caps):
    """The first lattice minimizer in lexicographic order, from one batch
    over the whole lattice, built with ``itertools.product``; None if no
    lattice point lies inside the caps."""
    units = round(1 / step)
    cap_units = np.minimum(np.floor(np.asarray(caps) * units + 1e-9), units)
    rows = [k for k in itertools.product(*(range(int(c) + 1) for c in cap_units))
            if sum(k) == units]
    if not rows:
        return None
    points = np.array(rows) * step
    values = _Objective(kind, model).batch_values(points)
    best = int(np.argmin(values))
    return points[best], values[best]


#: The tied table: every lattice point (a, 0.5, 0.5 - a) has the optimal
#: value, so the first of them in lexicographic order must come back.
_TIED = cs.SpectralModel((1, 2, 3), np.array([[1.0, 2.0, 1.0], [2.0, 1.0, 2.0]]), 2)


def _check_blocked_oracle(kind, model, step, caps, block) -> float:
    """The oracle's value, after checking its point and value against
    :func:`brute_force_oracle` with blocks of ``block`` rows."""
    want_point, want_value = brute_force_oracle(kind, model, step, caps)
    with mock.patch.object(optimizer, "_BLOCK_ROWS", block):
        got, value = cs.grid_oracle(kind, model, step=step, caps=caps)
    assert got.values.tolist() == want_point.tolist()
    assert value == want_value
    return value


@pytest.mark.parametrize("block", [1, 2, 3, 7, 1 << 14])
@pytest.mark.parametrize("step", [0.25, 0.1, 0.05, 0.01])
@pytest.mark.parametrize("caps", [None, (0.3, 1.0, 0.45)], ids=["uncapped", "capped"])
@pytest.mark.parametrize("kind", [ObjectiveKind.VCS, ObjectiveKind.AECS])
def test_blocked_oracle_keeps_the_first_of_tied_minimizers(kind, caps, step, block):
    caps = np.ones(3) if caps is None else np.array(caps)
    value = _check_blocked_oracle(kind, _TIED, step, caps, block)
    optimum = {ObjectiveKind.VCS: -math.log(1.5) - math.log(1.5),
               ObjectiveKind.AECS: 2 / 1.5}[kind]
    assert value == pytest.approx(optimum, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.sampled_from([0.5, 0.25, 0.2, 0.1, 0.05]), st.sampled_from([1, 2, 3, 5, 64]),
       st.booleans(), st.sampled_from(list(ObjectiveKind)))
def test_blocked_oracle_matches_brute_force(size, seed, step, block, capped, kind):
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 4, (size + 1, size)) * rng.uniform(0.5, 2.0)
    model = cs.SpectralModel(tuple(range(1, size + 1)), table, int(rng.integers(1, size + 1)))
    caps = rng.uniform(1.0 / size, 1.0, size) if capped else np.ones(size)
    want = brute_force_oracle(kind, model, step, caps)
    if want is None or not math.isfinite(want[1]):
        message = "no lattice point" if want is None else "infinite on the whole lattice"
        with mock.patch.object(optimizer, "_BLOCK_ROWS", block), \
                pytest.raises(cs.Infeasible, match=message):
            cs.grid_oracle(kind, model, step=step, caps=caps)
    else:
        _check_blocked_oracle(kind, model, step, caps, block)


def test_lattice_too_large_before_allocation(monkeypatch):
    monkeypatch.setattr(optimizer, "GRID_BUDGET", 5000)
    tracemalloc.start()
    try:
        with pytest.raises(cs.TooLarge):
            _lattice(1000, np.full(4, 1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The second column alone would hold 501501 rows.
    assert peak < 8 * 4 * 5000


def test_grid_oracle_memory_is_bounded_by_a_block():
    # One batch over the 316,251 points of this lattice peaked at 43.4 MiB.
    model = cs.heat_dirichlet_model([1, 2, 3, 4, 5])
    tracemalloc.start()
    try:
        cs.grid_oracle(ObjectiveKind.AECS, model, step=0.02)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_grid_oracle_on_a_family_holds_eigenvalues_not_matrices(rng):
    # 23,426 points; a block of W(p) matrices (16,384 x 30 x 30) peaked at
    # 116.8 MiB.  Batch values hold a few (block, d) arrays of eigenvalues.
    system = cs.check_stability(random_stable_matrix(rng, 30))
    family = cs.gramian_family(system, [1, 2, 3, 4])
    tracemalloc.start()
    try:
        cs.grid_oracle(ObjectiveKind.VCS, family, step=0.02)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * 30 * optimizer._BLOCK_ROWS


def test_grid_oracle_counts_before_it_evaluates(monkeypatch):
    def no_evaluation(self, batch):
        raise AssertionError("a lattice point was evaluated")

    monkeypatch.setattr(_Objective, "batch_values", no_evaluation)
    monkeypatch.setattr(optimizer, "GRID_BUDGET", 1000)
    with pytest.raises(cs.TooLarge, match="budget is 1000"):
        cs.grid_oracle(ObjectiveKind.AECS, _HEAT4, step=0.05)  # 1771 points
    # Caps of 2, 1 and 0 quarters cannot make up 4 quarters.
    with pytest.raises(cs.Infeasible, match="no lattice point"):
        cs.grid_oracle(ObjectiveKind.AECS, cs.heat_dirichlet_model([1, 2, 3]),
                       step=0.25, caps=[0.6, 0.45, 0.2])


@pytest.mark.parametrize("model, weights", [
    (cs.SpectralModel((1, 2), np.diag([1e100, 2e100]), 2),
     {ObjectiveKind.VCS: [0.5, 0.5], ObjectiveKind.AECS: [2 - 2**0.5, 2**0.5 - 1]}),
    (cs.NodeGramianFamily((1, 2), np.stack([np.eye(3) * 1e300, np.eye(3)])),
     dict.fromkeys(ObjectiveKind, [1.0, 0.0])),
    # d times the largest entry is past the largest float.
    (cs.NodeGramianFamily((1, 2), np.stack([np.eye(3) * 1.5e308, np.eye(3)])),
     dict.fromkeys(ObjectiveKind, [1.0, 0.0])),
], ids=["table-1e100", "family-1e300", "family-past-max"])
@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_solve_scores_eigenvalues_past_the_range_of_the_score_arithmetic(kind, model,
                                                                        weights):
    # Squares of 1e200 and logs of 1e308 stay finite in one unit of measure.
    result = cs.solve(kind, model)
    assert result.converged and result.uniqueness_certified
    np.testing.assert_allclose(result.weights.values, weights[kind], rtol=0, atol=1e-12)


_SPREAD_TABLE = np.array([[3.0, 1.0, 0.5], [1.0, 2.0, 0.25], [0.5, 0.5, 1.5]])


@pytest.mark.parametrize("scale", [1e-200, 1e-15, 1e15, 1e200])
@pytest.mark.parametrize("kind", list(ObjectiveKind), ids=lambda k: k.value)
def test_a_full_spectrum_table_solves_the_same_in_any_unit(kind, scale):
    # Below 1 the old positive floor was absolute (Infeasible), above about
    # 1e77 the old score arithmetic overflowed.
    base = cs.solve(kind, cs.SpectralModel((1, 2, 3), _SPREAD_TABLE))
    model = cs.SpectralModel((1, 2, 3), scale * _SPREAD_TABLE)
    result = cs.solve(kind, model)
    assert result.converged and result.uniqueness_certified
    np.testing.assert_allclose(result.weights.values, base.weights.values,
                               rtol=0, atol=1e-9)
    assert cs.kkt_residual(kind, model, base.weights) <= 1e-9


@functools.cache
def _dense30_weights(kind, time_unit):
    dynamics = time_unit * dominant_matrix(np.random.default_rng(0), 30)
    family = cs.gramian_family(cs.check_stability(dynamics), range(1, 31))
    return cs.solve(kind, family).weights.values


@pytest.mark.parametrize("time_unit", [1e-200, 1e-170, 1e170, 1e200])
@pytest.mark.parametrize("kind", list(ObjectiveKind), ids=lambda k: k.value)
def test_a_dense_system_in_extreme_time_units_scores_to_its_unit_time_weights(
        kind, time_unit):
    # From about 1e154 on, a Gramian's norm underflowed to 0 in its PSD
    # tolerance and the valid system raised EigenFailure.
    np.testing.assert_allclose(_dense30_weights(kind, time_unit),
                               _dense30_weights(kind, 1.0), rtol=0, atol=1e-9)


def _unit_table(unit) -> np.ndarray:
    """The table a model or its unit copy scores, as an array: its
    ``eigen_table``, or the table of the nonzeros it holds, read-only."""
    table = unit.eigen_table
    assert not (table.values if isinstance(table, Nonzeros) else table).flags.writeable
    return dense_table(table)


@pytest.mark.parametrize("modes", [2, 16], ids=["dense", "sparse"])
def test_in_unit_scales_by_a_power_of_four_into_a_quarter_to_one(modes):
    # A 16 x 2 table has 2 of its 32 entries nonzero, below the sparse share.
    for top in (1.0, 0.25, 0.5 - 2**-60, 3.0, 1e-300, 5e-324, 1.7e308):
        table = np.zeros((modes, 2))
        table[0, 0], table[1, 1] = top, top / 2
        model = cs.SpectralModel((1, 2), table)
        assert isinstance(model.eigen_table, Nonzeros) == (modes == 16)
        unit = _in_unit(model)
        scaled = _unit_table(unit)
        exponent = math.frexp(scaled[0, 0])[1] - math.frexp(top)[1]
        assert 0.25 <= scaled.max() < 1.0 and exponent % 2 == 0
        np.testing.assert_array_equal(scaled, np.ldexp(_unit_table(model), exponent))
        assert (unit is model) == (exponent == 0)
        assert isinstance(unit.eigen_table, Nonzeros) == (modes == 16)
        assert unit.node_indices == model.node_indices
        assert unit.score_order == model.score_order
        assert unit.mode_count == model.mode_count


def test_a_heat_solve_on_2000_modes_holds_no_table_sized_array():
    # The unit copy of a sparse table holds its nonzeros alone.  When it
    # scaled the whole 2000 x 2000 table the solve peaked at 31 MiB traced.
    model = cs.heat_dirichlet_model(range(1, 2001))
    tracemalloc.start()
    try:
        result = cs.solve(ObjectiveKind.AECS, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.converged and result.uniqueness_certified
    assert peak < 2**20


def test_a_unit_family_reuses_its_owners_node_factor(rng, monkeypatch):
    family = random_stable_family(rng, 5)
    family = cs.NodeGramianFamily(family.node_indices, 64.0 * family.gramians)
    calls = []
    factor = linsys.node_factors
    monkeypatch.setattr(linsys, "node_factors",
                        lambda stack: calls.append(stack) or factor(stack))
    result = cs.solve(ObjectiveKind.AECS, family)
    for kind in ObjectiveKind:
        cs.kkt_residual(kind, family, result.weights)
    assert len(calls) == 1 and calls[0] is family.gramians
    unit = _in_unit(family)
    assert unit is not family
    loadings, signs = unit._factor()
    assert signs is family._factor()[1]
    want = factor(unit.gramians)
    assert np.array_equal(want[0], loadings) and np.array_equal(want[1], signs)


@pytest.mark.parametrize("kind", list(ObjectiveKind), ids=lambda k: k.value)
def test_reported_numbers_are_in_the_callers_units(rng, kind):
    family = random_stable_family(rng, 4)
    family = cs.NodeGramianFamily(family.node_indices, 1e5 * family.gramians)
    assert _in_unit(family) is not family
    result = cs.solve(kind, family, seed=3)
    assert result.objective == cs.evaluate(kind, family, result.weights).value
    witness = result.assumption_report.witness
    assert result.assumption_report.nth_eigenvalue == float(
        family.eigenpairs(witness).values[-1])
    # mu_2 = 1e12 p_1 is positive wherever p_1 is, though mu_2 / mu_1 is at
    # most 1e-18: the optimum is (1, 0), with mu = (1e30, 1e12).
    table = cs.SpectralModel((1, 2), [[1e30, 1e30], [1e12, 0.0]], 2)
    result = cs.solve(kind, table)
    assert result.converged and result.uniqueness_certified
    np.testing.assert_allclose(result.weights.values, [1.0, 0.0], rtol=0, atol=1e-15)
    want = (-math.log(1e30) - math.log(1e12) if kind is ObjectiveKind.VCS
            else 1e-30 + 1e-12)
    assert result.objective == pytest.approx(want, rel=1e-15)


#: The 6-state example of the ROADMAP: a non-convex top-3 VCS problem whose
#: starts reach two local minima.
_SIX = np.random.default_rng(0).standard_normal((6, 6))
_SIX -= (np.linalg.eigvals(_SIX).real.max() + 0.5) * np.eye(6)


@pytest.mark.parametrize("time_unit", [1.0, 1e-9, 1e9])
def test_a_non_convex_family_is_ambiguous_in_any_time_unit(time_unit):
    # In nanoseconds the commutator residual was once absolute and read
    # 4.9e-19: the family was certified and ran one start.
    family = cs.gramian_family(cs.check_stability(time_unit * _SIX), range(1, 7), 3)
    with pytest.raises(cs.NonConvexAmbiguous) as caught:
        cs.solve(ObjectiveKind.VCS, family)
    result = caught.value.result
    assert not result.assumption_report.commuting
    assert len(result.start_objectives) == optimizer.UNCERTIFIED_STARTS
    if time_unit == 1.0:
        assert str(caught.value) == (
            "starts disagree on the optimal value: 3.15697098, 3.15697098, "
            "3.43648477, 2.99121239, 3.15697098, 2.99121239, 3.15697098, 2.99121239")


def test_uncertified_solve_carries_warning(rng):
    family = random_stable_family(rng, 3)
    result = cs.solve(ObjectiveKind.AECS, family, seed=2)
    assert not result.uniqueness_certified
    assert any("uniqueness not certified" in w for w in result.warnings)


def test_projection_reexport():
    assert cs.project_capped_simplex is not None
    from ctrlscore import linsys, optimizer
    assert optimizer.project_capped_simplex is cs.project_capped_simplex
    start = central_point(np.ones(3))
    assert abs(start.values.sum() - 1.0) <= 1e-12


_HEAT4 = cs.heat_dirichlet_model([1, 2, 3, 4])
_CAPS3 = np.array([0.5, 0.5, 0.5])
_QUARTERS = np.full(4, 0.25)


@pytest.mark.parametrize("call", [
    lambda: cs.SimplexWeights(_QUARTERS, _CAPS3),
    lambda: cs.project_capped_simplex(_QUARTERS, _CAPS3),
    lambda: cs.solve(ObjectiveKind.AECS, _HEAT4, caps=_CAPS3),
    lambda: cs.grid_oracle(ObjectiveKind.AECS, _HEAT4, step=0.25, caps=_CAPS3),
    lambda: cs.kkt_residual(ObjectiveKind.AECS, _HEAT4, _QUARTERS, caps=_CAPS3),
    lambda: cs.check_feasibility(_HEAT4, caps=_CAPS3),
    lambda: cs.closed_form_optimum(ObjectiveKind.AECS, _HEAT4, caps=_CAPS3),
], ids=["SimplexWeights", "project_capped_simplex", "solve", "grid_oracle",
        "kkt_residual", "check_feasibility", "closed_form_optimum"])
def test_caps_of_the_wrong_length_raise_invalid_weights(call):
    with pytest.raises(cs.InvalidWeights, match="caps length 3 != node count 4"):
        call()


#: mu_2 / mu_1 is 1e-13 at the central point: once below a positive floor of
#: 1e-12 mu_1, which read the table as infeasible (exit 2).
_FLOOR_TABLE = np.array([[1e6, 0.0], [0.0, 1e-7]])
_FLOOR_CAPS = {"no caps": None, "caps (1, 1 - 1e-8)": np.array([1.0, 1.0 - 1e-8])}


@pytest.mark.parametrize("kind", [ObjectiveKind.VCS, ObjectiveKind.AECS])
def test_solve_starts_at_the_feasibility_witness(kind):
    model = cs.SpectralModel((1, 2), _FLOOR_TABLE, 2)
    for caps in _FLOOR_CAPS.values():
        report = cs.check_feasibility(model, caps=caps)
        np.testing.assert_array_equal(report.witness.values, [0.5, 0.5])
        assert report.nth_eigenvalue == 5e-8 and report.reason == ""
        result = cs.solve(kind, model, caps=caps)
        assert result.converged and result.uniqueness_certified
        assert result.start_objectives == (result.objective,)
        assert result.objective <= cs.evaluate(kind, model, report.witness).value
        closed = cs.closed_form_optimum(kind, model, caps=caps)
        np.testing.assert_allclose(result.weights.values, closed.values,
                                   rtol=0, atol=1e-12)
        if kind is ObjectiveKind.VCS:
            np.testing.assert_array_equal(result.weights.values, [0.5, 0.5])
            assert result.objective == pytest.approx(3.688879454, abs=1e-9)
        else:
            assert result.weights.values[0] == pytest.approx(3.162e-7, rel=1e-3)


_FLOOR_SCALES = {**{f"2**{k}": 2.0**k for k in range(-60, 61, 20)},
                 "1e-100": 1e-100, "1e100": 1e100}


@pytest.mark.parametrize("caps", list(_FLOOR_CAPS.values()), ids=list(_FLOOR_CAPS))
@pytest.mark.parametrize("scale", list(_FLOOR_SCALES.values()), ids=list(_FLOOR_SCALES))
@pytest.mark.parametrize("kind", [ObjectiveKind.VCS, ObjectiveKind.AECS])
def test_an_ill_conditioned_table_solves_at_every_scale(kind, scale, caps):
    model = cs.SpectralModel((1, 2), scale * _FLOOR_TABLE, 2)
    result = cs.solve(kind, model, caps=caps)
    assert result.converged and result.uniqueness_certified
    closed = cs.closed_form_optimum(kind, model, caps=caps)
    np.testing.assert_allclose(result.weights.values, closed.values, rtol=0, atol=1e-12)
    # VCS shifts by -2 log(scale), AECS divides by scale.
    if kind is ObjectiveKind.VCS:
        want = 3.688879454113936 - 2.0 * math.log(scale)
        assert result.objective == pytest.approx(want, rel=1e-12, abs=1e-12)
    else:
        want = cs.evaluate(kind, cs.SpectralModel((1, 2), _FLOOR_TABLE, 2),
                           closed).value / scale
        assert result.objective == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("scale", list(_FLOOR_SCALES.values()), ids=list(_FLOOR_SCALES))
@pytest.mark.parametrize("kind", [ObjectiveKind.VCS, ObjectiveKind.AECS])
def test_a_table_with_mu_2_over_mu_1_below_1e_18_solves_at_every_scale(kind, scale):
    model = cs.SpectralModel((1, 2), scale * np.array([[1e30, 1e30], [1e12, 0.0]]), 2)
    result = cs.solve(kind, model)
    assert result.converged and result.uniqueness_certified
    np.testing.assert_allclose(result.weights.values, [1.0, 0.0], rtol=0, atol=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("small", [1e-80, 1e-100, 1e-150])
def test_an_aecs_hessian_that_underflows_takes_the_gradient_step(small):
    # At the central point (a b)^2 = mu_1^2 mu_2^2 underflows in the unit, so
    # the AECS curvature is infinite there; forming it once warned "divide by
    # zero".  The gradient steps move the weight to node 2, where it is finite.
    model = cs.SpectralModel((1, 2), [[1.0, 0.0], [0.0, small]])
    point = central_point(np.ones(2))
    evaluation = _Objective(ObjectiveKind.AECS, _in_unit(model))(point)
    assert evaluation.feasible
    assert not np.isfinite(evaluation.curvature()[1]).all()
    assert optimizer._newton_direction(evaluation, point, point, np.ones(2)) is None
    result = cs.solve(ObjectiveKind.AECS, model)
    assert result.converged and result.uniqueness_certified
    closed = cs.closed_form_optimum(ObjectiveKind.AECS, model)
    np.testing.assert_allclose(result.weights.values, closed.values, rtol=0, atol=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_optimum_that_overflows_in_the_callers_units_is_beyond_double_range():
    # Finite in the unit, the AECS optimum S^2 / scale, S = sum_i i^(-1/2),
    # passes the largest float at scale 1e-309; it once warned "overflow" and
    # reported inf.
    diagonal = np.diag([1.0, 2.0, 3.0])
    closed = sum(i**-0.5 for i in (1, 2, 3)) ** 2
    result = cs.solve(ObjectiveKind.AECS, cs.SpectralModel((1, 2, 3), 1e-305 * diagonal))
    assert result.objective == pytest.approx(closed / 1e-305, rel=1e-9)
    with pytest.raises(cs.BeyondDoubleRange) as info:
        cs.solve(ObjectiveKind.AECS, cs.SpectralModel((1, 2, 3), 1e-309 * diagonal))
    assert str(info.value) == (
        "the aecs score is not finite in double precision at the optimum, "
        "where mu_3 = 4.377e-310 and mu_1 = 7.582e-310")


def test_projected_cg_solves_the_newton_system_on_the_free_face(rng):
    # Dense KKT reference: [H_FF 1; 1^T 0] [s; nu] = [-g_F; 0].
    factor = rng.standard_normal((8, 8))
    hess = factor @ factor.T + 0.1 * np.eye(8)
    grad = rng.standard_normal(8)
    free = np.array([True, True, False, True, True, True, False, True])
    size = int(free.sum())
    kkt = np.zeros((size + 1, size + 1))
    kkt[:size, :size] = hess[np.ix_(free, free)]
    kkt[:size, size] = kkt[size, :size] = 1.0
    want = np.linalg.solve(kkt, np.append(-grad[free], 0.0))[:size]
    got = optimizer._projected_cg(hess.__matmul__, np.diag(hess).copy(), grad, free)
    assert np.all(got[~free] == 0.0)
    assert abs(got.sum()) <= 1e-12
    np.testing.assert_allclose(got[free], want, rtol=0, atol=1e-9 * np.abs(want).max())


@pytest.mark.parametrize("span", [8, 10, 12])
def test_a_convex_family_in_uneven_state_units_is_not_ambiguous(span):
    # The benchmark's d = 30 family with its states in units that span
    # 2^span, W_i -> S W_i S: full-spectrum AECS stays convex, yet its
    # eight starts, which all reach the same 9 digits, once differed by
    # more than an absolute 1e-6 in value and raised NonConvexAmbiguous.
    gen = perfbench_gen()
    a = np.array(gen._dense(random.Random("dense-lti"), 30))
    family = cs.gramian_family(cs.check_stability(a), range(1, 31))
    scale = np.ldexp(1.0, [round(j * span / 29) for j in range(30)])
    scaled = cs.NodeGramianFamily(range(1, 31),
                                  scale[:, None] * family.gramians * scale[None, :])
    result = cs.solve(ObjectiveKind.AECS, scaled)
    assert result.converged and not result.uniqueness_certified
    spread = max(result.start_objectives) / min(result.start_objectives)
    assert 1.0 <= spread <= 1.0 + 1e-6


def test_a_descent_takes_each_kkt_pair_once(monkeypatch):
    # A trial that the line search accepts on its residual already has its
    # pair, and the next step reads it: this descent took 3 of its 13
    # pairs twice.
    seen = []
    kkt = optimizer._kkt

    def counted(objective, evaluation, point, caps):
        seen.append(point.tobytes())
        return kkt(objective, evaluation, point, caps)

    monkeypatch.setattr(optimizer, "_kkt", counted)
    cs.solve(ObjectiveKind.AECS, cs.heat_dirichlet_model(range(1, 13)))
    assert len(seen) == len(set(seen)) == 10
