import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_diagonal_model, random_stable_family, serial_descents

import ctrlscore as cs
from ctrlscore import ObjectiveKind
from ctrlscore import optimizer
from ctrlscore.optimizer import _descend, _lattice
from ctrlscore.scores import _Objective
from ctrlscore.simplex import central_point

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
                            st.lists(st.integers(0, units), min_size=1, max_size=5))))
def test_lattice_matches_brute_force(case):
    units, caps = case
    want = [k for k in itertools.product(*(range(c + 1) for c in caps))
            if sum(k) == units]
    if sum(caps) < units:
        assert not want
        with pytest.raises(cs.Infeasible):
            _lattice(units, np.array(caps))
    else:
        got = _lattice(units, np.array(caps))
        assert got.tolist() == [list(k) for k in want]


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


def test_uncertified_solve_carries_warning(rng):
    family = random_stable_family(rng, 3)
    result = cs.solve(ObjectiveKind.AECS, family, seed=2)
    assert not result.uniqueness_certified
    assert any("uniqueness not certified" in w for w in result.warnings)


def test_projection_reexport():
    assert cs.project_capped_simplex is not None
    from ctrlscore import optimizer
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


@pytest.mark.parametrize("kind", [ObjectiveKind.VCS, ObjectiveKind.AECS])
def test_solve_starts_at_the_feasibility_witness(kind):
    # The central point (0.5, 0.5) has mu_2 / mu_1 = 1e-13, under the
    # positive floor, so the witness is the greedy pattern (1e-8, 1 - 1e-8).
    model = cs.SpectralModel((1, 2), np.array([[1e6, 0.0], [0.0, 1e-7]]), 2)
    caps = np.array([1.0, 1.0 - 1e-8])
    assert not cs.evaluate(kind, model, central_point(caps)).feasible
    witness = cs.check_feasibility(model, caps=caps).witness
    at_witness = cs.evaluate(kind, model, witness).value
    result = cs.solve(kind, model, caps=caps)
    assert cs.evaluate(kind, model, result.weights).feasible
    assert math.isfinite(result.objective)
    assert result.objective <= at_witness


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
