import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ORDER_BUILDERS,
    central_gradient,
    central_hessian,
    interior_point,
    random_commuting_family,
    random_diagonal_model,
    random_stable_family,
    table_model,
)

from oracles import reference_hessian, table_derivatives

import ctrlscore as cs
from ctrlscore import ObjectiveKind
from ctrlscore.scores import SCORES, _Objective

TWO_PI_SQ = 2.0 * np.pi**2


def test_aecs_heat_reference_value():
    model = cs.heat_dirichlet_model([1, 2, 3, 4])
    point = [0.1, 0.2, 0.3, 0.4]
    got = cs.evaluate(ObjectiveKind.AECS, model, point)
    # independent summation of 2 pi^2 k^2 / p_k
    want = sum(TWO_PI_SQ * k**2 / p for k, p in zip([1, 2, 3, 4], point))
    assert got.value == pytest.approx(want, rel=1e-14)
    assert got.value == pytest.approx(1973.9208802178716, rel=1e-12)


def test_vcs_heat_reference_value():
    model = cs.heat_dirichlet_model([1, 2])
    got = cs.evaluate(ObjectiveKind.VCS, model, [0.5, 0.5])
    want = math.log(4.0) + math.log(16.0 * np.pi**4)
    assert got.value == pytest.approx(want, rel=1e-14)


def test_zero_coordinate_gives_infinity_sentinel():
    model = cs.heat_dirichlet_model([1, 2, 3])
    got = cs.evaluate(ObjectiveKind.AECS, model, [0.5, 0.5, 0.0])
    assert got.value == math.inf
    assert got.gradient is None
    assert not got.feasible


def test_near_degenerate_flagged():
    table = np.array([[1.0, 0.0], [0.0, 1.0]])
    model = cs.SpectralModel((1, 2), table, 1)
    got = cs.evaluate(ObjectiveKind.AECS, model, [0.5, 0.5])
    assert got.near_degenerate


def _fd_check(kind, model, points, grad_rtol=1e-5, hess_rtol=1e-4):
    for point in points:
        got = cs.evaluate(kind, model, point)

        def value_at(x, _kind=kind, _model=model):
            return cs.evaluate(_kind, _model, x).value

        def grad_at(x, _kind=kind, _model=model):
            return cs.evaluate(_kind, _model, x).gradient

        fd_grad = central_gradient(value_at, np.asarray(point, dtype=float))
        scale = np.linalg.norm(got.gradient)
        assert np.linalg.norm(got.gradient - fd_grad) <= grad_rtol * scale
        if got.hessian is not None:
            fd_hess = central_hessian(grad_at, np.asarray(point, dtype=float))
            hscale = np.linalg.norm(got.hessian)
            assert np.linalg.norm(got.hessian - fd_hess) <= hess_rtol * hscale


def test_gradients_and_hessians_match_finite_differences(rng):
    # 20 interior points across diagonal spectral models and commuting
    # matrix families, both objectives.
    diag_model = random_diagonal_model(rng, 4)
    family = random_commuting_family(rng, 3)
    diag_points = [interior_point(rng, 4) for _ in range(5)]
    fam_points = [interior_point(rng, 3) for _ in range(5)]
    for kind in (ObjectiveKind.VCS, ObjectiveKind.AECS):
        _fd_check(kind, diag_model, diag_points)
        _fd_check(kind, family, fam_points)


def test_matrix_gradient_with_partial_selection(rng):
    family = dataclasses.replace(random_stable_family(rng, 4), score_order=2)
    point = interior_point(rng, 4)
    for kind in (ObjectiveKind.VCS, ObjectiveKind.AECS):
        got = cs.evaluate(kind, family, point)
        if got.near_degenerate:
            pytest.skip("random system produced a degenerate gap")

        def value_at(x, _kind=kind):
            return cs.evaluate(_kind, family, x).value

        fd = central_gradient(value_at, point)
        assert np.linalg.norm(got.gradient - fd) <= 1e-5 * np.linalg.norm(fd)


def test_convexity_witness(rng):
    model = random_diagonal_model(rng, 4)
    for kind in (ObjectiveKind.VCS, ObjectiveKind.AECS):
        for _ in range(10):
            point = interior_point(rng, 4)
            hess = cs.evaluate(kind, model, point).hessian
            assert np.linalg.eigvalsh(hess)[0] >= -1e-8


def test_strict_convexity_with_independent_rows(rng):
    table = rng.uniform(0.2, 2.0, (3, 3))
    while abs(np.linalg.det(table)) < 1e-3:
        table = rng.uniform(0.2, 2.0, (3, 3))
    model = cs.SpectralModel((1, 2, 3), table, 3)
    point = interior_point(rng, 3)
    for kind in (ObjectiveKind.VCS, ObjectiveKind.AECS):
        hess = cs.evaluate(kind, model, point).hessian
        assert np.linalg.eigvalsh(hess)[0] > 0.0


def test_full_spectrum_reduction_identities(rng):
    family = random_stable_family(rng, 3)
    for _ in range(5):
        point = interior_point(rng, 3)
        mixed = cs.assemble_gramian(family, point)
        vcs = cs.evaluate(ObjectiveKind.VCS, family, point).value
        sign, logdet = np.linalg.slogdet(mixed)
        assert sign > 0
        assert vcs == pytest.approx(-logdet, rel=1e-8)
        aecs = cs.evaluate(ObjectiveKind.AECS, family, point).value
        assert aecs == pytest.approx(np.trace(np.linalg.inv(mixed)), rel=1e-8)


def test_aecs_value_decreases_when_selected_eigenvalue_grows(rng):
    model = random_diagonal_model(rng, 3)
    point = interior_point(rng, 3)
    base = cs.evaluate(ObjectiveKind.AECS, model, point)
    selected = model.eigenpairs(point).selected
    bumped_table = model.eigen_table.copy()
    row = selected[0]
    col = int(np.argmax(bumped_table[row]))
    bumped_table[row, col] *= 1.05
    bumped = cs.SpectralModel(model.node_indices, bumped_table, 3)
    after = cs.evaluate(ObjectiveKind.AECS, bumped, point)
    if np.array_equal(bumped.eigenpairs(point).selected, selected):
        assert after.value <= base.value


def test_closed_form_examples():
    model = cs.heat_dirichlet_model([1, 2, 3, 4])
    aecs = cs.closed_form_optimum(ObjectiveKind.AECS, model)
    np.testing.assert_allclose(aecs.values, [0.1, 0.2, 0.3, 0.4], atol=1e-15)
    model6 = cs.heat_dirichlet_model([1, 2, 3, 6])
    aecs6 = cs.closed_form_optimum(ObjectiveKind.AECS, model6)
    np.testing.assert_allclose(aecs6.values, np.array([1, 2, 3, 6]) / 12.0,
                               atol=1e-15)
    for indices in ([1], [2, 5], [1, 2, 3, 4, 5]):
        vcs = cs.closed_form_optimum(ObjectiveKind.VCS,
                                     cs.heat_dirichlet_model(indices))
        np.testing.assert_allclose(vcs.values, 1.0 / len(indices), atol=1e-15)


def test_closed_form_validated_against_grid_oracle():
    model = cs.heat_dirichlet_model([1, 2])
    best, _ = cs.grid_oracle(ObjectiveKind.AECS, model, step=0.01)
    closed = cs.closed_form_optimum(ObjectiveKind.AECS, model)
    assert np.max(np.abs(best.values - closed.values)) <= 0.01 + 1e-12
    np.testing.assert_allclose(best.values, [0.33, 0.67], atol=1e-12)


def test_closed_form_errors():
    table = np.array([[1.0, 0.5], [0.0, 1.0]])
    model = cs.SpectralModel((1, 2), table, 2)
    with pytest.raises(cs.NotDiagonal):
        cs.closed_form_optimum(ObjectiveKind.AECS, model)
    heat = cs.heat_dirichlet_model([1, 2, 3, 4])
    with pytest.raises(cs.CapsBind):
        cs.closed_form_optimum(ObjectiveKind.AECS, heat, caps=[0.05, 1, 1, 1])


@pytest.mark.parametrize("model, message", [
    (cs.NodeGramianFamily((1, 2), np.stack([np.eye(2), np.eye(2)])),
     "closed form requires a spectral model"),
    (cs.heat_dirichlet_model((1, 2, 3), 2),
     "closed form requires score order == node count, got 2 != 3"),
    # Column 1 shares column 0's row before column 2 is found empty.
    (cs.SpectralModel((1, 2, 3), [[1, 2, 0], [0, 0, 0], [0, 0, 0]]),
     "row 0 is shared by several columns"),
    (cs.SpectralModel((1, 2), [[1.0, 0.5], [0.0, 1.0]]), "column 1 has 2 nonzero rows"),
    (cs.SpectralModel((1, 2, 3), np.eye(40, 3)[:, [0, 2, 2]] * [1, 0, 1]),
     "column 1 has 0 nonzero rows"),
], ids=["family", "top-n", "shared-row-first", "two-rows", "sparse-empty-column"])
def test_closed_form_refusals(model, message):
    with pytest.raises(cs.NotDiagonal, match=f"^{re.escape(message)}$"):
        cs.closed_form_optimum(ObjectiveKind.AECS, model)


def test_a_value_where_mu_n_is_not_positive_is_infinite():
    model = cs.SpectralModel((1, 2), [[1.0, 0.0], [0.0, 1.0]])
    for kind in ObjectiveKind:
        assert _Objective(kind, model).value([1.0, 0.0]) == math.inf


def _assert_full_spectrum_cross_check(family, kind, result):
    # direct log-determinant / trace-of-inverse form of the full-spectrum score
    mixed = cs.assemble_gramian(family, result.weights)
    if kind is ObjectiveKind.VCS:
        sign, logdet = np.linalg.slogdet(mixed)
        direct = -logdet if sign > 0 else math.inf
    else:
        direct = float(np.trace(np.linalg.inv(mixed)))
    assert abs(direct - result.objective) <= 1e-8 * max(1.0, abs(direct))


def test_finite_dim_scores_examples(rng):
    sym = cs.gramian_family(cs.check_stability(np.diag([-1.0, -1.0])), [1, 2])
    result = cs.solve(ObjectiveKind.VCS, sym)
    np.testing.assert_allclose(result.weights.values, [0.5, 0.5], atol=1e-8)
    _assert_full_spectrum_cross_check(sym, ObjectiveKind.VCS, result)

    family = cs.gramian_family(cs.check_stability(np.diag([-1.0, -2.0])), [1, 2])
    aecs = cs.solve(ObjectiveKind.AECS, family)
    root2 = math.sqrt(2.0)
    want = np.array([root2 / (root2 + 2.0), 2.0 / (root2 + 2.0)])
    np.testing.assert_allclose(aecs.weights.values, want, atol=1e-7)
    _assert_full_spectrum_cross_check(family, ObjectiveKind.AECS, aecs)
    best, best_value = cs.grid_oracle(ObjectiveKind.AECS, family, step=0.01)
    assert aecs.objective <= best_value + 1e-9
    assert np.max(np.abs(aecs.weights.values - best.values)) <= 0.01

    vcs = cs.solve(ObjectiveKind.VCS, family)
    np.testing.assert_allclose(vcs.weights.values, [0.5, 0.5], atol=1e-7)
    _assert_full_spectrum_cross_check(family, ObjectiveKind.VCS, vcs)


def test_derivatives_hessian_matches_the_reference(rng):
    # The Hessian callable's product and diagonal against the dense reference
    # formulas, and evaluate's matrix (built from the product) against the
    # same reference.
    table = rng.uniform(0.1, 2.0, (5, 4))
    for model in (cs.SpectralModel((1, 2, 3, 4), table, 3), random_stable_family(rng, 4)):
        for kind in (ObjectiveKind.VCS, ObjectiveKind.AECS):
            point = interior_point(rng, 4)
            pairs = model.eigenpairs(point)
            matvec, diagonal = _Objective(kind, model)(point).curvature()
            hess = reference_hessian(model, pairs, SCORES[kind].divided)
            for v in rng.standard_normal((2, 4)):
                np.testing.assert_allclose(matvec(v), hess @ v, rtol=1e-10,
                                           atol=1e-12 * np.abs(hess).max())
            np.testing.assert_allclose(diagonal, np.diag(hess), rtol=1e-12)
            np.testing.assert_allclose(cs.evaluate(kind, model, point).hessian,
                                       hess, rtol=1e-10,
                                       atol=1e-12 * np.abs(hess).max())


def test_no_hessian_for_a_partial_family_selection(rng):
    family = dataclasses.replace(random_stable_family(rng, 4), score_order=2)
    objective = _Objective(ObjectiveKind.AECS, family)
    assert objective(interior_point(rng, 4)).curvature is None


def test_an_evaluation_holds_one_node_block_beyond_its_hessian_coordinates(rng):
    # 60 nodes, 60 states: the Hessian coordinates (one upper triangle of
    # Z^T W_i Z per node) take 60 * 1830 * 8 bytes = 0.88 MB.  One evaluation
    # and its Hessian callable may add a block's temporaries on top, not a
    # product over all nodes at once (a 5.3 MB peak).
    family = random_stable_family(rng, 60)
    objective = _Objective(ObjectiveKind.AECS, family)
    point = np.full(60, 1.0 / 60.0)
    coordinates = 60 * (60 * 61 // 2) * 8
    objective(point).curvature()
    tracemalloc.start()
    try:
        evaluation = objective(point)
        assert evaluation.curvature() is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * coordinates


def _table_evaluation_peak(model, point) -> int:
    """The traced peak of one AECS evaluation at ``point``, its
    ``curvature()`` and one matvec, after a warm-up of the same."""
    objective = _Objective(ObjectiveKind.AECS, model)
    objective(point).curvature()[0](point)
    tracemalloc.start()
    try:
        evaluation = objective(point)
        matvec, _ = evaluation.curvature()
        matvec(point)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def test_a_table_evaluation_holds_no_copy_of_its_rows(rng):
    # 300 rows of a 300-node table, the whole spectrum selected: a rows copy
    # is 300 * 300 * 8 bytes = 0.72 MB.  The gradient and the Newton
    # products read the table in place, so the evaluation, its Hessian
    # callable and one matvec together peak far below one copy (0.03 of
    # one, against 1.10 where each took its own rows), and what the
    # evaluation keeps alive after the call is less still.
    size = 300
    model = cs.SpectralModel(range(1, size + 1),
                             rng.uniform(0.1, 1.0, (size, size)), size)
    objective = _Objective(ObjectiveKind.AECS, model)
    point = np.full(size, 1.0 / size)
    objective(point).curvature()
    tracemalloc.start()
    try:
        evaluation = objective(point)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert evaluation.curvature is not None
    assert held < 0.25 * size * size * 8
    assert _table_evaluation_peak(model, point) < 0.25 * size * size * 8


def test_a_top_n_table_evaluation_copies_its_selected_rows_only(rng):
    # K = 400 rows of a 300-node table, 5 selected: one K x m copy is
    # 0.96 MB, the 5 selected rows 12 kB.  The evaluation, its Hessian
    # callable and one matvec may gather the selected rows, never a
    # temporary the size of the table.
    modes, size, order = 400, 300, 5
    model = cs.SpectralModel(range(1, size + 1),
                             rng.uniform(0.1, 1.0, (modes, size)), order)
    point = np.full(size, 1.0 / size)
    assert _table_evaluation_peak(model, point) < 0.1 * modes * size * 8


@pytest.mark.parametrize("modes,order", [(40, 40), (40, 5)])
def test_table_derivatives_match_the_row_copy_oracle(rng, modes, order):
    # The gradient, the Hessian product and its diagonal of a full-spectrum
    # and of a top-n table, against the same from a copy of the selected
    # rows (oracles.table_derivatives), to 1e-13 relative.
    size = 30
    model = cs.SpectralModel(range(1, size + 1),
                             rng.uniform(0.1, 1.0, (modes, size)), order)
    for kind in ObjectiveKind:
        point = interior_point(rng, size)
        pairs = model.eigenpairs(point)
        evaluation = _Objective(kind, model)(point)
        gradient, product, diagonal = table_derivatives(model, pairs, SCORES[kind])
        matvec, got_diagonal = evaluation.curvature()
        np.testing.assert_allclose(evaluation.gradient, gradient, rtol=1e-13)
        np.testing.assert_allclose(got_diagonal, diagonal, rtol=1e-13)
        for v in rng.uniform(0.0, 1.0, (2, size)):
            np.testing.assert_allclose(matvec(v), product(v), rtol=1e-13)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.floats(1 / 50, 1 / 8), st.booleans(),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_a_table_on_its_nonzeros_matches_the_dense_formulas(modes, size, density, full,
                                                            capped, seed):
    # Tables with K, m <= 40 and 1/50 to 1/8 of their entries nonzero (more
    # where n rows need one each), scored on all their rows or on fewer:
    # the value, gradient, Hessian product and Hessian diagonal of the
    # nonzero path against the row-copy oracle, to 1e-13 relative, at a
    # point inside the simplex or a capped simplex.
    rng = np.random.default_rng(seed)
    order = modes if full or modes == 1 else int(rng.integers(1, modes))
    table = np.zeros((modes, size))
    needed = rng.choice(modes, order, replace=False)
    table[needed, rng.integers(0, size, order)] = 1.0
    extra = round(density * modes * size) - order
    if extra > 0:
        table.flat[rng.choice(modes * size, extra, replace=False)] = 1.0
    scales = 2.0 ** rng.integers(-20, 21, table.shape)
    table *= rng.uniform(0.5, 1.0, table.shape) * scales
    model = table_model(table, order, sparse=True)
    raw = rng.uniform(0.1, 1.0, size)
    caps = np.minimum(1.0, 2.0 * raw / raw.sum()) if capped else np.ones(size)
    point = 0.5 * (cs.central_point(caps).values
                   + cs.project_capped_simplex(rng.dirichlet(np.ones(size)), caps))
    pairs = model.eigenpairs(point)
    mu = table[pairs.selected] @ point
    assert pairs.positive
    np.testing.assert_allclose(pairs.values, mu, rtol=1e-13)
    for kind in ObjectiveKind:
        score = SCORES[kind]
        evaluation = _Objective(kind, model)(point)
        terms = score.phi(mu)
        assert abs(evaluation.value - terms.sum()) <= 1e-13 * np.abs(terms).sum()
        gradient, product, diagonal = table_derivatives(model, pairs, score)
        matvec, got_diagonal = evaluation.curvature()
        np.testing.assert_allclose(evaluation.gradient, gradient, rtol=1e-13)
        np.testing.assert_allclose(got_diagonal, diagonal, rtol=1e-13)
        for v in rng.uniform(0.0, 1.0, (2, size)):
            np.testing.assert_allclose(matvec(v), product(v), rtol=1e-13)


def _permuted_diagonal(rng, modes: int, size: int, count: int, power: int) -> np.ndarray:
    """A K x m table with ``count`` nonzeros, at most one in each row and
    column, times ``2**power``."""
    table = np.zeros((modes, size))
    rows = rng.choice(modes, count, replace=False)
    cols = rng.choice(size, count, replace=False)
    table[rows, cols] = np.ldexp(rng.uniform(0.1, 1.0, count), power)
    return table


@pytest.mark.parametrize("power", [-60, 0, 60])
@pytest.mark.parametrize("modes, size, count",
                         [(30, 30, 30), (40, 25, 22), (20, 35, 18)])
def test_a_table_with_one_nonzero_per_row_and_column_keeps_its_bits(rng, power, modes,
                                                                    size, count):
    # Every sum of the nonzero path then has one term, as has every sum of
    # the dense path: the evaluation, its Hessian and the whole solve give
    # the same bits on both, at binary scales far from 1.
    table = _permuted_diagonal(rng, modes, size, count, power)
    sparse, dense = (table_model(table, count, sparse=flag) for flag in (True, False))
    point = interior_point(rng, size, 0.01)
    got, want = sparse.eigenpairs(point), dense.eigenpairs(point)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.selected, want.selected)
    for kind in ObjectiveKind:
        got, want = (_Objective(kind, model)(point) for model in (sparse, dense))
        assert got.value == want.value
        assert np.array_equal(got.gradient, want.gradient)
        (got_matvec, got_diagonal), (want_matvec, want_diagonal) = (
            got.curvature(), want.curvature())
        assert np.array_equal(got_diagonal, want_diagonal)
        for v in rng.standard_normal((2, size)):
            assert np.array_equal(got_matvec(v), want_matvec(v))
        got, want = (cs.solve(kind, model) for model in (sparse, dense))
        assert got.converged and got.uniqueness_certified
        assert np.array_equal(got.weights.values, want.weights.values)
        assert (got.objective, got.kkt_residual, got.iterations) == (
            want.objective, want.kkt_residual, want.iterations)


def test_evaluate_gives_a_hessian_at_a_near_degenerate_point():
    # The solver skips Newton at a tie; evaluate still returns the matrix.
    model = cs.SpectralModel((1, 2), np.eye(2), 1)
    got = cs.evaluate(ObjectiveKind.AECS, model, [0.5, 0.5])
    assert got.near_degenerate
    np.testing.assert_array_equal(got.hessian, [[16.0, 0.0], [0.0, 0.0]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("modes", [2, 40], ids=["dense", "sparse"])
def test_an_aecs_hessian_past_the_double_range_is_not_finite_without_a_warning(modes):
    # mu_2^4 underflows, so the curvature 2 / mu_2^3 is infinite: the value
    # and gradient stay finite, and the Hessian reads inf or nan, as the
    # descent's Newton test expects, where it once warned "divide by zero".
    table = np.zeros((modes, 2))
    table[0, 0], table[1, 1] = 1.0, 1e-90
    evaluation = cs.evaluate(ObjectiveKind.AECS, cs.SpectralModel((1, 2), table),
                             [0.5, 0.5])
    assert evaluation.feasible and np.isfinite(evaluation.gradient).all()
    assert not np.isfinite(evaluation.curvature()[1]).all()
    assert not np.isfinite(evaluation.hessian).all()


@pytest.mark.parametrize("order", [2.5, 3.9, 0, -1, 4, np.int64(2)])
@pytest.mark.parametrize("builder", ORDER_BUILDERS)
def test_one_score_order_rule(builder, order):
    # The order is set only where a model is made, and every way of making
    # one reads it the same way: an integer in 1..mode_count (numpy integers
    # included), never a truncated float.  Everything else reads the field.
    if not isinstance(order, np.integer):
        with pytest.raises(cs.IndexMismatch, match="score order"):
            ORDER_BUILDERS[builder](order)
        return
    model = ORDER_BUILDERS[builder](order)
    point = [0.5, 0.3, 0.2]
    assert type(model.score_order) is int and model.score_order == 2
    assert cs.check_feasibility(model).score_order == 2
    mu = model.eigenpairs(point).values
    assert mu.size == 2
    assert cs.evaluate(ObjectiveKind.VCS, model, point).value == -np.log(mu).sum()
    assert cs.reachable_ellipsoid(model, point).semi_axes.size == 2


def test_a_stale_positional_count_is_a_type_error():
    # caps and seed are keyword-only, so an order passed where a count used
    # to go cannot be read as caps.
    model = cs.heat_dirichlet_model([1, 2, 3])
    for call in (lambda: cs.solve(ObjectiveKind.VCS, model, 3),
                 lambda: cs.grid_oracle(ObjectiveKind.VCS, model, 3),
                 lambda: cs.kkt_residual(ObjectiveKind.VCS, model, [0.5, 0.3, 0.2], 3),
                 lambda: cs.check_feasibility(model, 3),
                 lambda: cs.evaluate(ObjectiveKind.VCS, model, [0.5, 0.3, 0.2], 3),
                 lambda: cs.check_n_spectrum(model, 3),
                 lambda: model.eigenpairs([0.5, 0.3, 0.2], 3),
                 lambda: cs.reachable_ellipsoid(model, [0.5, 0.3, 0.2], 3)):
        with pytest.raises(TypeError):
            call()
