import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dominant_matrix,
    eigenvector_family,
    random_commuting_family,
    random_diagonal_model,
    random_stable_matrix,
)
from oracles import (NotCommuting, dense_table, n_spectrum_residual,
                     spectral_model_from_gramians, top_eigenvalues)

import ctrlscore as cs
from ctrlscore import linsys, spectral
from ctrlscore.scores import _Objective

TWO_PI_SQ = 2.0 * np.pi**2


def heat_embedded_family(indices):
    """The heat model realized as an actual diagonal Gramian family."""
    modes = np.asarray(indices, dtype=float)
    system = cs.check_stability(np.diag(-np.pi**2 * modes**2))
    return cs.gramian_family(system, range(1, len(indices) + 1))


def test_single_mode_table():
    model = cs.heat_dirichlet_model([1])
    assert model.eigen_table[0, 0] == pytest.approx(0.050660, abs=1e-6)
    assert model.eigen_table[0, 0] == pytest.approx(1.0 / TWO_PI_SQ, rel=1e-15)


def test_mode_squared_scaling():
    model = cs.heat_dirichlet_model([1, 2])
    want = np.diag([1.0 / TWO_PI_SQ, 1.0 / (4.0 * TWO_PI_SQ)])
    np.testing.assert_allclose(model.eigen_table, want, rtol=1e-15)
    modes = [3, 1, 40, 7, 1000]
    entries = [1.0 / (2.0 * np.pi**2 * k**2) for k in modes]  # one mode at a time
    assert np.array_equal(cs.heat_dirichlet_model(modes).eigen_table, np.diag(entries))


def test_a_heat_model_is_its_array_to_15_nodes_and_its_diagonal_from_16():
    for size, sparse in ((15, False), (16, True)):
        table = cs.heat_dirichlet_model(range(1, size + 1)).eigen_table
        assert isinstance(table, spectral.Nonzeros) == sparse
        want = np.diag(1.0 / (2.0 * np.pi**2 * np.arange(1.0, size + 1.0)**2))
        assert np.array_equal(dense_table(table), want)


def test_a_heat_model_of_5000_nodes_builds_no_table_sized_array():
    # Built by np.diag and kept beside its nonzeros, heat 1..5000 peaked at
    # 405.7 MiB traced and kept 191 MiB.
    tracemalloc.start()
    try:
        model = cs.heat_dirichlet_model(range(1, 5001))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20
    for kind in cs.ObjectiveKind:
        result = cs.solve(kind, model)
        assert result.converged
        np.testing.assert_allclose(result.weights.values,
                                   cs.closed_form_optimum(kind, model).values,
                                   rtol=0.0, atol=1e-12)


def test_a_model_of_a_writeable_sparse_array_keeps_its_nonzeros_alone():
    # The array was copied and kept beside its nonzeros: 30.6 MiB.
    table = np.diag(np.arange(1.0, 2001.0))
    tracemalloc.start()
    try:
        model = cs.SpectralModel(range(1, 2001), table)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 2**20
    assert isinstance(model.eigen_table, spectral.Nonzeros)
    assert table.flags.writeable


def test_empty_and_bad_index_sets():
    with pytest.raises(cs.EmptyIndexSet):
        cs.heat_dirichlet_model([])
    with pytest.raises(cs.BadIndexSet):
        cs.heat_dirichlet_model([0, 1])
    with pytest.raises(cs.BadIndexSet):
        cs.heat_dirichlet_model([2, 2])
    with pytest.raises(cs.IndexMismatch):
        cs.heat_dirichlet_model([1, 2], score_order=3)
    with pytest.raises(cs.IndexMismatch):
        cs.heat_dirichlet_model([1, 2], score_order=0)


LABEL_MAKERS = {
    "table": lambda nodes: cs.SpectralModel(nodes, np.eye(3)[:, :len(nodes)]),
    "heat": lambda nodes: cs.heat_dirichlet_model(nodes),
    "family": lambda nodes: cs.NodeGramianFamily(nodes, [np.eye(2)] * len(nodes)),
    "lti": lambda nodes: cs.gramian_family(cs.check_stability(-np.eye(3)), nodes),
}


@pytest.mark.parametrize("labels,error,message", [
    ((1, 2, 1), cs.BadIndexSet, r"node indices must be distinct, got \(1, 2, 1\)"),
    ((0, 1, 2), cs.BadIndexSet, r"node indices must be >= 1, got \(0, 1, 2\)"),
    ((2, -1, 3), cs.BadIndexSet, r"node indices must be >= 1, got \(2, -1, 3\)"),
    ((1.5, 2, 3), cs.BadIndexSet, r"node indices must be integers, got \(1.5, 2, 3\)"),
    ((1.0, 2, 3), cs.BadIndexSet, "node indices must be integers"),
    ((), cs.EmptyIndexSet, "node index set is empty"),
], ids=["repeated", "zero", "negative", "fraction", "float", "empty"])
@pytest.mark.parametrize("make", LABEL_MAKERS)
def test_every_constructor_applies_the_one_label_rule(make, labels, error, message):
    with pytest.raises(error, match=message):
        LABEL_MAKERS[make](labels)


def test_numpy_integer_labels_become_python_ints():
    for make in LABEL_MAKERS.values():
        labels = make(np.arange(1, 4)).node_indices
        assert labels == (1, 2, 3) and all(type(i) is int for i in labels)


@pytest.mark.parametrize("make", [
    lambda: cs.SpectralModel((1, 2), np.eye(2)),
    lambda: cs.NodeGramianFamily((1, 2), [np.eye(2), np.eye(2)]),
], ids=["table", "family"])
def test_models_compare_by_identity(make):
    model, twin = make(), make()
    assert model == model
    assert model != twin
    keyed = {model: "a", twin: "b"}
    assert (keyed[model], keyed[twin], len({model, twin, model})) == ("a", "b", 2)


def test_heat_score_order_is_any_table_order():
    model = cs.heat_dirichlet_model([1, 2, 3], score_order=2)
    assert model.score_order == 2
    assert cs.heat_dirichlet_model([1, 2, 3]).score_order == 3


def test_model_eigenvalues_heat_pair():
    model = cs.heat_dirichlet_model([1, 2])
    got = model.eigenpairs([0.5, 0.5]).values
    np.testing.assert_allclose(got, [0.025330295910584444, 0.006332573977646111],
                               rtol=1e-12)
    got = model.eigenpairs([1.0, 0.0]).values
    np.testing.assert_allclose(got, [1.0 / TWO_PI_SQ, 0.0], rtol=1e-15)


def test_model_eigenvalues_match_matrix_oracle(rng):
    model = random_diagonal_model(rng, 4)
    weights = rng.dirichlet(np.ones(4))
    got = model.eigenvalues(weights[None, :])[0]
    assembled = model.eigen_table @ weights
    want = top_eigenvalues(np.diag(assembled), 4)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_check_commuting_diagonal_family():
    family = cs.gramian_family(cs.check_stability(np.diag([-1.0, -2.0])), [1, 2])
    ok, residual = cs.check_commuting(family)
    assert ok and residual == 0.0


def test_check_commuting_nondiagonal_family():
    family = cs.gramian_family(
        cs.check_stability(np.array([[-1.0, 1.0], [0.0, -2.0]])), [1, 2]
    )
    ok, residual = cs.check_commuting(family)
    assert not ok
    assert residual > 1e-3


def test_check_commuting_spectral_model():
    ok, residual = cs.check_commuting(cs.heat_dirichlet_model([1, 2, 3]))
    assert ok and residual == 0.0


def test_commuting_for_selfadjoint_eigenvector_nodes(rng):
    family = random_commuting_family(rng, 4)
    ok, residual = cs.check_commuting(family)
    assert ok
    assert residual <= 1e-12


def slow_commuting_family(rng, dim):
    """Commuting family whose Gramian norms lie on both sides of 1."""
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return eigenvector_family(basis, -rng.uniform(0.1, 1.0, dim))


def binary_unit(gram):
    """``gram`` times the power of two that puts its largest absolute entry
    in [1/2, 1)."""
    return np.ldexp(gram, -math.frexp(np.abs(gram).max())[1])


def pairwise_residual(grams) -> float:
    """The commutator residual from all m(m-1)/2 products, pair by pair:
    the exact ratio on the binary units of both Gramians."""
    want = 0.0
    for i in range(len(grams)):
        for j in range(i + 1, len(grams)):
            first, second = binary_unit(grams[i]), binary_unit(grams[j])
            den = np.linalg.norm(first) * np.linalg.norm(second)
            if den > 0.0:
                cross = first @ second
                want = max(want, float(np.linalg.norm(cross - cross.T) / den))
    return want


@pytest.mark.parametrize("commuting", [False, True])
def test_check_commuting_matches_the_pairwise_formula_to_the_bit(rng, commuting):
    if commuting:
        family = slow_commuting_family(rng, 6)
    else:
        slow = 0.4 * random_stable_matrix(rng, 6)
        family = cs.gramian_family(cs.check_stability(slow), range(1, 7))
    grams = family.gramians
    ok, residual = cs.check_commuting(family)
    assert residual == pairwise_residual(grams)
    assert ok == commuting


def dominant_family(rng, dim: int) -> cs.NodeGramianFamily:
    """Node Gramians of a dense system like the benchmark's
    (:func:`~conftest.dominant_matrix`), which do not commute."""
    return cs.gramian_family(cs.check_stability(dominant_matrix(rng, dim)),
                             range(1, dim + 1))


def near_tolerance_family(rng, dim: int) -> cs.NodeGramianFamily:
    """Gramians on one shared eigenbasis, but the first also holds a
    rank-one term along a random direction, sized so that the residual
    lands just below CHECK_TOL."""
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    grams = np.einsum("ak,ik,bk->iab", basis, rng.uniform(0.5, 1.0, (dim, dim)), basis)
    grams = 0.5 * (grams + grams.transpose(0, 2, 1))
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    grams[0] += 40.0 * spectral.CHECK_TOL * np.outer(direction, direction)
    return family_of(grams)


def family_of(grams) -> cs.NodeGramianFamily:
    return cs.NodeGramianFamily(tuple(range(1, len(grams) + 1)), grams)


def with_zero_gramian(family) -> cs.NodeGramianFamily:
    grams = family.gramians.copy()
    grams[2] = 0.0
    return family_of(grams)


def with_asymmetric_gramian(family) -> cs.NodeGramianFamily:
    """The family with Gramian 2 symmetric within tolerance, not exactly."""
    grams = family.gramians.copy()
    grams[1, 0, 1] += 1e-13
    return family_of(grams)


def scaled_family(rng, scale: float) -> cs.NodeGramianFamily:
    return family_of(scale * dominant_family(rng, 8).gramians)


#: Families for the pruned commutator check, each from the test's rng.
#: Scaled by 1e150 or 1e-150 the norms lie outside ``_BOUND_NORMS`` and every
#: pair is computed; at 1e60, 1e-60 and 1e-78 the bounds prune.
PRUNED_CHECK_FAMILIES = {
    "commuting": lambda rng: slow_commuting_family(rng, 6),
    "noncommuting": lambda rng: dominant_family(rng, 12),
    "near-tolerance": lambda rng: near_tolerance_family(rng, 6),
    "zero-gramian": lambda rng: with_zero_gramian(dominant_family(rng, 8)),
    "asymmetric": lambda rng: with_asymmetric_gramian(dominant_family(rng, 8)),
    "one-node": lambda rng: family_of(dominant_family(rng, 4).gramians[:1]),
    "two-nodes": lambda rng: cs.gramian_family(
        cs.check_stability(0.4 * random_stable_matrix(rng, 3)), [1, 3]),
    "scaled-1e150": lambda rng: scaled_family(rng, 1e150),
    "scaled-1e-150": lambda rng: scaled_family(rng, 1e-150),
    "scaled-1e60": lambda rng: scaled_family(rng, 1e60),
    "scaled-1e-60": lambda rng: scaled_family(rng, 1e-60),
    "scaled-1e-78": lambda rng: scaled_family(rng, 1e-78),
}


@pytest.mark.parametrize("name", sorted(PRUNED_CHECK_FAMILIES))
def test_pruned_check_matches_the_pairwise_loop_to_the_bit(rng, name):
    family = PRUNED_CHECK_FAMILIES[name](rng)
    want = pairwise_residual(family.gramians)
    ok, residual = cs.check_commuting(family)
    assert residual == want
    assert ok == (want <= spectral.CHECK_TOL)
    if name == "near-tolerance":
        assert 0.5 * spectral.CHECK_TOL < residual <= spectral.CHECK_TOL
    if name == "commuting":
        assert ok


@pytest.mark.parametrize("name", sorted(PRUNED_CHECK_FAMILIES))
def test_every_exact_residual_is_at_most_its_bound(rng, name):
    grams = PRUNED_CHECK_FAMILIES[name](rng).gramians
    units = spectral._node_units(grams)
    bounds = spectral._commutator_bounds(grams, units)
    for i in range(len(grams)):
        for j in range(i + 1, len(grams)):
            assert spectral._pair_residual(grams, i, j, units) <= bounds[i, j]
    if name in ("noncommuting", "zero-gramian", "scaled-1e-78"):
        assert np.isfinite(bounds).all()
    if name == "asymmetric":  # only Gramian 2 takes an exact product per pair
        assert np.isinf(bounds[1]).all() and np.isinf(bounds[:, 1]).all()
        assert np.isfinite(np.delete(np.delete(bounds, 1, 0), 1, 1)).all()


def slow_noncommuting_family(time_unit: float) -> cs.NodeGramianFamily:
    """The non-commuting pair ``A = [[-1, 1], [0, -2]]`` with time measured
    in ``time_unit``: its Gramians scale by ``1 / time_unit``."""
    a = time_unit * np.array([[-1.0, 1.0], [0.0, -2.0]])
    return cs.gramian_family(cs.check_stability(a), [1, 2])


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e100, 1e200])
def test_a_scaled_family_reports_its_unit_time_residual(scale):
    # Gramian norms near 1e100 once overflowed the residual's sum of squares
    # to inf, and near 1e200 the product itself to NaN.  A ratio on binary
    # units is finite at any scale; only the rounding of the scaling moves it.
    grams = slow_noncommuting_family(1.0).gramians
    ok, want = cs.check_commuting(family_of(grams))
    report = cs.check_feasibility(family_of(scale * grams))
    assert not ok and not report.commuting and not report.all_pass()
    assert report.commutator_residual == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("power", [-1000, -300, 300, 1000])
def test_a_family_scaled_by_a_power_of_two_has_the_same_residual_to_the_bit(power):
    grams = slow_noncommuting_family(1.0).gramians
    want = cs.check_commuting(family_of(grams))
    assert cs.check_commuting(family_of(np.ldexp(grams, power))) == want


@pytest.mark.parametrize("time_unit", [1e-100, 1e-200])
def test_a_solve_in_slow_time_units_checks_a_finite_commutator(time_unit):
    # The solve checks the family as given, with a residual that is finite
    # in any unit, and fails the check as at unit time.
    result = cs.solve(cs.ObjectiveKind.VCS, slow_noncommuting_family(time_unit))
    base = cs.solve(cs.ObjectiveKind.VCS, slow_noncommuting_family(1.0))
    assert result.converged
    assert not result.uniqueness_certified
    residual = result.assumption_report.commutator_residual
    assert np.isfinite(residual) and residual > spectral.CHECK_TOL
    np.testing.assert_allclose(result.weights.values, base.weights.values,
                               rtol=0, atol=1e-9)


def test_pruned_check_multiplies_few_pairs_of_a_dense_family(rng, monkeypatch):
    family = dominant_family(rng, 80)
    exact = spectral._pair_residual
    calls = []

    def counted(*args):
        calls.append(args[1:3])
        return exact(*args)

    monkeypatch.setattr(spectral, "_pair_residual", counted)
    ok, residual = cs.check_commuting(family)
    assert not ok
    assert len(calls) < 0.05 * (80 * 79 // 2)
    assert residual == pairwise_residual(family.gramians)
    # Each pair left out has a bound below the residual found.
    bounds = spectral._commutator_bounds(family.gramians,
                                         spectral._node_units(family.gramians))
    skipped = np.triu(np.ones((80, 80), dtype=bool), 1)
    skipped[tuple(np.array(calls).T)] = False
    assert (bounds[skipped] < residual).all()


def test_n_spectrum_heat_full_and_reduced():
    ok, residual = cs.check_n_spectrum(cs.heat_dirichlet_model([1, 2, 3]))
    assert ok and residual == 0.0
    # Mode 3 lies wholly outside the two selected rows.
    ok, residual = cs.check_n_spectrum(cs.heat_dirichlet_model([1, 2, 3], 2))
    assert not ok
    assert residual == 1.0


def test_n_spectrum_excess_rows_fixture():
    # Two selected rows; a column's residual is the norm of its entries in
    # the third row over the column's norm.
    table = np.array([[1.0, 0.2], [0.1, 0.9], [0.03, 0.01]])
    model = cs.SpectralModel((1, 2), table, 2)
    ok, residual = cs.check_n_spectrum(model)
    assert not ok
    assert residual == pytest.approx(0.03 / np.sqrt(1.0109), rel=1e-15)


def _sparse_tables(rng):
    """``(table, n)`` of sparse tables small enough for a Gramian family,
    each with a residual strictly between 0 and 1: the lattice's 40 x 3, a
    48-mode tridiagonal band and a 60 x 5 table with two nonzeros in each
    column, its columns scaled from 1e-150 to 1e150."""
    band = np.diag(rng.uniform(0.5, 1.5, 48))
    band += np.diag(rng.uniform(0.0, 0.3, 47), 1) + np.diag(rng.uniform(0.0, 0.3, 47), -1)
    scattered = np.zeros((60, 5))
    scattered[np.arange(5), np.arange(5)] = rng.uniform(2.0, 3.0, 5)
    scattered[np.arange(10, 60, 10), np.arange(5)] = rng.uniform(0.5, 1.0, 5)
    return [(_SPARSE_SMALL, 4), (band, 47),
            (scattered * np.array([1e-150, 1e-3, 1.0, 1e3, 1e150]), 9)]


def test_a_table_and_its_diagonal_gramians_have_one_n_spectrum_residual(rng):
    # The Gramian family's residual comes from an eigendecomposition of
    # sum_i W_i, not from the table's rows: a dense table, then sparse ones
    # that the model holds as nonzeros.
    dense = (rng.uniform(0.0, 1.0, (5, 4)) * np.array([1.0, 1e-3, 1e3, 1e-200]), 3)
    for table, order in [dense, *_sparse_tables(rng)]:
        labels = tuple(range(1, table.shape[1] + 1))
        model = cs.SpectralModel(labels, table, order)
        assert isinstance(model.eigen_table, spectral.Nonzeros) == (table is not dense[0])
        family = cs.NodeGramianFamily(labels, [np.diag(col) for col in table.T], order)
        ok, residual = cs.check_n_spectrum(model)
        assert not ok and 0.1 < residual < 1.0
        assert residual == pytest.approx(cs.check_n_spectrum(family)[1], rel=1e-14)


def _scaled_models(rng, power):
    """A 3 x 3 table with ``n`` 2, a d = 8 family with ``n`` 3 and the
    sparse 40 x 3 table, held as its nonzeros, with ``n`` 4, each times
    ``2**power``."""
    table = np.array([[1.0, 0.2, 0.1], [0.1, 0.9, 0.3], [0.05, 0.01, 0.4]])
    grams = dominant_family(rng, 8).gramians
    return (cs.SpectralModel((1, 2, 3), np.ldexp(table, power), 2),
            cs.NodeGramianFamily(tuple(range(1, 9)), np.ldexp(grams, power), 3),
            cs.SpectralModel((1, 2, 3), np.ldexp(_SPARSE_SMALL, power), 4))


@pytest.mark.parametrize("power", [-900, -300, 300, 900])
def test_checks_give_the_same_report_to_the_bit_at_every_binary_scale(power):
    for model, scaled in zip(_scaled_models(np.random.default_rng(5), 0),
                             _scaled_models(np.random.default_rng(5), power)):
        want, got = cs.check_feasibility(model), cs.check_feasibility(scaled)
        assert got.nth_eigenvalue == pytest.approx(
            np.ldexp(want.nth_eigenvalue, power), rel=1e-12)
        assert np.array_equal(got.witness.values, want.witness.values)
        for field in ("feasible", "commuting", "commutator_residual",
                      "n_spectrum", "n_spectrum_residual"):
            assert getattr(got, field) == getattr(want, field), field
        assert not want.n_spectrum


@pytest.mark.parametrize("time_unit", [1.0, 1e-9, 1e9])
def test_the_six_state_family_fails_the_commuting_check_in_every_time_unit(time_unit):
    # At time unit 1e9 the residual read 4.9e-19 and the check passed.
    raw = np.random.default_rng(0).standard_normal((6, 6))
    dynamics = raw - (np.max(np.linalg.eigvals(raw).real) + 0.5) * np.eye(6)
    report = cs.check_feasibility(
        cs.gramian_family(cs.check_stability(time_unit * dynamics), range(1, 7), 3))
    assert not report.commuting
    assert report.commutator_residual == pytest.approx(0.556602603201, abs=1e-12)


def test_feasibility_heat_barycenter():
    report = cs.check_feasibility(cs.heat_dirichlet_model([1, 2, 3, 4]))
    assert report.feasible
    np.testing.assert_allclose(report.witness.values, np.full(4, 0.25))
    assert report.nth_eigenvalue > 0.0
    assert report.all_pass()


def test_feasibility_rank_deficient_table():
    table = np.array([[1.0, 0.0], [0.0, 0.0]])
    report = cs.check_feasibility(cs.SpectralModel((1, 2), table, 2))
    assert not report.feasible
    assert report.witness is None
    assert report.nth_eigenvalue == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_a_table_is_feasible_exactly_when_n_rows_reach_a_capped_node(modes, nodes,
                                                                    seed):
    # Entries span 26 orders of magnitude, so a ratio floor on mu_n would
    # misread some tables; zeroed entries and zero caps shrink the support.
    rng = np.random.default_rng(seed)
    table = 10.0 ** rng.uniform(-13.0, 13.0, (modes, nodes))
    table[rng.random((modes, nodes)) < 0.5] = 0.0
    caps = rng.choice([0.0, 0.4, 1.0], nodes)
    if caps.sum() < 1.0:
        caps[rng.integers(nodes)] = 1.0
    order = int(rng.integers(1, modes + 1))
    model = cs.SpectralModel(tuple(range(1, nodes + 1)), table, order)
    supported = np.count_nonzero(table[:, caps > 0].any(axis=1))
    feasible = supported >= order
    report = cs.check_feasibility(model, caps=caps)
    point = cs.central_point(caps)
    np.testing.assert_array_equal(point.values > 0, caps > 0)
    assert report.feasible == feasible
    assert (report.witness is None) != feasible
    assert (report.reason == "") == feasible
    if not feasible:
        assert report.reason.startswith(f"{supported} of n = {order} needed table rows")
    for kind in cs.ObjectiveKind:
        objective = _Objective(kind, model)
        assert math.isfinite(objective.batch_values(point.values[None])[0]) == feasible
        assert cs.evaluate(kind, model, point).feasible == feasible
    target = model.state_basis(model.eigenpairs(point))[:, 0]
    if feasible:
        assert cs.min_energy(model, point, target) > 0.0
    else:
        with pytest.raises(cs.RankDeficient):
            cs.min_energy(model, point, target)


@pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
def test_a_family_counts_mu_n_positive_above_d_eps_mu_1(factor):
    # W(p) = diag(p_1, c p_2) at the central point has mu = (1/2, c/2): the
    # rule reads c / 2 > 2 eps / 2, so c = 2 eps is the edge.
    c = factor * 2.0 * linsys.FACTOR_FLOOR
    family = cs.NodeGramianFamily((1, 2), [np.diag([1.0, 0.0]), np.diag([0.0, c])])
    report = cs.check_feasibility(family)
    assert report.feasible == (factor > 1.0)
    assert report.nth_eigenvalue == c / 2
    if factor <= 1.0:
        assert report.reason == (
            f"mu_2 = {c / 2:.3e} at the central point is not above d eps mu_1 = "
            f"2 * 2.220e-16 * 5.000e-01 = 2.220e-16")
        with pytest.raises(cs.Infeasible, match=r"not above d eps mu_1 = 2 \* "):
            cs.solve(cs.ObjectiveKind.VCS, family)
    else:
        assert cs.solve(cs.ObjectiveKind.VCS, family).converged


def test_feasibility_random_diagonal_formula(rng):
    model = random_diagonal_model(rng, 4)
    report = cs.check_feasibility(model)
    assert report.feasible
    # at the barycenter every eigenvalue is diag/m, so mu_n is the smallest
    want = np.min(np.diag(model.eigen_table)) / 4.0
    assert report.nth_eigenvalue == pytest.approx(want, rel=1e-12)


def test_joint_diagonalization_diagonal_family():
    family = cs.gramian_family(cs.check_stability(np.diag([-1.0, -2.0])), [1, 2])
    model = spectral_model_from_gramians(family, 2)
    np.testing.assert_allclose(model.eigen_table, [[0.5, 0.0], [0.0, 0.25]],
                               atol=1e-14)


def test_joint_diagonalization_recovers_heat_table():
    family = heat_embedded_family([1, 2, 3])
    model = spectral_model_from_gramians(family, 3)
    want = cs.heat_dirichlet_model([1, 2, 3]).eigen_table
    np.testing.assert_allclose(model.eigen_table, want, atol=1e-12)


def test_joint_diagonalization_shared_eigenvectors():
    mix = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    first = mix @ np.diag([0.3, 0.1]) @ mix.T
    second = mix @ np.diag([0.2, 0.4]) @ mix.T
    family = cs.NodeGramianFamily((1, 2), (first, second))
    model = spectral_model_from_gramians(family, 2)
    rows = {tuple(np.round(row, 12)) for row in model.eigen_table}
    assert rows == {(0.3, 0.2), (0.1, 0.4)}
    # per-node eigenvalues survive the change of basis
    for col, gram in enumerate(family.gramians):
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(gram)),
            np.sort(model.eigen_table[:, col]),
            atol=1e-12,
        )


def test_joint_diagonalization_rejects_noncommuting():
    family = cs.gramian_family(
        cs.check_stability(np.array([[-1.0, 1.0], [0.0, -2.0]])), [1, 2]
    )
    with pytest.raises(NotCommuting):
        spectral_model_from_gramians(family, 2)


def test_joint_diagonalization_reconstruction_property(rng):
    for dim in (3, 4, 5):
        family = random_commuting_family(rng, dim)
        model = spectral_model_from_gramians(family, dim)
        for col, gram in enumerate(family.gramians):
            eigs_model = np.sort(model.eigen_table[:, col])
            eigs_true = np.sort(np.linalg.eigvalsh(gram))
            np.testing.assert_allclose(eigs_model, eigs_true, atol=1e-8)


def test_spectral_model_validation():
    with pytest.raises(cs.IndexMismatch):
        cs.SpectralModel((1, 2), np.array([[1.0, -0.2], [0.0, 1.0]]), 2)
    with pytest.raises(cs.IndexMismatch):
        cs.SpectralModel((1, 2), np.ones((2, 3)), 2)
    with pytest.raises(cs.IndexMismatch):
        cs.SpectralModel((1, 2), np.ones((2, 2)), 3)


def test_spectral_model_leaves_the_callers_table_writeable():
    table = np.diag([1.0, 2.0, 3.0])
    model = cs.SpectralModel((1, 2, 3), table, 3)
    assert table.flags.writeable
    assert not model.eigen_table.flags.writeable
    table[0, 0] = 9.0
    assert model.eigen_table[0, 0] == 1.0


def _table_file(table, order=None) -> str:
    """A spectral_table file of ``table`` with nodes 1..m."""
    rows, width = np.shape(table)
    nodes = " ".join(map(str, range(1, width + 1)))
    lines = "".join(" ".join(map(repr, row)) + "\n" for row in np.asarray(table).tolist())
    n = "" if order is None else f"n {order}\n"
    return (f"ctrlscore-model v1\nkind spectral_table\nnodes {nodes}\n{n}"
            f"table {rows} {width}\n{lines}")


def _parsed_and_array(table, order=None):
    """The model of a parsed file of ``table`` and the model of the array:
    each holds the table's nonzeros alone, found by the parser's scan of
    the text and by the constructor's scan of the array."""
    parsed = cs.parse_model_text(_table_file(table, order)).build()
    array = cs.SpectralModel(parsed.node_indices, table, order)
    for model in (parsed, array):
        assert isinstance(model.eigen_table, spectral.Nonzeros)
    return parsed, array


def _banded(rng, size: int, width: int) -> np.ndarray:
    """A table with ``2 width + 1`` nonzeros in most rows."""
    table = np.zeros((size, size))
    for k in range(size):
        low, high = max(0, k - width), min(size, k + width + 1)
        table[k, low:high] = rng.uniform(0.0, 0.3, high - low)
        table[k, k] = rng.uniform(0.5, 1.5)
    return table


#: Seven nonzeros in 40 x 3 entries, at most 1/16 of them: a sparse table
#: small enough for the lattice.
_SPARSE_SMALL = np.zeros((40, 3))
for _row, _col, _value in [(0, 0, 1.0), (1, 1, 0.5), (2, 2, 0.25), (3, 0, 0.3),
                           (4, 1, 0.2), (5, 2, 0.1), (6, 0, 0.05)]:
    _SPARSE_SMALL[_row, _col] = _value


@pytest.mark.parametrize("kind", list(cs.ObjectiveKind))
def test_the_lattice_oracle_gives_the_arrays_bits_on_a_parsed_sparse_table(kind):
    parsed, array = _parsed_and_array(_SPARSE_SMALL, 3)
    got = cs.grid_oracle(kind, parsed, step=0.05)
    want = cs.grid_oracle(kind, array, step=0.05)
    assert np.array_equal(got[0].values, want[0].values) and got[1] == want[1]


@pytest.mark.parametrize("table, order", [
    (_SPARSE_SMALL, 2),
    (_banded(np.random.default_rng(5), 300, 2), 150),
    (_banded(np.random.default_rng(6), 300, 2)[:, :40], 7),
], ids=["small", "banded", "tall"])
def test_a_top_n_spectrum_check_gives_the_arrays_bits_on_a_parsed_sparse_table(
        table, order):
    parsed, array = _parsed_and_array(table, order)
    got = spectral.check_n_spectrum(parsed)
    assert got == spectral.check_n_spectrum(array) and got[1] > 0.0


@pytest.mark.parametrize("table, order", [
    (_banded(np.random.default_rng(5), 300, 2), 150),
    (np.diag(np.geomspace(1e-300, 1e300, 300)), 150),
    (_banded(np.random.default_rng(6), 300, 2) * np.geomspace(1e-300, 1e300, 300), 150),
], ids=["banded300", "diagonal", "banded-scaled"])
def test_a_top_n_check_on_nonzeros_matches_the_dense_per_column_reference(table, order):
    # The check sums over the nonzeros by np.bincount; the reference takes
    # each column of the dense table in turn.  Squares of 1e300 would
    # overflow without the binary units.
    model = cs.SpectralModel(tuple(range(1, 301)), table, order)
    assert isinstance(model.eigen_table, spectral.Nonzeros)
    ok, residual = cs.check_n_spectrum(model)
    want = n_spectrum_residual(table, order)
    assert not ok and 0.0 < want <= 1.0
    assert residual == pytest.approx(want, rel=1e-15)


def test_the_closed_form_gives_the_arrays_bits_on_a_parsed_sparse_table():
    table = np.diag(np.geomspace(0.1, 10.0, 40))[::-1]
    parsed, array = _parsed_and_array(table)
    for kind in cs.ObjectiveKind:
        assert np.array_equal(cs.closed_form_optimum(kind, parsed).values,
                              cs.closed_form_optimum(kind, array).values)
    shared = table.copy()
    shared[0, :2] = 1.0
    twice = table.copy()
    twice[1, 0] = 1.0
    for bad in (shared, twice):
        parsed, array = _parsed_and_array(bad)
        with pytest.raises(cs.NotDiagonal) as want:
            cs.closed_form_optimum(cs.ObjectiveKind.VCS, array)
        with pytest.raises(cs.NotDiagonal, match=f"^{want.value}$"):
            cs.closed_form_optimum(cs.ObjectiveKind.VCS, parsed)


@pytest.mark.parametrize("build, order", [
    (lambda: cs.parse_model_text(_table_file(_SPARSE_SMALL, 3)).build(), 2),
    (lambda: cs.heat_dirichlet_model(range(1, 41)), 5),
], ids=["parsed", "heat40"])
def test_replace_makes_a_table_model_at_another_order(build, order):
    # A parsed sparse table raised IndexMismatch: its eigen_table was None.
    model = build()
    other = dataclasses.replace(model, score_order=order)
    assert other.score_order == order and other.node_indices == model.node_indices
    assert all(a is b for a, b in zip(other.eigen_table[:3], model.eigen_table[:3]))
    point = cs.central_point(np.ones(model.node_count))
    got, want = other.eigenpairs(point), model.eigenpairs(point)
    assert np.array_equal(got.values, want.values[:order])


def test_a_model_of_nonzeros_holds_them_alone_and_checks_them():
    # Two nonzeros in 40 x 2 entries are sparse; in 3 x 2 they are not, and
    # the model fills them into its array.
    rows, cols = np.array([0, 2]), np.array([1, 0])
    model = cs.SpectralModel((4, 7), spectral.Nonzeros(rows, cols, [2.0, 3.0], (40, 2)))
    assert isinstance(model.eigen_table, spectral.Nonzeros) and model.mode_count == 40
    assert model.score_order == 2 and model.node_indices == (4, 7)
    assert all(not part.flags.writeable for part in model.eigen_table[:3])
    assert rows.flags.writeable
    small = cs.SpectralModel((4, 7), spectral.Nonzeros(rows, cols, [2.0, 3.0], (3, 2)))
    assert np.array_equal(small.eigen_table, [[0.0, 2.0], [0.0, 0.0], [3.0, 0.0]])
    assert not small.eigen_table.flags.writeable
    good = (rows, cols, [2.0, 3.0], (40, 2))
    for change, error, message in [
        ({}, cs.BadIndexSet, "distinct"),
        ({3: (3, 3)}, cs.IndexMismatch, "must have 2 columns"),
        ({2: [2.0, np.inf]}, cs.IndexMismatch, "finite and >= 0"),
        ({2: [2.0, -3.0]}, cs.IndexMismatch, "finite and >= 0"),
        ({0: [0, 40]}, cs.IndexMismatch, "outside its shape"),
        ({1: [-1, 0]}, cs.IndexMismatch, "outside its shape"),
        ({2: [2.0]}, cs.IndexMismatch, "one row and column per value"),
        # A repeated position, which readers summed or overwrote, and one
        # out of row-major order.
        ({0: [0, 0, 1], 1: [0, 0, 1], 2: [1.0, 2.0, 3.0], 3: (2, 2)}, cs.IndexMismatch,
         "row-major order"),
        ({0: [0, 0], 1: [1, 1]}, cs.IndexMismatch, "row-major order"),
        ({0: [2, 0], 1: [0, 1]}, cs.IndexMismatch, "row-major order"),
    ]:
        parts = [change.get(i, part) for i, part in enumerate(good)]
        labels = (4, 4) if not change else (4, 7)
        with pytest.raises(error, match=message):
            cs.SpectralModel(labels, spectral.Nonzeros(*parts))
