import math

import numpy as np
import pytest

from conftest import (
    dominant_matrix,
    eigenvector_family,
    random_commuting_family,
    random_diagonal_model,
    random_stable_matrix,
)
from oracles import NotCommuting, spectral_model_from_gramians, top_eigenvalues

import ctrlscore as cs
from ctrlscore import spectral

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


def test_a_table_and_its_diagonal_gramians_have_one_n_spectrum_residual(rng):
    table = rng.uniform(0.0, 1.0, (5, 4)) * np.array([1.0, 1e-3, 1e3, 1e-200])
    family = cs.NodeGramianFamily((1, 2, 3, 4), [np.diag(col) for col in table.T], 3)
    ok, residual = cs.check_n_spectrum(cs.SpectralModel((1, 2, 3, 4), table, 3))
    assert not ok and residual > 0.1
    assert residual == pytest.approx(cs.check_n_spectrum(family)[1], rel=1e-14)


def _scaled_models(rng, power):
    """A 3 x 3 table with ``n`` 2 and a d = 8 family with ``n`` 3, each
    times ``2**power``."""
    table = np.array([[1.0, 0.2, 0.1], [0.1, 0.9, 0.3], [0.05, 0.01, 0.4]])
    grams = dominant_family(rng, 8).gramians
    return (cs.SpectralModel((1, 2, 3), np.ldexp(table, power), 2),
            cs.NodeGramianFamily(tuple(range(1, 9)), np.ldexp(grams, power), 3))


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
