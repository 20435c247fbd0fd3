import numpy as np
import pytest

from conftest import (
    eigenvector_family,
    random_commuting_family,
    random_diagonal_model,
    random_stable_matrix,
)
from oracles import NotCommuting, spectral_model_from_gramians, top_eigenvalues

import ctrlscore as cs

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


@pytest.mark.parametrize("make", [
    lambda nodes: cs.SpectralModel(nodes, np.eye(3)),
    lambda nodes: cs.heat_dirichlet_model(nodes),
    lambda nodes: cs.NodeGramianFamily(nodes, np.stack([np.eye(2)] * 3)),
], ids=["table", "heat", "family"])
def test_repeated_node_labels_are_a_bad_index_set(make):
    with pytest.raises(cs.BadIndexSet, match="must be distinct"):
        make((1, 2, 1))


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
    """Commuting family whose Gramian norm products lie on both sides of 1."""
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return eigenvector_family(basis, -rng.uniform(0.1, 1.0, dim))


@pytest.mark.parametrize("commuting", [False, True])
def test_check_commuting_matches_the_pairwise_formula_to_the_bit(rng, commuting):
    if commuting:
        family = slow_commuting_family(rng, 6)
    else:
        slow = 0.4 * random_stable_matrix(rng, 6)
        family = cs.gramian_family(cs.check_stability(slow), range(1, 7))
    grams = family.gramians
    norms = sorted(float(np.linalg.norm(g)) for g in grams)
    assert norms[0] * norms[1] < 1.0 < norms[-2] * norms[-1]  # both sides of max
    want = 0.0
    for i in range(len(grams)):
        for j in range(i + 1, len(grams)):
            cross = grams[i] @ grams[j]
            num = np.linalg.norm(cross - cross.T)
            den = max(1.0, float(np.linalg.norm(grams[i]) * np.linalg.norm(grams[j])))
            want = max(want, float(num / den))
    ok, residual = cs.check_commuting(family)
    assert residual == want
    assert ok == commuting


def test_n_spectrum_heat_full_and_reduced():
    ok, residual = cs.check_n_spectrum(cs.heat_dirichlet_model([1, 2, 3]))
    assert ok and residual == 0.0
    ok, residual = cs.check_n_spectrum(cs.heat_dirichlet_model([1, 2, 3], 2))
    assert not ok
    assert residual == pytest.approx(1.0 / (9.0 * TWO_PI_SQ), rel=1e-12)


def test_n_spectrum_excess_rows_fixture():
    # Two selected rows, a third row whose largest entry is the residual.
    table = np.array([[1.0, 0.2], [0.1, 0.9], [0.03, 0.01]])
    model = cs.SpectralModel((1, 2), table, 2)
    ok, residual = cs.check_n_spectrum(model)
    assert not ok
    assert residual == pytest.approx(0.03)


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
