import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    gramian_by_quadrature,
    interior_point,
    random_stable_family,
    random_stable_matrix,
)
from oracles import node_hessian, node_quadratic_rows, top_eigenvalues

import ctrlscore as cs
from ctrlscore import linsys
from ctrlscore.scores import SCORES


def test_scalar_system_accepted():
    system = cs.check_stability([[-1.0]])
    assert system.spectral_abscissa == pytest.approx(-1.0)
    assert system.n_dim == 1


def test_purely_imaginary_spectrum_rejected():
    with pytest.raises(cs.UnstableSystem):
        cs.check_stability([[0.0, 1.0], [-1.0, 0.0]])


def test_triangular_matrix_abscissa():
    system = cs.check_stability([[-1.0, 100.0], [0.0, -1.0]])
    assert system.spectral_abscissa == pytest.approx(-1.0)


def test_non_square_rejected():
    with pytest.raises(cs.NonSquare):
        cs.check_stability([[1.0, 2.0]])


def test_scalar_gramian_is_half():
    system = cs.check_stability([[-1.0]])
    gram = cs.node_gramian(system, 1)
    assert abs(gram[0, 0] - 0.5) <= 1e-14


def test_decoupled_diagonal_gramian():
    system = cs.check_stability(np.diag([-1.0, -2.0]))
    gram = cs.node_gramian(system, 2)
    np.testing.assert_allclose(gram, np.diag([0.0, 0.25]), atol=1e-14)


def test_gramian_matches_quadrature_oracle():
    a = np.array([[-1.0, 1.0], [0.0, -2.0]])
    system = cs.check_stability(a)
    gram = cs.node_gramian(system, 1)
    direction = np.array([1.0, 0.0])
    oracle = gramian_by_quadrature(a, direction)
    np.testing.assert_allclose(gram, oracle, atol=1e-10)


def test_lyapunov_residual_bound(rng):
    for dim in (2, 3, 5, 8):
        a = random_stable_matrix(rng, dim)
        family = cs.gramian_family(cs.check_stability(a), range(1, dim + 1))
        for idx, gram in zip(family.node_indices, family.gramians):
            direction = np.zeros(dim)
            direction[idx - 1] = 1.0
            residual = np.linalg.norm(
                a @ gram + gram @ a.T + np.outer(direction, direction)
            )
            assert residual <= 1e-10 * max(1.0, np.linalg.norm(gram))


def test_assemble_single_active_node():
    system = cs.check_stability(np.diag([-1.0, -2.0]))
    family = cs.gramian_family(system, [1, 2])
    got = cs.assemble_gramian(family, [1.0, 0.0])
    np.testing.assert_allclose(got, np.diag([0.5, 0.0]), atol=1e-14)
    got = cs.assemble_gramian(family, [0.5, 0.5])
    np.testing.assert_allclose(got, np.diag([0.25, 0.125]), atol=1e-14)


def test_assemble_matches_single_lyapunov_solve(rng):
    # W(p) solves A W + W A^T = -diag(p) in one shot; assembly must agree.
    from scipy.linalg import solve_continuous_lyapunov

    a = random_stable_matrix(rng, 3)
    family = cs.gramian_family(cs.check_stability(a), [1, 2, 3])
    weights = np.full(3, 1.0 / 3.0)
    got = cs.assemble_gramian(family, weights)
    oracle = solve_continuous_lyapunov(a, -np.diag(weights))
    np.testing.assert_allclose(got, oracle, atol=1e-11)


def test_assemble_index_mismatch():
    system = cs.check_stability(np.diag([-1.0, -2.0]))
    family = cs.gramian_family(system, [1, 2])
    with pytest.raises(cs.InvalidWeights, match="expected 2 weights, got 3"):
        cs.assemble_gramian(family, [1.0, 0.0, 0.0])


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(0, 2**31 - 1))
def test_assemble_linearity(alpha, seed):
    sampler = np.random.default_rng(seed)
    a = random_stable_matrix(sampler, 3)
    family = cs.gramian_family(cs.check_stability(a), [1, 2, 3])
    p = sampler.dirichlet(np.ones(3))
    q = sampler.dirichlet(np.ones(3))
    mixed = cs.assemble_gramian(family, alpha * p + (1 - alpha) * q)
    split = (alpha * cs.assemble_gramian(family, p)
             + (1 - alpha) * cs.assemble_gramian(family, q))
    np.testing.assert_allclose(mixed, split, atol=1e-12)


def test_top_eigenvalues_diagonal():
    got = top_eigenvalues(np.diag([0.5, 0.25]), 2)
    np.testing.assert_allclose(got, [0.5, 0.25])


def test_top_eigenvalues_multiplicity():
    got = top_eigenvalues(np.eye(3), 2)
    np.testing.assert_allclose(got, [1.0, 1.0])


def test_top_eigenvalues_matches_full_decomposition(rng):
    raw = rng.standard_normal((4, 4))
    psd = raw @ raw.T
    got = top_eigenvalues(psd, 4)
    want = np.sort(np.linalg.eigvalsh(psd))[::-1]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_top_eigenvalues_rejects_indefinite():
    with pytest.raises(cs.EigenFailure):
        top_eigenvalues(np.diag([1.0, -0.5]), 1)


def test_assembled_gramian_psd(rng):
    family = random_stable_family(rng, 4)
    for _ in range(20):
        weights = rng.dirichlet(np.ones(4))
        eigs = top_eigenvalues(cs.assemble_gramian(family, weights), 4)
        assert eigs[-1] >= -1e-10


def test_eigenvalue_weyl_continuity(rng):
    family = random_stable_family(rng, 4)
    for _ in range(50):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        wp = cs.assemble_gramian(family, p)
        wq = cs.assemble_gramian(family, q)
        gap = np.linalg.norm(wp - wq, ord=2)
        mu_p = top_eigenvalues(wp, 4)
        mu_q = top_eigenvalues(wq, 4)
        assert np.all(np.abs(mu_p - mu_q) <= gap + 1e-10)


def test_default_tol_constant():
    assert linsys.DEFAULT_TOL == 1e-10


def rotated_family(family, basis) -> cs.NodeGramianFamily:
    """The family ``B W_i B^T``: for the system ``B A B^T``, node i entering
    along column i of the orthogonal ``B``."""
    return cs.NodeGramianFamily(family.node_indices, basis @ family.gramians @ basis.T,
                                family.score_order)


@pytest.mark.parametrize("full", [False, True], ids=["count<K", "count=K"])
@settings(max_examples=30, deadline=None)
@given(st.integers(1, 30), st.booleans(), st.booleans(), st.integers(0, 2**31 - 1))
def test_derivative_rows_match_explicit_quadratic_forms(full, dim, subset, rotated, seed):
    # All nodes or a random proper subset; standard or random orthonormal basis.
    rng = np.random.default_rng(seed)
    system = cs.check_stability(random_stable_matrix(rng, dim))
    nodes = np.arange(1, dim + 1)
    if subset and dim > 1:
        nodes = np.sort(rng.choice(nodes, int(rng.integers(1, dim)), replace=False))
    family = cs.gramian_family(system, nodes)
    if rotated:
        family = rotated_family(family, np.linalg.qr(rng.standard_normal((dim, dim)))[0])
    count = dim if full or dim == 1 else int(rng.integers(1, dim))
    family = dataclasses.replace(family, score_order=count)
    pairs = family.eigenpairs(rng.dirichlet(np.ones(family.node_count)))
    rows = family.derivatives(pairs, SCORES[cs.ObjectiveKind.VCS].divided)[0]
    z = pairs.vectors
    want = np.array([[z[:, k] @ gram @ z[:, k] for gram in family.gramians]
                     for k in range(count)])
    assert rows.shape == (count, family.node_count)
    # Relative to |W_i|: z_k is a unit vector, so z_k^T W_i z_k is a sum of
    # terms no larger than |W_i|, and an entry near 0 carries that rounding.
    scale = np.array([np.linalg.norm(gram, 2) for gram in family.gramians])
    assert np.all(np.abs(rows - want) <= 1e-12 * scale)


def test_derivative_rows_match_finite_differences(rng):
    # d mu_k / d p_i by central differences of the top eigenvalues, on a
    # d = 12 system with five of its nodes and a rotated basis.
    system = cs.check_stability(random_stable_matrix(rng, 12))
    basis = np.linalg.qr(rng.standard_normal((12, 12)))[0]
    count, step = 6, 1e-6
    family = rotated_family(cs.gramian_family(system, [2, 3, 5, 8, 11], count), basis)
    point = interior_point(rng, family.node_count)
    pairs = family.eigenpairs(point)
    # Simple eigenvalues, also at the selection edge, so mu_k is smooth here.
    assert np.all(-np.diff(np.append(pairs.values, pairs.following))
                  > 1e-6 * pairs.values[0])
    fd = np.empty((count, family.node_count))
    for i in range(family.node_count):
        bump = np.zeros(family.node_count)
        bump[i] = step
        fd[:, i] = (family.eigenpairs(point + bump).values
                    - family.eigenpairs(point - bump).values) / (2 * step)
    got = family.derivatives(pairs, SCORES[cs.ObjectiveKind.VCS].divided)[0]
    assert np.linalg.norm(got - fd) <= 1e-6 * np.linalg.norm(got)


@pytest.mark.parametrize("nodes", [1, 7, 8, 9, 17])
def test_blocked_pass_matches_the_node_by_node_build_to_the_bit(rng, nodes):
    # Node counts below, on and across the edges of the 8-node blocks, each
    # on a system with one state per node: the full selection and, past one
    # node, a partial one.
    whole = random_stable_family(rng, nodes)
    point = interior_point(rng, nodes, floor=0.5 / nodes)
    divided = SCORES[cs.ObjectiveKind.AECS].divided
    for count in sorted({max(nodes // 2, 1), nodes}):
        family = dataclasses.replace(whole, score_order=count)
        pairs = family.eigenpairs(point)
        assert pairs.positive and pairs.vectors.flags.c_contiguous
        want = node_quadratic_rows(pairs.vectors, family.gramians)
        rows, hessian = family.derivatives(pairs, divided)
        assert np.array_equal(rows, want)
        assert rows.flags.c_contiguous
        if count < nodes:
            assert hessian is None
        else:
            matvec, diagonal = hessian()
            dense = np.column_stack([matvec(unit) for unit in np.eye(nodes)])
            want = node_hessian(family, pairs, divided)
            assert np.array_equal(dense, want)
            assert np.array_equal(diagonal, np.diag(want))


def test_no_hessian_where_an_eigenvalue_is_not_positive():
    # Two 3-state blocks in a random orthonormal basis, both nodes inside
    # the first block: W(p) has rank 3, so its three smallest eigenvalues
    # round to about +-1e-17, where the divided differences turn negative.
    # The whole spectrum is selected; the rows stay finite, the Hessian is
    # None and no square root of a negative number is taken.
    rng = np.random.default_rng(0)
    core = np.zeros((6, 6))
    for block in (slice(0, 3), slice(3, 6)):
        core[block, block] = -np.eye(3) + np.triu(rng.standard_normal((3, 3)), 1)
    basis = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    family = rotated_family(cs.gramian_family(cs.check_stability(core), [1, 2]), basis)
    pairs = family.eigenpairs([0.5, 0.5])
    assert not pairs.positive and pairs.following is None
    for score in SCORES.values():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, hessian = family.derivatives(pairs, score.divided)
        assert rows.shape == (6, 2) and np.all(np.isfinite(rows))
        assert hessian is None


def _stable_with_rotations(rng, dim: int) -> np.ndarray:
    """Stable ``A = Q (D + N) Q^T``: D holds 2x2 rotation blocks (complex
    eigenvalue pairs) and a 1x1 block for odd ``dim``, N is strictly upper
    triangular coupling and Q a random orthogonal matrix."""
    core = np.triu(rng.standard_normal((dim, dim)), 1)
    for k in range(0, dim - 1, 2):
        re, im = -rng.uniform(0.2, 3.0), rng.uniform(0.1, 5.0)
        core[k:k + 2, k:k + 2] = [[re, im], [-im, re]]
    if dim % 2:
        core[-1, -1] = -rng.uniform(0.2, 3.0)
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    return q @ core @ q.T


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.booleans(), st.integers(0, 2**31 - 1))
def test_node_gramian_is_bit_identical_to_scipy(dim, pairs, seed):
    # The stored Schur factor gives the same bits as scipy's own solver,
    # which re-factors A on every call.
    from scipy.linalg import solve_continuous_lyapunov

    rng = np.random.default_rng(seed)
    a = _stable_with_rotations(rng, dim) if pairs else random_stable_matrix(rng, dim)
    system = cs.check_stability(a)
    for node in range(1, dim + 1):
        direction = np.eye(dim)[:, node - 1]
        want = solve_continuous_lyapunov(a, -np.outer(direction, direction))
        assert np.array_equal(cs.node_gramian(system, node),
                              0.5 * (want + want.T))


def test_gramian_family_factors_the_dynamics_once(rng, monkeypatch):
    import scipy.linalg

    calls = []
    schur = scipy.linalg.schur

    def counted(*args, **kwargs):
        calls.append(args)
        return schur(*args, **kwargs)

    def refactoring(*args, **kwargs):
        raise AssertionError("the node Gramians must reuse the stored factor")

    monkeypatch.setattr(scipy.linalg, "schur", counted)
    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", refactoring)
    system = cs.check_stability(random_stable_matrix(rng, 6))
    family = cs.gramian_family(system, range(1, 7))
    assert len(calls) == 1
    assert family.node_count == 6
    assert not system.schur_form.flags.writeable
    assert not system.schur_vectors.flags.writeable
    np.testing.assert_allclose(
        system.schur_vectors @ system.schur_form @ system.schur_vectors.T,
        system.dynamics, atol=1e-12)


def test_spectral_abscissa_matches_eigenvalues(rng):
    for trial in range(300):
        dim = 1 + trial % 12
        a = (_stable_with_rotations(rng, dim) if trial % 2
             else random_stable_matrix(rng, dim))
        want = float(np.max(np.linalg.eigvals(a).real))
        got = cs.check_stability(a).spectral_abscissa
        assert abs(got - want) <= 1e-12 * abs(want)


NON_NORMAL = np.array([[-1.0, 5.0, 0.0], [0.0, -2.0, 7.0], [0.0, 0.0, -3.0]])


def test_lyapunov_residual_failure_names_the_node(monkeypatch):
    # With no tolerance any rounding in the residual fails the check.
    monkeypatch.setattr(linsys, "DEFAULT_TOL", 0.0)
    system = cs.check_stability(NON_NORMAL)
    with pytest.raises(cs.LyapunovSolveFailure,
                       match=r"Lyapunov residual .* exceeds tolerance for node 2"):
        cs.node_gramian(system, 2)


def test_family_validation_names_the_first_failing_node():
    good, skew, negative = np.diag([0.5, 0.0, 0.0]), np.diag([0.0, 0.25, 0.0]), -np.eye(3)
    skew[0, 1] = 1.0
    with pytest.raises(cs.EigenFailure, match="Gramian for node 2 is not symmetric"):
        cs.NodeGramianFamily((1, 2, 3), (good, skew, negative))
    with pytest.raises(cs.EigenFailure, match="Gramian for node 2 is not PSD"):
        cs.NodeGramianFamily((1, 2, 3), (good, negative, skew))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_family_rejects_a_gramian_that_is_not_finite(bad):
    # Checked before symmetry, so no norm of a non-finite matrix is taken
    # and no RuntimeWarning is emitted on the way to the error.
    gram = np.eye(2)
    gram[0, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(cs.EigenFailure, match="^Gramian for node 1 is not finite$"):
            cs.NodeGramianFamily((1, 2), (gram, np.eye(2)))
        with pytest.raises(cs.EigenFailure, match="^Gramian for node 7 is not finite$"):
            cs.NodeGramianFamily((3, 7), (np.eye(2), gram.T))


def test_family_rejects_gramians_that_are_not_square_or_of_one_shape():
    with pytest.raises(cs.IndexMismatch, match=r"Gramian for node 7 has shape \(2, 3\)"):
        cs.NodeGramianFamily((7, 8), (np.zeros((2, 3)), np.eye(2)))
    with pytest.raises(cs.IndexMismatch, match=r"Gramian for node 8 has shape \(3, 3\)"):
        cs.NodeGramianFamily((7, 8), (np.eye(2), np.eye(3)))
    with pytest.raises(cs.IndexMismatch, match="one Gramian per node index"):
        cs.NodeGramianFamily((7, 8), (np.eye(2),))


def test_family_holds_a_read_only_copy_of_its_gramians():
    grams = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 2.0])])
    family = cs.NodeGramianFamily((1, 2), grams)
    assert family.gramians.shape == (2, 2, 2) and family.gramians.dtype == np.float64
    assert (family.mode_count, family.score_order) == (2, 2)
    assert grams.flags.writeable and not family.gramians.flags.writeable
    grams[0, 0, 0] = 9.0
    assert family.gramians[0, 0, 0] == 1.0


def test_closed_form_heat_gramians_solve_to_the_heat_table_weights():
    # W_k = e_k e_k^T / (2 pi^2 k^2) are the heat equation's modal Gramians:
    # a family of them, built with no dynamics, scores like the heat table.
    modes = np.arange(1, 6)
    grams = [np.outer(unit, unit) / (2 * np.pi**2 * k**2)
             for unit, k in zip(np.eye(5), modes)]
    family = cs.NodeGramianFamily(tuple(modes), grams)
    got = cs.solve(cs.ObjectiveKind.AECS, family)
    want = cs.solve(cs.ObjectiveKind.AECS, cs.heat_dirichlet_model(modes))
    assert got.converged and got.uniqueness_certified
    np.testing.assert_allclose(got.weights.values, want.weights.values, rtol=0, atol=1e-12)


def test_check_stability_leaves_the_callers_matrix_writeable():
    a = np.diag([-1.0, -2.0, -3.0])
    system = cs.check_stability(a)
    assert a.flags.writeable
    assert not system.dynamics.flags.writeable
    a[0, 0] = 5.0
    assert system.dynamics[0, 0] == -1.0
