import dataclasses
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    eigenvector_family,
    gramian_by_quadrature,
    interior_point,
    random_stable_family,
    random_stable_matrix,
)
from oracles import (node_hessian, node_quadratic_rows, row_gradient,
                     top_eigenvalues)

import ctrlscore as cs
from ctrlscore import linsys, optimizer, spectral
from ctrlscore.scores import SCORES


def derivative_rows(family, pairs) -> np.ndarray:
    """The rows ``rows[k, i] = d mu_k / d p_i`` of ``family.derivatives``,
    read through its gradient ``-sum_k rows[k] / s(mu_k)``: a score whose
    ``s`` is 1 at eigenvalue k and inf at the others gives ``-rows[k]``
    exactly."""
    rows = []
    for k in range(pairs.values.size):
        pick = np.full(pairs.values.size, np.inf)
        pick[k] = 1.0
        score = SCORES[cs.ObjectiveKind.VCS]._replace(s=lambda mu: pick)
        rows.append(-family.derivatives(pairs, score)[0])
    return np.array(rows)


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
    rows = derivative_rows(family, pairs)
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
    got = derivative_rows(family, pairs)
    assert np.linalg.norm(got - fd) <= 1e-6 * np.linalg.norm(got)


def _signed_family(rng, dim: int = 6, scale: float = 1.0) -> cs.NodeGramianFamily:
    """Random Lyapunov Gramians, node 2's smallest eigenvalue replaced by
    ``-1e-12 ||W_2||``: inside the PSD tolerance, above the factor floor."""
    grams = random_stable_family(rng, dim).gramians.copy()
    values, vectors = np.linalg.eigh(grams[1])
    values[0] = -1e-12 * values[-1]
    grams[1] = (vectors * values) @ vectors.T
    grams[1] = 0.5 * (grams[1] + grams[1].T)
    return cs.NodeGramianFamily(range(1, dim + 1), scale * grams)


def _zero_gramian_family(rng) -> cs.NodeGramianFamily:
    grams = random_stable_family(rng, 6).gramians.copy()
    grams[3] = 0.0
    return cs.NodeGramianFamily(range(1, 7), grams)


#: Families whose factors cover the cases of :func:`linsys.node_factors`.
FACTOR_FAMILIES = {
    "random d=60": lambda rng: random_stable_family(rng, 60),
    "rank one": lambda rng: eigenvector_family(np.linalg.qr(rng.standard_normal((8, 8)))[0],
                                               -rng.uniform(0.5, 3.0, 8)),
    "zero Gramian": _zero_gramian_family,
    "signed": _signed_family,
    "signed x 1e12": lambda rng: _signed_family(rng, scale=1e12),
    "signed x 1e-12": lambda rng: _signed_family(rng, scale=1e-12),
}


@pytest.mark.parametrize("name", FACTOR_FAMILIES)
def test_factored_pass_matches_the_dense_node_by_node_reference(name):
    # The same seed for every family, so the signed ones differ only in scale.
    rng = np.random.default_rng(7)
    whole = FACTOR_FAMILIES[name](rng)
    dim, nodes = whole.mode_count, whole.node_count
    loadings, signs = linsys.node_factors(whole.gramians)
    ranks = np.count_nonzero(signs, axis=1)
    norms = np.linalg.norm(whole.gramians, 2, axis=(1, 2))
    rebuilt = np.einsum("iak,ia,ial->ikl", loadings, signs, loadings)
    error = np.linalg.norm(rebuilt - whole.gramians, 2, axis=(1, 2))
    assert np.all(error <= 4 * dim * np.finfo(float).eps * norms)
    if name == "random d=60":
        assert 1 < ranks.max() < dim
    elif name == "rank one":
        assert np.all(ranks == 1)
    elif name == "zero Gramian":
        assert ranks[3] == 0 and np.all(loadings[3] == 0.0)
    else:
        assert np.count_nonzero(signs < 0) == 1 and signs[1].min() == -1.0
        unscaled = linsys.node_factors(_signed_family(np.random.default_rng(7)).gramians)[1]
        assert np.array_equal(signs, unscaled)
    point = interior_point(rng, nodes, floor=0.5 / nodes)
    score = SCORES[cs.ObjectiveKind.AECS]
    divided = score.divided
    for count in (dim // 2, dim):
        family = dataclasses.replace(whole, score_order=count)
        pairs = family.eigenpairs(point)
        assert pairs.positive  # the floor is relative: no scale moves it
        rows = derivative_rows(family, pairs)
        want = node_quadratic_rows(pairs.vectors, family.gramians)
        assert np.abs(rows - want).max() <= 1e-12 * np.abs(want).max()
        gradient, hessian = family.derivatives(pairs, score)
        assert np.array_equal(gradient, row_gradient(rows, pairs.values, score))
        if count < dim or not pairs.positive:
            assert hessian is None
            continue
        matvec, diagonal = hessian()
        dense = np.column_stack([matvec(unit) for unit in np.eye(nodes)])
        want = node_hessian(family, pairs, divided)
        assert np.abs(dense - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(diagonal, np.diag(dense))


@pytest.mark.parametrize("dim", [5, 20, 60])
def test_node_factors_scale_by_a_power_of_four_to_the_bit(rng, dim):
    # What lets the descent's copy of a family in another unit take its
    # owner's factor, scaled, in place of a factorization of its own.
    stack = random_stable_family(rng, dim).gramians
    loadings, signs = linsys.node_factors(stack)
    for exponent in (1, 2, -3, 5):
        got = linsys.node_factors(np.ldexp(stack, 2 * exponent))
        assert np.array_equal(got[0], np.ldexp(loadings, exponent))
        assert np.array_equal(got[1], signs)


@pytest.mark.parametrize("nodes", [1, 7, 8, 9, 17, 60])
def test_blocked_and_single_block_factored_passes_agree_to_the_bit(rng, monkeypatch, nodes):
    # Node counts below, on and across the edges of the 8-node blocks, each
    # on a system with one state per node: the full selection and, past one
    # node, a partial one, which gives no Hessian.  At 60 nodes one product
    # of a block's stacked factor rows would give other bits than one of
    # all nodes' rows.
    whole = random_stable_family(rng, nodes)
    point = interior_point(rng, nodes, floor=0.5 / nodes)
    score = SCORES[cs.ObjectiveKind.AECS]
    blocks = (linsys._NODE_BLOCK, nodes)
    for count in sorted({max(nodes // 2, 1), nodes}):
        family = dataclasses.replace(whole, score_order=count)
        pairs = family.eigenpairs(point)
        assert pairs.positive and pairs.vectors.flags.c_contiguous
        passes = []
        for block in blocks:
            monkeypatch.setattr(linsys, "_NODE_BLOCK", block)
            gradient, hessian = family.derivatives(pairs, score)
            passes.append((gradient, None if hessian is None else hessian()[0].__self__))
        (blocked, blocked_hessian), (single, single_hessian) = passes
        assert np.array_equal(blocked, single)
        if count < nodes:
            assert blocked_hessian is None and single_hessian is None
        else:
            assert np.array_equal(blocked_hessian, single_hessian)


@pytest.mark.parametrize("top", [0.5, 32.0], ids=["k=0", "k=-3"])
def test_solve_factors_a_family_once_on_the_calling_thread_before_any_start(
        rng, monkeypatch, top):
    # A dense family is uncertified, so eight starts run, on the pool with
    # two CPUs.  The unit copy builds the node factor before the pool
    # starts, so no start builds state that the others share.  With the
    # largest Gramian entry at 1/2 the copy is the family itself (k = 0),
    # which once left the factor to the first start that needed it.
    family = random_stable_family(rng, 5)
    family = cs.NodeGramianFamily(family.node_indices,
                                  family.gramians * (top / family.gramians.max()))
    events = []
    factor, descend = linsys.node_factors, optimizer._descend

    def record(event, call):
        def recorded(*args):
            events.append((event, threading.current_thread()))
            return call(*args)
        return recorded

    monkeypatch.setattr(linsys, "node_factors", record("factor", factor))
    monkeypatch.setattr(optimizer, "_descend", record("start", descend))
    monkeypatch.setattr(optimizer.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    result = cs.solve(cs.ObjectiveKind.VCS, family)
    assert not result.uniqueness_certified
    assert [event for event, _ in events] == ["factor"] + ["start"] * 8
    main = threading.current_thread()
    assert events[0][1] is main
    assert any(thread is not main for _, thread in events[1:])
    assert (spectral._in_unit(family) is family) == (top == 0.5)


def test_a_process_allowed_one_cpu_runs_its_starts_serially(rng, monkeypatch):
    # The pool is sized by the CPUs the process may run on: pinned to one
    # CPU, os.cpu_count() still read the machine's 2, and a pooled pass cost
    # more CPU time than a serial one.
    threads = []
    descend = optimizer._descend

    def recorded(*args):
        threads.append(threading.current_thread())
        return descend(*args)

    monkeypatch.setattr(optimizer, "_descend", recorded)
    monkeypatch.setattr(optimizer.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(optimizer.os, "cpu_count", lambda: 2)
    result = cs.solve(cs.ObjectiveKind.VCS, random_stable_family(rng, 5))
    assert not result.uniqueness_certified
    assert threads == [threading.current_thread()] * 8


def test_a_family_keeps_only_its_factor_of_the_largest_node_rank(rng):
    # What the first call leaves behind, for the life of the family, is the
    # m x r x d loadings and m x r signs for the largest node rank r (22 of
    # 60 here), none of eigh's temporaries.  A family whose ranks near d
    # would keep as much again as its Gramian stack.
    family = random_stable_family(rng, 60)
    tracemalloc.start()
    try:
        loadings, signs = family._factor()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    rank = max(np.count_nonzero(node) for node in signs)
    assert loadings.shape == (60, rank, 60) and signs.shape == (60, rank)
    assert held < loadings.nbytes + signs.nbytes + 4096
    assert held < family.gramians.nbytes / 2


def test_no_hessian_where_an_eigenvalue_is_not_positive():
    # Two 3-state blocks in a random orthonormal basis, both nodes inside
    # the first block: W(p) has rank 3, so its three smallest eigenvalues
    # round to about +-1e-17, where the divided differences turn negative.
    # The whole spectrum is selected; the gradient stays finite, the
    # Hessian is None and no square root of a negative number is taken.
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
            gradient, hessian = family.derivatives(pairs, score)
        assert gradient.shape == (2,) and np.all(np.isfinite(gradient))
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


@pytest.mark.parametrize("nodes,order,error", [
    ((1, 2, 3), 4, cs.IndexMismatch),
    ((1, 2, 3), 0, cs.IndexMismatch),
    ((1, 2, 3), 2.5, cs.IndexMismatch),
    ((1, 2, 1), None, cs.BadIndexSet),
    ((0, 1), None, cs.BadIndexSet),
], ids=["order-high", "order-zero", "order-float", "repeated", "zero-label"])
def test_gramian_family_rejects_bad_input_before_any_solve(monkeypatch, nodes, order, error):
    def refused(system, node):
        raise AssertionError("a Lyapunov solve ran before the input check")

    monkeypatch.setattr(linsys, "node_gramian", refused)
    with pytest.raises(error):
        cs.gramian_family(cs.check_stability(-np.eye(3)), nodes, order)


def _outer_product_node_gramian(system, node):
    """The node Gramian as the package computed it before the shared
    diagonal-weighting solve: the right-hand side ``-e e^T`` built as an
    outer product."""
    from scipy.linalg.lapack import dtrsyl

    direction = np.zeros(system.n_dim)
    direction[node - 1] = 1.0
    rhs = -np.outer(direction, direction)
    form, vectors = system.schur_form, system.schur_vectors
    solved, scale, _ = dtrsyl(form, form, vectors.T @ (rhs @ vectors), tranb="T")
    solved *= scale
    gram = vectors @ solved @ vectors.T
    return 0.5 * (gram + gram.T)


@pytest.mark.parametrize("dim", [1, 5, 30])
def test_node_gramian_keeps_its_bits(rng, dim):
    system = cs.check_stability(random_stable_matrix(rng, dim))
    for node in range(1, dim + 1):
        assert np.array_equal(cs.node_gramian(system, node),
                              _outer_product_node_gramian(system, node))


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
@pytest.mark.parametrize("nodes, weights", [
    ((1, 2, 3, 4, 5), (0.1, 0.3, 0.2, 0.15, 0.25)),
    ((2, 4), (0.35, 0.65)),
    ((1, 3, 5), (0.0, 0.4, 0.6)),
], ids=["all", "subset", "zero-weight"])
def test_one_solve_for_w_p_matches_the_node_gramians(rng, nodes, weights, scale):
    # Scaling A by c scales every Gramian by 1 / c.
    system = cs.check_stability(scale * random_stable_matrix(rng, 5))
    mixed = linsys.weighted_gramian_family(system, nodes, weights, 3)
    assert mixed.node_indices == (1,)
    assert mixed.score_order == 3
    want = cs.assemble_gramian(cs.gramian_family(system, nodes), weights)
    got = cs.assemble_gramian(mixed, linsys.UNIT_WEIGHT)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    pairs = mixed.eigenpairs(linsys.UNIT_WEIGHT)
    np.testing.assert_allclose(pairs.values, np.linalg.eigvalsh(want)[::-1][:3],
                               rtol=1e-11)


@pytest.mark.parametrize("nodes, weights, order, error, match", [
    ((1, 2), (0.5, 0.3, 0.2), None, cs.InvalidWeights, "expected 2 weights, got 3"),
    ((1, 4), (0.5, 0.5), None, cs.IndexMismatch, r"node 4 out of range 1\.\.3"),
    ((1, 2), (0.5, 0.5), 4, cs.IndexMismatch, r"score order 4 out of range 1\.\.3"),
    ((1, 1), (0.5, 0.5), None, cs.BadIndexSet, "distinct"),
], ids=["weight-count", "node-range", "order", "repeated"])
def test_weighted_gramian_family_checks_its_input_before_the_solve(
        monkeypatch, nodes, weights, order, error, match):
    def refused(*args):
        raise AssertionError("a Lyapunov solve ran before the input check")

    monkeypatch.setattr(linsys, "_solve_lyapunov", refused)
    with pytest.raises(error, match=match):
        linsys.weighted_gramian_family(cs.check_stability(-np.eye(3)), nodes, weights,
                                       order)


def test_a_node_outside_the_system_costs_no_solve(monkeypatch):
    solves = []
    solve = linsys._solve_lyapunov
    monkeypatch.setattr(linsys, "_solve_lyapunov",
                        lambda *args: solves.append(args) or solve(*args))
    with pytest.raises(cs.IndexMismatch, match=r"node 4 out of range 1\.\.3"):
        cs.gramian_family(cs.check_stability(-np.eye(3)), (1, 2, 4))
    assert solves == []


def test_w_p_residual_failure_names_w_p(monkeypatch):
    monkeypatch.setattr(linsys, "DEFAULT_TOL", 0.0)
    system = cs.check_stability(NON_NORMAL)
    with pytest.raises(cs.LyapunovSolveFailure,
                       match=r"Lyapunov residual .* exceeds tolerance for W\(p\)$"):
        linsys.weighted_gramian_family(system, (1, 2, 3), (0.2, 0.3, 0.5))


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


def test_a_family_keeps_a_read_only_stack_that_owns_its_data(rng):
    stack = random_stable_family(rng, 3).gramians.copy()
    stack.flags.writeable = False
    assert cs.NodeGramianFamily((1, 2, 3), stack).gramians is stack
    view = stack[:, :, :]  # read-only, but its data is the stack's
    assert cs.NodeGramianFamily((1, 2, 3), view).gramians is not view
    # gramian_family fills one stack that the family keeps: no list of
    # Gramians beside a stacked copy, which doubled the peak.
    system = cs.check_stability(random_stable_matrix(rng, 40))
    tracemalloc.start()
    try:
        family = cs.gramian_family(system, range(1, 41))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * family.gramians.nbytes


@pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
def test_family_tests_symmetry_and_psd_relative_to_each_gramian(scale):
    # An absolute floor of DEFAULT_TOL let both pass at scale 1e-20.
    skew = np.diag([1.0, 0.5])
    skew[0, 1] = 1e-6
    with pytest.raises(cs.EigenFailure, match="Gramian for node 2 is not symmetric"):
        cs.NodeGramianFamily((1, 2), scale * np.stack([np.eye(2), skew]))
    with pytest.raises(cs.EigenFailure, match="Gramian for node 2 is not PSD"):
        cs.NodeGramianFamily((1, 2), scale * np.stack([np.eye(2), np.diag([1.0, -1e-6])]))
    cs.NodeGramianFamily((1, 2), scale * np.stack([np.eye(2), np.diag([1.0, -1e-12])]))


@pytest.mark.parametrize("time_unit", [1e-200, 1e-160, 1e-100, 1.0, 1e100, 1e160, 1e200])
def test_a_perturbed_lyapunov_solution_fails_its_check_in_any_time_unit(monkeypatch,
                                                                       time_unit):
    # The residual is measured against ||A||_F ||W||_F, the scale of the
    # equation's terms; against max(1, ||W||_F) a 1% error passed at 1e-100.
    # The norms are taken on binary units: past about 1e154 their product
    # read inf or 0 * inf, and every residual passed.
    from scipy.linalg import lapack

    solve = lapack.dtrsyl

    def perturbed(*args, **kwargs):
        solved, scale, info = solve(*args, **kwargs)
        return 1.01 * solved, scale, info

    system = cs.check_stability(time_unit * NON_NORMAL)
    cs.node_gramian(system, 2)
    monkeypatch.setattr(lapack, "dtrsyl", perturbed)
    with pytest.raises(cs.LyapunovSolveFailure, match="exceeds tolerance for node 2"):
        cs.node_gramian(system, 2)


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


@pytest.mark.parametrize("dim", [16, 17])
def test_a_weighted_gramian_is_bit_identical_to_scipy(dim):
    # The right-hand side scales the rows of the Schur vectors in C order:
    # scaled in their own Fortran order, the product summed in another
    # order than scipy's, and every case here differed.
    from scipy.linalg import solve_continuous_lyapunov

    for seed in range(25):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim)) / math.sqrt(dim) - 2.0 * np.eye(dim)
        weights = rng.uniform(0.0, 1.0, dim)
        got = linsys._solve_lyapunov(cs.check_stability(a), weights, "W(p)")
        want = solve_continuous_lyapunov(a, -np.diag(weights))
        assert np.array_equal(got, 0.5 * (want + want.T))


@pytest.mark.parametrize("least, psd", [(-2.0, False), (-0.5, True), (0.5, True),
                                        (2.0, True)])
def test_the_psd_test_holds_at_the_tolerance(least, psd):
    # W = Q diag(1, 0.5, least * tol) Q^T, with tol = DEFAULT_TOL ||W||_F of
    # its binary unit, which W is: its largest entry lies in [1/2, 1).
    basis, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))
    tol = linsys.DEFAULT_TOL * math.sqrt(1.25)
    gram = basis @ np.diag([1.0, 0.5, least * tol]) @ basis.T
    gram = 0.5 * (gram + gram.T)
    assert linsys._binary_exponent(gram) == 0
    stack = np.stack([np.eye(3), gram])
    if psd:
        cs.NodeGramianFamily((1, 2), stack)
    else:
        with pytest.raises(cs.EigenFailure, match="Gramian for node 2 is not PSD"):
            cs.NodeGramianFamily((1, 2), stack)


def test_zero_and_singular_gramians_are_psd():
    singular = np.outer([1.0, 2.0, 2.0], [1.0, 2.0, 2.0]) / 9.0
    family = cs.NodeGramianFamily((1, 2, 3), [np.zeros((3, 3)), singular, np.eye(3)])
    assert np.array_equal(family.gramians[0], np.zeros((3, 3)))
