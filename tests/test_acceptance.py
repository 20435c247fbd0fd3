"""Acceptance suite: one test per release criterion, at the stated tolerance.

Each test prints a single ``criterion N: PASS`` line (visible with ``-s`` or
``-rP``) after its assertions succeed.
"""

import time

import numpy as np

from conftest import (
    central_gradient,
    central_hessian,
    interior_point,
    random_commuting_family,
    random_diagonal_model,
    random_stable_family,
    random_stable_matrix,
    serial_descents,
)
from oracles import (
    average_min_energy_monte_carlo,
    projection_operator_check,
    top_eigenvalues,
)

import ctrlscore as cs
from ctrlscore import ObjectiveKind
from ctrlscore.cli import main

REFERENCE_HEAT_ROWS = {
    (1, 2, 3, 4): (0.10, 0.20, 0.30, 0.40),
    (1, 2, 3, 5): (0.09, 0.18, 0.27, 0.45),
    (1, 2, 3, 6): (0.08, 0.16, 0.25, 0.50),
    (2, 3, 4, 5): (0.14, 0.21, 0.28, 0.35),
    (2, 3, 4, 6): (0.13, 0.20, 0.26, 0.40),
    (3, 4, 5, 6): (0.16, 0.22, 0.27, 0.33),
}


def test_criterion_1_heat_demo_reproduces_reference_table(capsys):
    begin = time.perf_counter()
    code = main(["heat-demo"])
    elapsed = time.perf_counter() - begin
    out = capsys.readouterr().out
    assert code == 0
    rows = {}
    for line in out.strip().splitlines():
        indices = tuple(int(i) for i in
                        line.split("I={")[1].split("}")[0].split(","))
        aecs = tuple(float(v) for v in
                     line.split("AECS=(")[1].split(")")[0].split(","))
        rows[indices] = aecs
    assert set(rows) == set(REFERENCE_HEAT_ROWS)
    for indices, reference in REFERENCE_HEAT_ROWS.items():
        got = np.asarray(rows[indices])
        assert np.max(np.abs(got - np.asarray(reference))) <= 0.005
    assert elapsed < 1.0
    print("criterion 1: PASS (six AECS rows within 0.005, "
          f"{elapsed:.3f}s)")


def test_criterion_2_uniform_vcs_special_case():
    index_sets = [(1,), (1, 2), (2, 5, 9), (1, 2, 3, 4),
                  tuple(range(1, 9)), tuple(range(1, 13))]
    begin = time.perf_counter()
    worst = 0.0
    for indices in index_sets:
        model = cs.heat_dirichlet_model(indices)
        result = cs.solve(ObjectiveKind.VCS, model)
        worst = max(worst, float(np.max(np.abs(
            result.weights.values - 1.0 / len(indices)))))
    elapsed = time.perf_counter() - begin
    assert worst <= 1e-6
    assert elapsed < 1.0
    print(f"criterion 2: PASS (max deviation {worst:.2e}, {elapsed:.3f}s)")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(314159)
    begin = time.perf_counter()
    checked = 0
    for trial in range(10):
        size = int(rng.integers(2, 4))
        diagonal = random_diagonal_model(rng, size)
        dense = random_stable_family(rng, int(rng.integers(2, 4)))
        kind = ObjectiveKind.VCS if trial % 2 == 0 else ObjectiveKind.AECS
        for model in (diagonal, dense):
            result = cs.solve(kind, model, seed=trial)
            best, best_value = cs.grid_oracle(kind, model, step=0.01)
            assert result.objective <= best_value + 1e-9
            assert np.max(np.abs(result.weights.values - best.values)) <= 0.01
            checked += 1
    elapsed = time.perf_counter() - begin
    assert checked == 20
    assert elapsed < 60.0
    print(f"criterion 3: PASS (20 models vs lattice oracle, {elapsed:.1f}s)")


def test_criterion_4_derivative_correctness():
    rng = np.random.default_rng(271828)
    grad_worst = 0.0
    hess_worst = 0.0
    points_checked = 0
    models = [random_diagonal_model(rng, 4), random_diagonal_model(rng, 3),
              random_commuting_family(rng, 3)]
    while points_checked < 20:
        model = models[points_checked % len(models)]
        size = (model.node_count if isinstance(model, cs.SpectralModel)
                else model.node_count)
        point = interior_point(rng, size)
        for kind in (ObjectiveKind.VCS, ObjectiveKind.AECS):
            got = cs.evaluate(kind, model, point)

            def value_at(x, _k=kind, _m=model):
                return cs.evaluate(_k, _m, x).value

            def grad_at(x, _k=kind, _m=model):
                return cs.evaluate(_k, _m, x).gradient

            fd_grad = central_gradient(value_at, point, h=1e-6)
            rel = (np.linalg.norm(got.gradient - fd_grad)
                   / np.linalg.norm(got.gradient))
            grad_worst = max(grad_worst, float(rel))
            assert rel <= 1e-5
            assert got.hessian is not None
            fd_hess = central_hessian(grad_at, point, h=1e-6)
            hrel = (np.linalg.norm(got.hessian - fd_hess)
                    / np.linalg.norm(got.hessian))
            hess_worst = max(hess_worst, float(hrel))
            assert hrel <= 1e-4
        points_checked += 1
    print("criterion 4: PASS (worst gradient rel err "
          f"{grad_worst:.2e}, worst Hessian rel err {hess_worst:.2e})")


def test_criterion_5_lyapunov_fidelity():
    scalar = cs.node_gramian(cs.check_stability([[-1.0]]), 1)
    assert abs(scalar[0, 0] - 0.5) <= 1e-14
    rng = np.random.default_rng(100)
    worst = 0.0
    for dim in (2, 3, 5, 8):
        a = random_stable_matrix(rng, dim)
        family = cs.gramian_family(cs.check_stability(a), range(1, dim + 1))
        for idx, gram in zip(family.node_indices, family.gramians):
            direction = np.zeros(dim)
            direction[idx - 1] = 1.0
            residual = np.linalg.norm(
                a @ gram + gram @ a.T + np.outer(direction, direction)
            )
            bound = 1e-10 * max(1.0, np.linalg.norm(gram))
            worst = max(worst, residual / bound)
            assert residual <= bound
    print(f"criterion 5: PASS (worst residual at {worst:.2e} of the bound)")


def test_criterion_6_eigenvalue_continuity():
    rng = np.random.default_rng(555)
    family = random_stable_family(rng, 4)
    for _ in range(100):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        wp = cs.assemble_gramian(family, p)
        wq = cs.assemble_gramian(family, q)
        bound = np.linalg.norm(wp - wq, ord=2) + 1e-10
        mu_p = top_eigenvalues(wp, 4)
        mu_q = top_eigenvalues(wq, 4)
        assert np.all(np.abs(mu_p - mu_q) <= bound)
    print("criterion 6: PASS (100 random weight pairs, all eigenvalue gaps "
          "within the operator-norm bound)")


def test_criterion_7_energy_identities():
    model = cs.heat_dirichlet_model([1, 2, 3, 4])
    weights = [0.1, 0.2, 0.3, 0.4]
    mean, std_error = average_min_energy_monte_carlo(
        model, weights, 4, num_samples=100_000, seed=2024
    )
    mu = model.eigenpairs(weights, 4).values
    expected = float(np.mean(1.0 / mu))
    sigma_gap = abs(mean - expected) / std_error
    assert sigma_gap <= 3.0

    ellipsoid = cs.reachable_ellipsoid(model, weights, 4)
    objective = cs.evaluate(ObjectiveKind.VCS, model, weights).value
    identity_gap = abs(
        -2.0 * (ellipsoid.log_volume - cs.unit_ball_log_volume(4)) - objective
    )
    assert identity_gap <= 1e-10
    print(f"criterion 7: PASS (Monte-Carlo gap {sigma_gap:.2f} sigma, "
          f"volume identity gap {identity_gap:.1e})")


def test_criterion_8_projection_operator_diagnostic():
    system = cs.check_stability(np.diag([-1.0, -2.0]))
    family = cs.gramian_family(system, [1, 2])
    rng = np.random.default_rng(88)
    target = rng.standard_normal(2)
    diag = projection_operator_check(
        system, family, [0.5, 0.5], 2, horizon=5.0, time_steps=2000, target=target
    )
    assert diag.idempotency_residual <= 1e-6
    assert diag.symmetry_residual <= 1e-6
    # independent analytic finite-horizon Gramian for diagonal dynamics
    decay = np.array([1.0, 2.0])
    w_exact = np.diag(0.5 * (1.0 - np.exp(-2.0 * decay * 5.0)) / (2.0 * decay))
    reference = float(target @ np.linalg.solve(w_exact, target))
    rel = abs(diag.energy_discrete - reference) / abs(reference)
    assert rel <= 1e-4
    print(f"criterion 8: PASS (idempotency {diag.idempotency_residual:.1e}, "
          f"symmetry {diag.symmetry_residual:.1e}, energy rel err {rel:.1e})")


def test_criterion_9_assumption_checkers():
    heat = cs.check_feasibility(cs.heat_dirichlet_model([1, 2, 3, 4]))
    assert heat.feasible and heat.commuting and heat.n_spectrum
    assert heat.commutator_residual == 0.0
    assert heat.n_spectrum_residual == 0.0
    assert heat.nth_eigenvalue > 0.0

    noncommuting = cs.gramian_family(
        cs.check_stability(np.array([[-1.0, 1.0], [0.0, -2.0]])), [1, 2]
    )
    ok, residual = cs.check_commuting(noncommuting)
    assert not ok and residual > 0.0

    rank_deficient = cs.SpectralModel(
        (1, 2), np.array([[1.0, 0.0], [0.0, 0.0]]), 2
    )
    report = cs.check_feasibility(rank_deficient)
    assert not report.feasible
    print("criterion 9: PASS (heat checks residual-free, non-commuting "
          f"residual {residual:.3e}, rank-deficient table infeasible)")


def test_criterion_10_uniqueness_certification():
    worst = 0.0
    for model in (cs.heat_dirichlet_model([1, 2, 3, 4]),
                  random_diagonal_model(np.random.default_rng(9), 3)):
        assert cs.solve(ObjectiveKind.AECS, model).uniqueness_certified
        stacked = np.array([t.point for t in
                            serial_descents(ObjectiveKind.AECS, model, seed=5)])
        assert len(stacked) == 8
        spread = float(np.max(np.max(stacked, axis=0) - np.min(stacked, axis=0)))
        worst = max(worst, spread)
        assert spread <= 1e-6
    print(f"criterion 10: PASS (8 starts agree to {worst:.2e})")
