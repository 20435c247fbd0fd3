import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

from conftest import ORDER_BUILDERS, random_stable_family
from oracles import (
    average_min_energy_monte_carlo,
    finite_horizon_gramian,
    projection_operator_check,
)

import ctrlscore as cs
from ctrlscore import ObjectiveKind


def test_scalar_gramian_inverse_energy():
    family = cs.gramian_family(cs.check_stability([[-1.0]]), [1])
    energy = cs.min_energy(family, [1.0], np.array([1.0]))
    assert energy == pytest.approx(2.0, abs=1e-14)


def test_heat_mode_energy():
    model = cs.heat_dirichlet_model([1, 2])
    energy = cs.min_energy(model, [0.5, 0.5], np.array([1.0, 0.0]))
    assert energy == pytest.approx(4.0 * np.pi**2, rel=1e-14)
    assert energy == pytest.approx(39.478418, abs=1e-6)


def test_zero_target_costs_nothing():
    model = cs.heat_dirichlet_model([1, 2])
    assert cs.min_energy(model, [0.5, 0.5], np.zeros(2)) == 0.0
    assert cs.min_energy(model, [1.0, 0.0], np.zeros(2)) == 0.0  # rank deficient
    with pytest.raises(cs.IndexMismatch, match="target has dimension 3"):
        cs.min_energy(model, [0.5, 0.5], np.zeros(3))
    with pytest.raises(cs.InvalidWeights, match="expected 2 weights, got 3"):
        cs.min_energy(model, [0.2, 0.3, 0.5], np.zeros(2))


@pytest.mark.parametrize("target", [[1.0, math.nan], [1.0, math.inf], [[1.0, 0.0]]],
                         ids=["nan", "inf", "2-d"])
def test_a_target_that_is_not_a_finite_vector_is_rejected(target):
    model = cs.heat_dirichlet_model([1, 2])
    with pytest.raises(cs.IndexMismatch, match="target must be a finite 1-d vector"):
        cs.min_energy(model, [0.5, 0.5], target)


def test_energy_equals_quadratic_form_of_inverse(rng):
    family = random_stable_family(rng, 3)
    weights = rng.dirichlet(np.ones(3))
    mixed = cs.assemble_gramian(family, weights)
    for _ in range(5):
        target = rng.standard_normal(3)
        energy = cs.min_energy(family, weights, target)
        want = float(target @ np.linalg.solve(mixed, target))
        assert energy == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("make,weights,target", [
    (lambda: cs.gramian_family(cs.check_stability(np.diag([-1.0, -2.0])), [1, 2], 1),
     [1.0, 0.0], [0.0, 1.0]),
    # The top mode at equal weights is mode 1, and the target lies on mode 2.
    (lambda: dataclasses.replace(cs.heat_dirichlet_model([1, 2]), score_order=1),
     [0.5, 0.5], [0.0, 5.0]),
], ids=["family", "heat"])
def test_target_outside_span(make, weights, target):
    with pytest.raises(cs.TargetOutsideSpan):
        cs.min_energy(make(), weights, target)


def test_a_target_of_the_wrong_length_is_rejected():
    model = cs.heat_dirichlet_model([1, 2])
    with pytest.raises(cs.IndexMismatch, match="target has dimension 3, state space has 2"):
        cs.min_energy(model, [0.5, 0.5], [0.0, 5.0, 0.0])


def test_singular_gramian():
    model = cs.heat_dirichlet_model([1, 2])
    with pytest.raises(cs.RankDeficient, match="^1 of n = 2 needed table rows have "
                       "a positive entry on a node with a positive weight$"):
        cs.min_energy(model, [1.0, 0.0], np.array([1.0, 1.0]))


@pytest.mark.parametrize("rank", [2.5, 0, 4, 1, 3],
                         ids=["float", "zero", "mode_count+1", "one", "mode_count"])
@pytest.mark.parametrize("builder", ORDER_BUILDERS)
def test_a_rank_outside_the_score_order_rule_is_rejected(builder, rank):
    # The energy code reads its rank from the model, so a float or
    # out-of-range rank is rejected where the model is made, by
    # resolve_score_order; an accepted one sets the ellipsoid's dimension
    # and the modes the energy sums over.
    if rank not in (1, 3):
        with pytest.raises(cs.IndexMismatch, match="score order"):
            ORDER_BUILDERS[builder](rank)
        return
    model = ORDER_BUILDERS[builder](rank)
    weights = np.full(3, 1.0 / 3.0)
    ellipsoid = cs.reachable_ellipsoid(model, weights)
    assert ellipsoid.semi_axes.size == rank
    target = [1.0, 0.0, 0.0]
    pairs = model.eigenpairs(weights)
    coeffs = model.state_basis(pairs).T @ target
    assert cs.min_energy(model, weights, target) == float(np.sum(coeffs**2 / pairs.values))


def test_ellipsoid_diagonal_example():
    # mixed Gramian diag(0.25, 0.04)
    family = cs.NodeGramianFamily((1, 2), (np.diag([0.5, 0.0]), np.diag([0.0, 0.08])))
    ellipsoid = cs.reachable_ellipsoid(family, [0.5, 0.5])
    np.testing.assert_allclose(ellipsoid.semi_axes, [0.5, 0.2], atol=1e-12)
    assert ellipsoid.log_volume == pytest.approx(
        math.log(math.pi) + 0.5 * math.log(0.01), rel=1e-12
    )


def test_interval_volume_for_rank_one():
    model = cs.heat_dirichlet_model([1, 2])
    top = dataclasses.replace(model, score_order=1)
    ellipsoid = cs.reachable_ellipsoid(top, [0.5, 0.5])
    mu1 = model.eigenpairs([0.5, 0.5]).values[0]
    assert ellipsoid.log_volume == pytest.approx(
        math.log(2.0 * math.sqrt(mu1)), rel=1e-12
    )


def test_rank_deficient_ellipsoid():
    model = cs.heat_dirichlet_model([1, 2])
    with pytest.raises(cs.RankDeficient):
        cs.reachable_ellipsoid(model, [1.0, 0.0])


def test_vcs_objective_equals_ellipsoid_log_volume_identity(rng):
    model = cs.heat_dirichlet_model([1, 2, 3, 4])
    weights = [0.1, 0.2, 0.3, 0.4]
    ellipsoid = cs.reachable_ellipsoid(model, weights)
    objective = cs.evaluate(ObjectiveKind.VCS, model, weights).value
    identity = -2.0 * (ellipsoid.log_volume - cs.unit_ball_log_volume(4))
    assert abs(identity - objective) <= 1e-10


def test_aecs_objective_equals_scaled_sphere_expectation():
    model = cs.heat_dirichlet_model([1, 2, 3])
    weights = [0.25, 0.35, 0.4]
    mu = model.eigenpairs(weights).values
    expectation = float(np.mean(1.0 / mu))  # closed form for sphere targets
    objective = cs.evaluate(ObjectiveKind.AECS, model, weights).value
    assert 3.0 * expectation == pytest.approx(objective, rel=1e-14)


def test_monte_carlo_average_energy_within_three_sigma():
    model = cs.heat_dirichlet_model([1, 2, 3, 4])
    weights = [0.1, 0.2, 0.3, 0.4]
    mean, std_error = average_min_energy_monte_carlo(
        model, weights, num_samples=100_000, seed=7
    )
    mu = model.eigenpairs(weights).values
    expected = float(np.mean(1.0 / mu))
    assert abs(mean - expected) <= 3.0 * std_error
    # spot check the sampler against the scalar API
    rng = np.random.default_rng(7)
    sample = rng.standard_normal(4)
    sample /= np.linalg.norm(sample)
    energy = cs.min_energy(model, weights, sample)
    assert energy == pytest.approx(float(np.sum(sample**2 / mu)), rel=1e-12)


def test_finite_horizon_gramian_matches_quadrature(rng):
    a = np.array([[-1.0, 0.5], [0.0, -2.0]])
    system = cs.check_stability(a)
    family = cs.gramian_family(system, [1, 2])
    weights = np.array([0.3, 0.7])
    horizon = 2.5
    got = finite_horizon_gramian(system, family, weights, horizon)

    def integrand(t):
        phi = expm(t * a)
        return phi @ np.diag(weights) @ phi.T

    want, _ = quad_vec(integrand, 0.0, horizon, epsabs=1e-13, epsrel=1e-13)
    np.testing.assert_allclose(got, want, atol=1e-11)


def test_projection_operator_diagnostics():
    system = cs.check_stability(np.diag([-1.0, -2.0]))
    family = cs.gramian_family(system, [1, 2])
    rng = np.random.default_rng(12)
    target = rng.standard_normal(2)
    diag = projection_operator_check(
        system, family, [0.5, 0.5], 2, horizon=5.0, time_steps=2000, target=target
    )
    assert diag.idempotency_residual <= 1e-6
    assert diag.symmetry_residual <= 1e-6
    # independent reference: analytic finite-horizon Gramian of diagonal A
    decay = np.array([1.0, 2.0])
    w_exact = np.diag(0.5 * (1.0 - np.exp(-2.0 * decay * 5.0)) / (2.0 * decay))
    reference = float(target @ np.linalg.solve(w_exact, target))
    assert abs(diag.energy_discrete - reference) <= 1e-4 * abs(reference)
    assert diag.gramian_rank == 2


def test_projection_diagnostics_report_rank_deficiency():
    system = cs.check_stability(np.diag([-1.0, -2.0]))
    family = cs.gramian_family(system, [1, 2])
    diag = projection_operator_check(
        system, family, [1.0, 0.0], 2, horizon=5.0, time_steps=200
    )
    assert diag.gramian_rank == 1


def test_projection_check_rejects_a_horizon_that_is_not_finite_and_positive():
    system = cs.check_stability(np.diag([-1.0, -2.0]))
    family = cs.gramian_family(system, [1, 2])
    for horizon in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(cs.IndexMismatch):
            projection_operator_check(
                system, family, [0.5, 0.5], 2, horizon=horizon, time_steps=10
            )
    with pytest.raises(cs.IndexMismatch):
        projection_operator_check(system, family, [0.5, 0.5], 2, horizon=5.0, time_steps=0)


def test_unit_ball_log_volume_values():
    assert cs.unit_ball_log_volume(1) == pytest.approx(math.log(2.0))
    assert cs.unit_ball_log_volume(2) == pytest.approx(math.log(math.pi))
    assert cs.unit_ball_log_volume(3) == pytest.approx(math.log(4.0 * math.pi / 3.0))
    # no overflow for large dimension
    assert math.isfinite(cs.unit_ball_log_volume(500))
