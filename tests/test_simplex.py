import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import project_by_active_set

import ctrlscore as cs
from ctrlscore.simplex import SUM_TOL, project_capped_simplex, central_point, SimplexWeights


def test_feasible_point_is_fixed():
    w = project_capped_simplex([0.5, 0.5], [1.0, 1.0])
    assert w.tolist() == [0.5, 0.5]


def test_cap_and_simplex_corner():
    w = project_capped_simplex([2.0, 0.0], [1.0, 1.0])
    assert w.tolist() == [1.0, 0.0]


def test_symmetric_point_loose_cap_matches_qp_oracle():
    point = np.array([0.9, 0.9, 0.9])
    caps = np.array([0.5, 1.0, 1.0])
    got = project_capped_simplex(point, caps)
    want = project_by_active_set(point, caps)
    np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_allclose(got, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_binding_cap_matches_qp_oracle():
    point = np.array([0.9, 0.9, 0.9])
    caps = np.array([0.25, 1.0, 1.0])
    got = project_capped_simplex(point, caps)
    want = project_by_active_set(point, caps)
    np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_allclose(got, [0.25, 0.375, 0.375], atol=1e-12)


def test_empty_feasible_set_raises():
    with pytest.raises(cs.EmptyFeasibleSet):
        project_capped_simplex([0.5, 0.5], [0.3, 0.3])


def test_weight_validation():
    with pytest.raises(cs.InvalidWeights):
        SimplexWeights(np.array([0.6, 0.6]))
    with pytest.raises(cs.InvalidWeights):
        SimplexWeights(np.array([1.2, -0.2]))
    with pytest.raises(cs.InvalidWeights):
        SimplexWeights(np.array([0.7, 0.3]), np.array([0.5, 1.0]))


@pytest.mark.parametrize("call, message", [
    (lambda: SimplexWeights([[0.5, 0.5]]), "values must be a nonempty 1-d vector"),
    (lambda: SimplexWeights([np.nan, 1.0]), "values must be finite"),
    (lambda: project_capped_simplex([np.nan, 1.0], [1, 1]), "point must be finite"),
], ids=["2-d", "nan-values", "nan-point"])
def test_vector_refusals(call, message):
    with pytest.raises(cs.InvalidWeights, match=f"^{message}$"):
        call()


def test_central_point_with_tight_caps():
    w = central_point(np.array([0.2, 0.5, 0.9]))
    assert abs(w.values.sum() - 1.0) < 1e-12
    assert np.all(w.values <= np.array([0.2, 0.5, 0.9]) + 1e-12)


vectors = st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=4)


@settings(max_examples=200, deadline=None)
@given(vectors, st.lists(st.floats(0.05, 2.0), min_size=2, max_size=4),
       st.integers(0, 10**6))
@example([0.0, 1.0, 1e-8], [1.0, 1.0, 1.0], 0)
def test_projection_properties(raw_point, raw_caps, salt):
    size = min(len(raw_point), len(raw_caps))
    point = np.asarray(raw_point[:size])
    caps = np.asarray(raw_caps[:size])
    if caps.sum() < 1.0:
        caps = caps + (1.0 - caps.sum() + 0.1) / size
    projected = project_capped_simplex(point, caps)
    # lands in the feasible set
    assert abs(projected.sum() - 1.0) <= SUM_TOL
    assert np.all(projected >= 0.0)
    assert np.all(projected <= caps)
    # idempotent
    again = project_capped_simplex(projected, caps)
    np.testing.assert_allclose(again, projected, atol=1e-12)
    # agrees with the brute-force QP oracle
    oracle = project_by_active_set(point, caps)
    np.testing.assert_allclose(projected, oracle, atol=1e-9)


@pytest.mark.parametrize("size", [50, 1000])
@pytest.mark.parametrize("shape", ["random", "tied", "cap-binding"])
def test_projection_optimality_conditions_large(size, shape):
    rng = np.random.default_rng(size)
    for _ in range(20):
        point = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=size)
        caps = np.ones(size)
        if shape == "tied":
            point = np.round(point, 1)
        elif shape == "cap-binding":
            point = np.abs(point) + 1.0
            caps = rng.uniform(1.0, 2.0, size) / size
        x = project_capped_simplex(point, caps)
        # Free coordinates share one shift v_i - x_i; coordinates at zero lie
        # at or below it and coordinates at their cap at or above it.
        slack = 64.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(point)))
        shifts = (point - x)[(x > 0.0) & (x < caps)]
        highest = max([*shifts, *point[x == 0.0]], default=-np.inf)
        lowest = min([*shifts, *(point - caps)[x == caps]], default=np.inf)
        assert highest <= lowest + slack
        assert abs(x.sum() - 1.0) <= SUM_TOL
        assert np.array_equal(project_capped_simplex(x, caps), x)
        if shape == "cap-binding":
            assert np.any(x == caps)


def test_projection_caps_sum_just_below_one():
    caps = np.array([0.5, 0.5 - 5e-13])
    with np.errstate(all="raise"):
        projected = project_capped_simplex([2.0, 3.0], caps)
    assert np.array_equal(projected, caps)
