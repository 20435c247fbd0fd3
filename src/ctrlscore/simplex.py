"""Capped probability simplex: weight vectors and Euclidean projection.

The feasible set throughout the package is ``{p : sum(p) = 1, 0 <= p_i <= a_i}``
where ``a`` is a vector of per-node caps (all ones when unconstrained).  The
set is nonempty iff ``sum(a) >= 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyFeasibleSet, InvalidWeights

#: Absolute tolerance on the sum-to-one constraint.
SUM_TOL = 1e-12

#: Slack allowed on the box constraints when validating a weight vector.
BOX_TOL = 1e-12


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidWeights(f"{name} must be a nonempty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise InvalidWeights(f"{name} must be finite")
    return arr


def validate_caps(caps, size: int | None = None) -> np.ndarray:
    """Return caps as an array, requiring caps >= 0 and sum(caps) >= 1.

    ``None`` means no caps: all ones of length ``size``.  A caps vector whose
    length is not ``size`` raises :class:`InvalidWeights`.
    """
    if caps is None and size is not None:
        return np.ones(size)
    arr = _as_vector(caps, "caps")
    if size is not None and arr.size != size:
        raise InvalidWeights(f"caps length {arr.size} != node count {size}")
    if np.any(arr < 0):
        raise InvalidWeights("caps must be nonnegative")
    if arr.sum() < 1.0 - SUM_TOL:
        raise EmptyFeasibleSet(
            f"caps sum to {arr.sum():.6g} < 1; the capped simplex is empty"
        )
    return arr


@dataclass(frozen=True)
class SimplexWeights:
    """A weight vector on the capped simplex.

    Attributes
    ----------
    values : ndarray
        Nonnegative weights summing to one (within ``SUM_TOL``).
    caps : ndarray
        Per-node upper bounds; ``values <= caps`` entrywise.
    """

    values: np.ndarray
    caps: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        values = _as_vector(self.values, "values")
        caps = validate_caps(self.caps, values.size)
        total = values.sum()
        if abs(total - 1.0) > SUM_TOL:
            raise InvalidWeights(f"weights sum to {total!r}, expected 1 within {SUM_TOL}")
        if np.any(values < -BOX_TOL) or np.any(values > caps + BOX_TOL):
            raise InvalidWeights("weights violate 0 <= p_i <= a_i")
        values = np.clip(values, 0.0, caps)
        values.flags.writeable = False
        caps.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "caps", caps)

    def __len__(self) -> int:
        return self.values.size


def central_point(caps) -> SimplexWeights:
    """Interior starting point: projection of the uniform vector onto the set."""
    caps_arr = validate_caps(caps)
    return SimplexWeights(
        project_capped_simplex(np.full(caps_arr.size, 1.0 / caps_arr.size), caps_arr),
        caps_arr.copy())


def project_capped_simplex(point, caps) -> np.ndarray:
    """Euclidean projection onto ``{x : sum(x) = 1, 0 <= x <= caps}``.

    The projection is ``x_i = clip(v_i - tau, 0, a_i)`` for the unique dual
    shift ``tau`` making the result sum to one.  The mass
    ``tau -> sum(clip(v - tau, 0, a))`` is nonincreasing and piecewise linear
    with breakpoints at ``v - a`` and ``v`` (Wang & Lu, arXiv:1503.01002;
    Condat, Math. Prog. 2016), so one sort of the ``2m`` breakpoints and a
    cumulative sum of the slopes give the mass at every breakpoint.  On the
    segment where the mass crosses one, the active sets are fixed and ``tau``
    solves a linear equation.  Feasible input is returned unchanged, and a
    final repair spreads rounding error over the free coordinates so the
    result sums to one at machine precision.  The result is a new array.

    Raises
    ------
    EmptyFeasibleSet
        If ``sum(caps) < 1``.
    """
    v = _as_vector(point, "point")
    a = validate_caps(caps, v.size)

    # Feasible input is returned unchanged (idempotency, bitwise).
    if abs(v.sum() - 1.0) <= SUM_TOL and np.all(v >= 0.0) and np.all(v <= a):
        return v.copy()

    m = v.size
    breakpoints = np.concatenate((v - a, v))
    # Passing v_i - a_i frees coordinate i; passing v_i sends it to zero.  The
    # stable sort keeps every v_i - a_i ahead of an equal v_j, so the first
    # segment always has a free coordinate.
    order = np.argsort(breakpoints, kind="stable")
    free_counts = np.cumsum(np.where(order < m, 1, -1))[:-1]
    drops = free_counts * np.diff(breakpoints[order])
    # Mass at every breakpoint but the last, where it is zero.
    mass = a.sum() - np.concatenate(([0.0], np.cumsum(drops[:-1])))
    # The segment after breakpoint k holds the crossing.  Index 0 also covers
    # caps summing to just under one, which validate_caps accepts.
    k = max(np.count_nonzero(mass >= 1.0) - 1, 0)
    rank = np.empty(2 * m, dtype=int)
    rank[order] = np.arange(2 * m)
    capped = rank[:m] > k
    free = ~capped & (rank[m:] > k)
    tau = (v[free].sum() + a[capped].sum() - 1.0) / free.sum()

    x = np.minimum(np.maximum(v - tau, 0.0), a)
    # Distribute residual rounding mass over the free coordinates.  The
    # cancellation in v - tau leaves errors of order ulp(|v|), so the repair
    # gate must scale with the input magnitude.
    repair_gate = max(1e-9, 1e-12 * float(np.max(np.abs(v))))
    for _ in range(3):
        residual = 1.0 - x.sum()
        if residual == 0.0:
            break
        free = (x > 0.0) & (x < a)
        if not np.any(free) or abs(residual) > repair_gate:
            break
        x[free] += residual / free.sum()
        x = np.minimum(np.maximum(x, 0.0), a)
    return x


def weight_vector(weights, size: int | None = None) -> np.ndarray:
    """Coerce ``SimplexWeights`` or an array-like to a plain float vector."""
    values = weights.values if isinstance(weights, SimplexWeights) else weights
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidWeights("weights must be a 1-d vector")
    if size is not None and arr.size != size:
        raise InvalidWeights(f"expected {size} weights, got {arr.size}")
    return arr
